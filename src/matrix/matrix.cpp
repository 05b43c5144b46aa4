#include "matrix/matrix.h"

#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "gf/vect.h"

namespace carousel::matrix {

Matrix Matrix::from_rows(std::initializer_list<std::initializer_list<int>> rows) {
  Matrix m(rows.size(), rows.size() ? rows.begin()->size() : 0);
  std::size_t r = 0;
  for (const auto& row : rows) {
    if (row.size() != m.cols())
      throw std::invalid_argument("from_rows: ragged row list");
    std::size_t c = 0;
    for (int v : row) m.at(r, c++) = static_cast<Byte>(v);
    ++r;
  }
  return m;
}

Matrix Matrix::mul(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t t = 0; t < cols_; ++t) {
      Byte a = at(i, t);
      if (a == 0) continue;
      gf::mul_add_region(a, &rhs.data_[t * rhs.cols_], &out.data_[i * rhs.cols_],
                         rhs.cols_);
    }
  }
  return out;
}

std::vector<Byte> Matrix::mul_vec(std::span<const Byte> v) const {
  assert(v.size() == cols_);
  std::vector<Byte> out(rows_, 0);
  for (std::size_t i = 0; i < rows_; ++i) {
    Byte acc = 0;
    const Byte* r = &data_[i * cols_];
    for (std::size_t c = 0; c < cols_; ++c) acc ^= gf::mul(r[c], v[c]);
    out[i] = acc;
  }
  return out;
}

std::optional<Matrix> Matrix::inverse() const {
  if (!is_square()) return std::nullopt;
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix inv = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot at or below the diagonal.
    std::size_t pivot = col;
    while (pivot < n && a.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return std::nullopt;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.at(pivot, c), a.at(col, c));
        std::swap(inv.at(pivot, c), inv.at(col, c));
      }
    }
    // Scale pivot row to 1.
    Byte s = gf::inv(a.at(col, col));
    if (s != 1) {
      gf::mul_region(s, a.row(col).data(), a.row(col).data(), n);
      gf::mul_region(s, inv.row(col).data(), inv.row(col).data(), n);
    }
    // Eliminate the column everywhere else.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      Byte f = a.at(r, col);
      if (f == 0) continue;
      gf::mul_add_region(f, a.row(col).data(), a.row(r).data(), n);
      gf::mul_add_region(f, inv.row(col).data(), inv.row(r).data(), n);
    }
  }
  return inv;
}

std::size_t Matrix::rank() const {
  Matrix a = *this;
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols_ && rank < rows_; ++col) {
    std::size_t pivot = rank;
    while (pivot < rows_ && a.at(pivot, col) == 0) ++pivot;
    if (pivot == rows_) continue;
    if (pivot != rank)
      for (std::size_t c = 0; c < cols_; ++c)
        std::swap(a.at(pivot, c), a.at(rank, c));
    Byte s = gf::inv(a.at(rank, col));
    if (s != 1) gf::mul_region(s, a.row(rank).data(), a.row(rank).data(), cols_);
    for (std::size_t r = rank + 1; r < rows_; ++r) {
      Byte f = a.at(r, col);
      if (f != 0) gf::mul_add_region(f, a.row(rank).data(), a.row(r).data(), cols_);
    }
    ++rank;
  }
  return rank;
}

bool Matrix::is_identity() const {
  if (!is_square()) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      if (at(r, c) != (r == c ? 1 : 0)) return false;
  return true;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    assert(indices[i] < rows_);
    std::copy(row(indices[i]).begin(), row(indices[i]).end(),
              out.row(i).begin());
  }
  return out;
}

Matrix Matrix::select_cols(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t i = 0; i < indices.size(); ++i) {
      assert(indices[i] < cols_);
      out.at(r, i) = at(r, indices[i]);
    }
  return out;
}

Matrix Matrix::vstack(const Matrix& bottom) const {
  assert(cols_ == bottom.cols_);
  Matrix out(rows_ + bottom.rows_, cols_);
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  std::copy(bottom.data_.begin(), bottom.data_.end(),
            out.data_.begin() + static_cast<std::ptrdiff_t>(data_.size()));
  return out;
}

Matrix Matrix::hstack(const Matrix& right) const {
  assert(rows_ == right.rows_);
  Matrix out(rows_, cols_ + right.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy(row(r).begin(), row(r).end(), out.row(r).begin());
    std::copy(right.row(r).begin(), right.row(r).end(),
              out.row(r).begin() + static_cast<std::ptrdiff_t>(cols_));
  }
  return out;
}

Matrix Matrix::kron_identity(std::size_t p) const {
  Matrix out(rows_ * p, cols_ * p);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) {
      Byte v = at(r, c);
      if (v == 0) continue;
      for (std::size_t u = 0; u < p; ++u) out.at(r * p + u, c * p + u) = v;
    }
  return out;
}

std::size_t Matrix::nonzeros() const {
  std::size_t n = 0;
  for (Byte b : data_) n += (b != 0);
  return n;
}

std::vector<std::size_t> Matrix::row_support(std::size_t r) const {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < cols_; ++c)
    if (at(r, c) != 0) out.push_back(c);
  return out;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

std::string Matrix::to_string() const {
  std::string out;
  char buf[8];
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof buf, "%02x ", at(r, c));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

Matrix vandermonde(std::span<const Byte> xs, std::size_t k) {
  Matrix m(xs.size(), k);
  for (std::size_t r = 0; r < xs.size(); ++r) {
    Byte v = 1;
    for (std::size_t c = 0; c < k; ++c) {
      m.at(r, c) = v;
      v = gf::mul(v, xs[r]);
    }
  }
  return m;
}

Matrix cauchy_systematic(std::size_t n, std::size_t k) {
  if (n > 256 || k == 0 || k > n)
    throw std::invalid_argument("cauchy_systematic: need 0 < k <= n <= 256");
  Matrix m(n, k);
  for (std::size_t i = 0; i < k; ++i) m.at(i, i) = 1;
  // Parity rows: Cauchy on disjoint point sets {k..n-1} and {0..k-1}.
  for (std::size_t r = k; r < n; ++r)
    for (std::size_t c = 0; c < k; ++c)
      m.at(r, c) = gf::inv(gf::add(static_cast<Byte>(r), static_cast<Byte>(c)));
  return m;
}

std::optional<std::vector<Byte>> solve(const Matrix& a, std::span<const Byte> b) {
  assert(a.is_square() && a.rows() == b.size());
  auto inv = a.inverse();
  if (!inv) return std::nullopt;
  return inv->mul_vec(b);
}

}  // namespace carousel::matrix
