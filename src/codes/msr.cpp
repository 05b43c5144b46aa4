#include "codes/msr.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace carousel::codes {

using gf::Byte;
using matrix::Matrix;

namespace {

// Index of S-matrix entry (r, c), r <= c, within the packed upper triangle.
std::size_t tri_index(std::size_t r, std::size_t c, std::size_t alpha) {
  assert(r <= c && c < alpha);
  return r * alpha - r * (r - 1) / 2 + (c - r);
}

}  // namespace

ProductMatrixMSR::ProductMatrixMSR(std::size_t n, std::size_t k, std::size_t d)
    : params_{n, k, d, /*p=*/k} {
  params_.validate();
  if (d == k)
    throw std::invalid_argument(
        "d == k has no product-matrix base; Carousel uses systematic RS");
  const std::size_t alpha = params_.alpha();
  shortened_ = d - (2 * k - 2);
  const std::size_t base_n = n + shortened_;
  const std::size_t base_k = k + shortened_;  // = alpha + 1
  const std::size_t base_msg = base_k * alpha;

  // Evaluation points with pairwise-distinct alpha-th powers.
  std::vector<Byte> xs;
  for (unsigned e = 0; e < 256 && xs.size() < base_n; ++e) {
    Byte lam = gf::pow(static_cast<Byte>(e), static_cast<unsigned>(alpha));
    if (std::find(lambda_.begin(), lambda_.end(), lam) != lambda_.end())
      continue;
    xs.push_back(static_cast<Byte>(e));
    lambda_.push_back(lam);
  }
  if (xs.size() < base_n)
    throw std::invalid_argument(
        "GF(256) has too few distinct alpha-th powers for these (n,k,d)");

  psi_ = matrix::vandermonde(xs, 2 * alpha);

  // Raw generator over the packed symmetric message (S1, S2).
  const std::size_t half = alpha * (alpha + 1) / 2;
  Matrix raw(base_n * alpha, 2 * half);
  for (std::size_t i = 0; i < base_n; ++i)
    for (std::size_t a = 0; a < alpha; ++a)
      for (std::size_t r = 0; r < alpha; ++r) {
        std::size_t v = tri_index(std::min(r, a), std::max(r, a), alpha);
        Byte phi_ir = psi_.at(i, r);
        raw.at(i * alpha + a, v) ^= phi_ir;
        raw.at(i * alpha + a, half + v) ^= gf::mul(lambda_[i], phi_ir);
      }
  if (raw.cols() != base_msg)
    throw std::logic_error("PM message size mismatch");

  // Systematise: remap the message so the first base_k nodes store it
  // verbatim (symbol remapping, [19] Theorem 1).
  std::vector<std::size_t> sys_rows(base_k * alpha);
  for (std::size_t r = 0; r < sys_rows.size(); ++r) sys_rows[r] = r;
  auto a_inv = raw.select_rows(sys_rows).inverse();
  if (!a_inv)
    throw std::logic_error(
        "PM systematisation failed: top rows singular (construction "
        "invariant violated)");
  Matrix sys = raw.mul(*a_inv);

  // Shorten: zero (and drop) systematic nodes k..base_k-1.
  std::vector<std::size_t> keep_rows;
  keep_rows.reserve(n * alpha);
  for (std::size_t i = 0; i < base_n; ++i) {
    if (i >= k && i < base_k) continue;
    for (std::size_t a = 0; a < alpha; ++a) keep_rows.push_back(i * alpha + a);
  }
  std::vector<std::size_t> keep_cols(k * alpha);
  for (std::size_t c = 0; c < keep_cols.size(); ++c) keep_cols[c] = c;
  generator_ = sys.select_rows(keep_rows).select_cols(keep_cols);
}

std::span<const Byte> ProductMatrixMSR::phi(std::size_t node) const {
  return psi_.row(base_index(node)).subspan(0, params_.alpha());
}

Byte ProductMatrixMSR::lambda(std::size_t node) const {
  return lambda_[base_index(node)];
}

Matrix ProductMatrixMSR::repair_combiner(
    std::size_t failed, std::span<const std::size_t> helpers) const {
  const std::size_t n = params_.n, d = params_.d;
  if (helpers.size() != d)
    throw std::invalid_argument("MSR repair needs exactly d helpers");
  const std::size_t two_alpha = 2 * params_.alpha();
  // Repair system rows: the d real helpers followed by the shortened
  // (virtual, all-zero) nodes; together exactly 2*alpha Vandermonde rows.
  std::vector<std::size_t> rows;
  rows.reserve(two_alpha);
  std::vector<bool> seen(n, false);
  for (std::size_t h : helpers) {
    if (h >= n || h == failed || seen[h])
      throw std::invalid_argument("helpers must be distinct survivors");
    seen[h] = true;
    rows.push_back(base_index(h));
  }
  for (std::size_t v = 0; v < shortened_; ++v)
    rows.push_back(params_.k + v);  // base indices of the dropped nodes
  assert(rows.size() == two_alpha);
  auto inv = psi_.select_rows(rows).inverse();
  if (!inv)
    throw std::logic_error("PM repair system singular (invariant violated)");
  // Only the first d columns matter: virtual helpers contribute zero chunks.
  std::vector<std::size_t> cols(d);
  for (std::size_t c = 0; c < d; ++c) cols[c] = c;
  return inv->select_cols(cols);
}

}  // namespace carousel::codes
