// The product-matrix minimum-storage regenerating construction of Rashmi,
// Shah and Kumar (IEEE-IT 2011), reference [19] of the paper — the base code
// Carousel builds on when d > k (§VIII-A, footnote 2).  This class is only
// the construction: the systematic generator and the repair algebra.  The
// codec is Carousel(n, k, d, k), which returns this code unchanged (§VI).
//
// Construction summary (d = 2k-2 base case):
//   alpha = d - k + 1 = k - 1 segments per block;
//   message matrix M = [S1; S2] with S1, S2 symmetric alpha x alpha;
//   node i holds psi_i^T M, where psi_i = [phi_i, lambda_i * phi_i] is a
//   Vandermonde row [1, x_i, ..., x_i^{2*alpha-1}], lambda_i = x_i^alpha.
// The x_i are chosen greedily so the lambda_i stay pairwise distinct (the
// unit group of GF(256) has order 255, so alpha-th powers can collide).
//
// d > 2k-2 is obtained by shortening: build an (n+i, k+i, d+i) base code
// with i = d - 2k + 2, pin the data of systematic nodes k..k+i-1 to zero and
// drop those nodes.  The dropped nodes store identically zero, so they serve
// as free virtual helpers/decoders, preserving the MDS property and the
// optimal repair traffic d/(d-k+1) block sizes from d real helpers.
//
// Repair protocol (paper §IV, Fig. 8's "helpers" and "newcomer"):
//   helper j sends one segment: mu_j = (its alpha segments) . phi_f;
//   the newcomer solves Psi_rep [S1 phi_f; S2 phi_f] = mu and re-assembles
//   content_f[a] = (S1 phi_f)[a] + lambda_f (S2 phi_f)[a].

#ifndef CAROUSEL_CODES_MSR_H
#define CAROUSEL_CODES_MSR_H

#include <span>
#include <vector>

#include "codes/params.h"
#include "gf/gf256.h"
#include "matrix/matrix.h"

namespace carousel::codes {

class ProductMatrixMSR {
 public:
  /// Requires d >= max(k+1, 2k-2) (see CodeParams::validate) and k >= 2.
  ProductMatrixMSR(std::size_t n, std::size_t k, std::size_t d);

  /// Systematic generator, (n*alpha) x (k*alpha): nodes 0..k-1 store the
  /// message verbatim.
  const matrix::Matrix& generator() const { return generator_; }

  /// phi row (alpha coefficients) of a node: what a helper projects its
  /// segments onto to repair it.
  std::span<const gf::Byte> phi(std::size_t node) const;
  gf::Byte lambda(std::size_t node) const;

  /// Inverse of the repair system for (failed, helpers): a 2*alpha x d matrix
  /// W with [S1 phi_f; S2 phi_f] = W * chunks (virtual zero helpers from
  /// shortening already folded in).
  matrix::Matrix repair_combiner(std::size_t failed,
                                 std::span<const std::size_t> helpers) const;

 private:
  std::size_t base_index(std::size_t node) const {
    return node < params_.k ? node : node + shortened_;
  }

  CodeParams params_;
  matrix::Matrix generator_;
  // Base (unshortened) code geometry.
  std::size_t shortened_ = 0;       // i = d - 2k + 2
  matrix::Matrix psi_;              // (n + i) x 2*alpha
  std::vector<gf::Byte> lambda_;    // n + i
};

}  // namespace carousel::codes

#endif  // CAROUSEL_CODES_MSR_H
