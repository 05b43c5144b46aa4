// Incremental row-echelon basis over GF(2^8).
//
// Accepts rows one at a time, keeping only those that extend the span.
// Used by the Carousel unit-selection step (paper §VI-B: picking a
// nonsingular Ĝ₀ submatrix) and by the read planner's fewest-units rule
// (LinearCode::plan_read), which completes a partially-systematic read with
// the fewest parity units.

#ifndef CAROUSEL_MATRIX_ECHELON_H
#define CAROUSEL_MATRIX_ECHELON_H

#include <cstddef>
#include <span>
#include <vector>

#include "gf/gf256.h"

namespace carousel::matrix {

class EchelonBasis {
 public:
  explicit EchelonBasis(std::size_t width) : width_(width) {}

  std::size_t width() const { return width_; }
  /// Current rank (number of independent rows accepted).
  std::size_t size() const { return rows_.size(); }
  bool full() const { return rows_.size() == width_; }

  /// Reduces `row` against the basis; inserts and returns true when it adds
  /// rank, returns false when it is in the span already.
  bool try_insert(std::span<const gf::Byte> row);

  /// True iff `row` lies in the current span (no mutation).
  bool contains(std::span<const gf::Byte> row) const;

 private:
  std::vector<gf::Byte> reduce(std::span<const gf::Byte> row,
                               std::size_t* lead) const;

  std::size_t width_;
  std::vector<std::vector<gf::Byte>> rows_;  // normalised (leading 1)
  std::vector<std::size_t> lead_;
};

}  // namespace carousel::matrix

#endif  // CAROUSEL_MATRIX_ECHELON_H
