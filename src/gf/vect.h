// Bulk GF(2^8) region kernels — the hot loops behind every encode, decode
// and repair operation in this repository.
//
// Like ISA-L's gf_vect_* family, these operate on large byte regions with a
// single field coefficient; a dot product over several sources is one
// mul_add_region pass per source.  The implementation is table-driven: a
// process-wide 64 KiB full multiplication table keeps the per-byte cost at
// one load, which is the portable analogue of ISA-L's SIMD shuffle kernels.
// Absolute throughput differs from hand-tuned AVX code, but the *relative*
// costs between codes — which is what the paper's Figures 6–8 compare —
// depend only on how many multiply-accumulate passes each code performs per
// output byte, and that structure is preserved exactly.

#ifndef CAROUSEL_GF_VECT_H
#define CAROUSEL_GF_VECT_H

#include <cstddef>

#include "gf/gf256.h"

namespace carousel::gf {

/// Row of the full multiplication table for a fixed coefficient c:
/// row[b] == mul(c, b) for every byte b.
const Byte* mul_row(Byte c);

/// dst = c * src, elementwise over n bytes.  Regions must not overlap unless
/// dst == src.
void mul_region(Byte c, const Byte* src, Byte* dst, std::size_t n);

/// dst ^= c * src (multiply-accumulate), elementwise over n bytes.
/// Regions must not overlap.
void mul_add_region(Byte c, const Byte* src, Byte* dst, std::size_t n);

/// dst ^= src, elementwise over n bytes (the coefficient-1 fast path).
void xor_region(const Byte* src, Byte* dst, std::size_t n);

/// Zero-fill helper kept next to the kernels for symmetry.
void zero_region(Byte* dst, std::size_t n);

}  // namespace carousel::gf

#endif  // CAROUSEL_GF_VECT_H
