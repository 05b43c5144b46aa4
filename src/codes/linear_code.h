// Generator-matrix codec engine.
//
// The MDS codec — Carousel, whose p = k points are Reed-Solomon and
// product-matrix MSR — and the LRC baseline are linear codes over GF(2^8)
// described by a generator matrix G of size (n*s) x (k*s), where s is the
// number of symbols ("units") per block.  A block of w bytes is s units of
// w/s bytes each; unit t of block i is the byte-wise evaluation of row
// i*s + t of G against the k*s message units.  The paper's prototype works
// the same way ("all operations ... are performed by vector/matrix
// multiplications on a finite field of size 2^8", §VIII-A), including the
// sparsity-aware encode that skips zero coefficients.

#ifndef CAROUSEL_CODES_LINEAR_CODE_H
#define CAROUSEL_CODES_LINEAR_CODE_H

#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "codes/params.h"
#include "gf/gf256.h"
#include "matrix/matrix.h"

namespace carousel::obs {
class Counter;
class Histogram;
}  // namespace carousel::obs

namespace carousel::codes {

using gf::Byte;
using matrix::Matrix;

/// A reference to one stored unit: position `pos` (in [0, s)) of block
/// `block` (in [0, n)), together with the bytes of that unit.
struct UnitRef {
  std::size_t block = 0;
  std::size_t pos = 0;
  const Byte* bytes = nullptr;
};

/// Byte-accounting result of a decode or reconstruction, used by the traffic
/// benchmarks (paper Fig. 7).
struct IoStats {
  std::size_t bytes_read = 0;   ///< bytes fetched from surviving blocks
  std::size_t sources = 0;      ///< blocks contacted
};

/// What a stripe read fetches: entry b lists the stored unit positions of
/// block b to read, ascending (empty when block b is not contacted).  The
/// entries hold k*s units in total, and those units decode the stripe.
using ReadPlan = std::vector<std::vector<std::size_t>>;

class LinearCode {
 public:
  /// Takes ownership of the generator; generator must be (n*s) x (k*s).
  LinearCode(CodeParams params, std::size_t s, Matrix generator);
  virtual ~LinearCode() = default;

  /// Short code-family tag, used as the `code` label on codec metrics
  /// ("rs", "msr", "lrc", "carousel").
  virtual const char* kind() const { return "linear"; }

  const CodeParams& params() const { return params_; }
  std::size_t n() const { return params_.n; }
  std::size_t k() const { return params_.k; }
  /// Units per block (subpacketization).
  std::size_t s() const { return s_; }
  /// Message units per stripe (= k * s).
  std::size_t message_units() const { return params_.k * s_; }

  const Matrix& generator() const { return g_; }

  /// Encodes a stripe: data holds k*s units back to back (k blocks' worth of
  /// original bytes); each of the n output spans receives one block of
  /// data.size()/k bytes, one encode_one call each.  Zero coefficients are
  /// skipped and identity rows become copies, so systematic/sparse
  /// generators encode at base-code cost.
  void encode(std::span<const Byte> data,
              std::span<const std::span<Byte>> blocks) const;

  /// The one file -> stripe layout: a file of `file_bytes` occupies
  /// ceil(bytes / (k*block_bytes)) stripes, and an empty file one
  /// zero-padded stripe.  Throws std::invalid_argument unless block_bytes is
  /// a positive multiple of s().
  std::size_t stripes_for(std::size_t file_bytes,
                          std::size_t block_bytes) const;

  /// The message of stripe `stripe` of `file`: its k*block_bytes bytes,
  /// viewed straight in the caller's bytes; only a short last stripe is
  /// copied, zero-padded, into `pad`, and then the view is of `pad`.
  std::span<const Byte> stripe_message(std::span<const Byte> file,
                                       std::size_t stripe,
                                       std::size_t block_bytes,
                                       std::vector<Byte>& pad) const;

  /// Encodes stripe `stripe` of `file` into the n `blocks` (one block size
  /// each): encode(stripe_message(...), blocks).
  void encode_stripe(std::span<const Byte> file, std::size_t stripe,
                     std::span<const std::span<Byte>> blocks,
                     std::vector<Byte>& pad) const;

  /// Encodes block `id` of one stripe's `message` into `out`: the one
  /// instrumented encode (one carousel_codec_encode_seconds sample and one
  /// block of carousel_codec_encode_bytes_total per call).  Every block is
  /// a function of the message alone, so a stripe's n calls may run on n
  /// threads at once.
  void encode_one(std::size_t id, std::span<const Byte> message,
                  std::span<Byte> out) const;

  /// Encodes only block `id`, uninstrumented (used by reconstruction and by
  /// targeted tests).
  void encode_block(std::size_t id, std::span<const Byte> data,
                    std::span<Byte> out) const;

  /// Ablation reference: encodes block `id` walking every generator entry,
  /// including zeros — what encoding would cost WITHOUT the sparsity
  /// optimisation of paper §VIII-A.  Identical output to encode_block; used
  /// by bench_ablation_sparsity, never by production paths.
  void encode_block_dense(std::size_t id, std::span<const Byte> data,
                          std::span<Byte> out) const;

  /// Decodes the original stripe from any k complete blocks.
  /// ids/blocks are parallel arrays of exactly k distinct block ids.
  /// Throws std::invalid_argument on shape errors; std::runtime_error if the
  /// submatrix is singular (never happens for an MDS code with distinct ids).
  IoStats decode(std::span<const std::size_t> ids,
                 std::span<const std::span<const Byte>> blocks,
                 std::span<Byte> data_out) const;

  /// General unit-level decode: given exactly k*s stored units (any mix of
  /// blocks/positions whose generator rows are jointly nonsingular), recovers
  /// the full message.  Verbatim message units are copied, only the rest are
  /// solved; every read plan (plan_read) decodes through it.
  IoStats decode_units(std::span<const UnitRef> units, std::size_t unit_bytes,
                       std::span<Byte> data_out) const;

  /// The read planner: which stored units to fetch when exactly the blocks
  /// with usable[b] set can serve (usable.size() == n).  This base rule
  /// takes every verbatim message unit of the usable blocks, then the
  /// fewest parity units (ascending block, then position) that complete the
  /// rank — with q > k blocks it solves strictly less than the any-k decode,
  /// the "visit more than k blocks" extension the paper leaves as future
  /// work (§VIII-B).  nullopt when the usable units do not span the message.
  /// Carousel puts the §VII p-block rule in front of it.
  virtual std::optional<ReadPlan> plan_read(
      const std::vector<bool>& usable) const;

  /// In-memory executor of plan_read: `blocks` holds n spans, an empty span
  /// marking an unusable block; the planned units decode through
  /// decode_units.  Returns the plan's unit bytes and distinct blocks.
  /// Throws std::runtime_error when no plan exists.
  IoStats decode_stripe(std::span<const std::span<const Byte>> blocks,
                        std::span<Byte> data_out) const;

  /// Rebuilds every unit of block `target` directly from exactly k*s source
  /// units, without materialising the message: the combination matrix is
  /// G_target * inv(G_sources), which inherits the generator's sparsity.
  /// This is the paper's §V.C repair rule ("the j-th unit ... can be
  /// reconstructed from k of any j'-th units"), at half the region work of
  /// decode-then-re-encode.
  IoStats project_units(std::span<const UnitRef> sources,
                        std::size_t unit_bytes, std::size_t target,
                        std::span<Byte> out) const;

 protected:
  /// Row of the generator for unit pos of block id.
  std::span<const Byte> unit_row(std::size_t id, std::size_t pos) const {
    return g_.row(id * s_ + pos);
  }

  /// Global-registry instruments labeled {code=kind()}.  Resolved lazily on
  /// first use — kind() is virtual, so this cannot run in the constructor.
  struct Instruments {
    obs::Histogram* encode_seconds = nullptr;
    obs::Histogram* decode_seconds = nullptr;
    obs::Histogram* repair_seconds = nullptr;
    obs::Counter* encode_bytes = nullptr;
    obs::Counter* decode_bytes_read = nullptr;
    obs::Counter* repair_bytes_read = nullptr;
  };
  const Instruments& instruments() const;

 private:
  CodeParams params_;
  std::size_t s_;
  Matrix g_;
  // Sparse form: per generator row, the nonzero column list; rows that are
  // unit vectors additionally noted for the copy fast path.
  std::vector<std::vector<std::size_t>> support_;
  std::vector<std::ptrdiff_t> identity_col_;  // -1 when not a unit row
  mutable std::once_flag instruments_once_;
  mutable Instruments instruments_;
};

}  // namespace carousel::codes

#endif  // CAROUSEL_CODES_LINEAR_CODE_H
