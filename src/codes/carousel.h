// Carousel codes — the paper's contribution (§V–§VII).
//
// An (n, k, d, p) Carousel code spreads the original data over the first p
// blocks (k <= p <= n) instead of k, raising data parallelism (parallel
// reads, data-local map tasks) from k to p, while remaining MDS and keeping
// the optimal MSR repair traffic d/(d-k+1) block sizes.
//
// It is the repository's one MDS codec: at p = k the construction returns
// its base code unchanged, so Carousel(n, k, k, k) is the systematic (n, k)
// RS code and Carousel(n, k, d, k) the (n, k, d) product-matrix MSR code.
// The points differ only in (d, p) on one regenerating-codes trade-off.
//
// Construction, following the paper exactly:
//  1. Base code: systematic (n,k) RS when d == k, else the systematic
//     (n,k,d) product-matrix MSR code; alpha = d-k+1 segments per block.
//  2. Expansion: each segment splits into P units, K/P the irreducible form
//     of alpha*k/p; generator Kronecker-expanded with I_P (units of equal
//     expansion coordinate u never mix).
//  3. Unit selection: K units per block from the first p blocks, chosen
//     round-robin — unit j of block i is selected iff (j - i) mod N0 lies in
//     [0, K0), K0/N0 the irreducible form of k/p.  The selected rows form
//     Ĝ₀, which must be nonsingular; the constructor verifies this and, for
//     the rare parameter mixes where the published pattern goes singular,
//     completes the selection greedily (rank-extension in the paper's
//     round-robin preference order; see `selection_is_papers`).
//  4. Symbol remapping: G := Ĝ·Ĝ₀⁻¹, making every selected unit a verbatim
//     message unit ([19] Theorem 1 / paper §VI-B).
//  5. Reordering: per-block permutation placing the K data units at the top
//     of the block in file order, so block i's first K units are message
//     units [i*K, (i+1)*K) — the property the Hadoop FileInputFormat
//     analogue in src/storage relies on.
//
// Reads: one planner, plan_read(usable), names the units a read fetches:
//  - every usable data slot (< p) serves its own K data units;
//  - every unusable slot is served by the lowest unused usable parity block,
//    which reads that slot's selection pattern — k/p of a block (§VII);
//  - when parity runs out, LinearCode's rule takes over: every verbatim
//    unit, then the fewest parity units that complete the rank (§VIII-B);
//  - nullopt when the usable blocks cannot decode.
// Every plan decodes through decode_units; decode_stripe runs it in memory
// and net::CarouselStore runs it over the wire.
//
// Repair: one planner, plan_repair(failed, survivors), picks d helpers
// shipping repair_projection chunks (d > k and d survivors) or k whole
// blocks; rebuild turns either input set into the lost block.  The helper
// path moves the same bytes as the base code, because remapping is a
// message-basis change and reordering a per-block permutation; helper and
// newcomer coefficient layouts are permuted accordingly (paper Fig. 4).

#ifndef CAROUSEL_CODES_CAROUSEL_H
#define CAROUSEL_CODES_CAROUSEL_H

#include <memory>
#include <optional>
#include <vector>

#include "codes/linear_code.h"
#include "codes/msr.h"

namespace carousel::codes {

class Carousel : public LinearCode {
 public:
  Carousel(std::size_t n, std::size_t k, std::size_t d, std::size_t p);

  /// "rs" (d = k = p), "msr" (d > k = p) or "carousel" (p > k): the
  /// classic code a p = k point is, so codec metrics keep their labels.
  const char* kind() const override;

  std::size_t alpha() const { return params().alpha(); }
  std::size_t d() const { return params().d; }
  std::size_t p() const { return params().p; }
  /// Units each segment was split into (P).
  std::size_t expansion() const { return P_; }
  /// Data units per data-carrying block (K); each is 1/s of a block.
  std::size_t data_units_per_block() const { return K_; }

  /// False when the published round-robin pattern produced a singular Ĝ₀ and
  /// the greedy completion kicked in (never observed on the supported grid;
  /// exposed so tests can pin that down).
  bool selection_is_papers() const { return paper_selection_; }

  /// Message-unit interval [first, last) stored verbatim in block i, empty
  /// for i >= p.  This is the block's "original data" extent the paper's
  /// FileInputFormat exposes to map tasks.
  std::pair<std::size_t, std::size_t> message_slice(std::size_t block) const;

  /// Bytes of original data at the head of block i, for a given block size.
  std::size_t data_extent_bytes(std::size_t block,
                                std::size_t block_bytes) const;

  /// §VII read rule in front of LinearCode's fewest-units rule; see the
  /// "Reads" summary above.
  std::optional<ReadPlan> plan_read(
      const std::vector<bool>& usable) const override;

  /// The stored-unit positions a pure-parity stand-in block (id >= p) reads
  /// to serve `slot` in a §VII read plan.  For such blocks the reorder
  /// permutation is the identity, so these are the pre-reorder unit indices
  /// themselves: exactly k/p of the stand-in block.
  std::span<const std::size_t> selection_pattern(std::size_t slot) const;

  /// The helper-side repair computation as explicit linear combinations:
  /// element u lists the (stored unit position, coefficient) terms of chunk
  /// unit u, in a form a remote, code-agnostic block server executes (net
  /// protocol PROJECT) and helper_compute evaluates locally.  When d == k
  /// each of the s outputs is one stored unit: the helper ships its block.
  std::vector<std::vector<std::pair<std::size_t, Byte>>> repair_projection(
      std::size_t helper, std::size_t failed) const;

  /// Units each helper ships during repair: s/alpha (the optimal
  /// d/(d-k+1)-block total; equals a whole block when d == k).
  std::size_t helper_chunk_units() const { return s() / alpha(); }

  /// Helper-side repair computation (runs where the surviving block lives):
  /// evaluates repair_projection(helper, failed) over `block`.
  void helper_compute(std::size_t helper, std::size_t failed,
                      std::span<const Byte> block,
                      std::span<Byte> chunk_out) const;

  /// Newcomer-side repair: d chunks in, the failed block out.
  IoStats newcomer_compute(std::size_t failed,
                           std::span<const std::size_t> helpers,
                           std::span<const std::span<const Byte>> chunks,
                           std::span<Byte> out) const;

  /// Which survivors rebuild a lost block, and what each ships.
  struct RepairPlan {
    std::vector<std::size_t> sources;
    /// True: each source ships repair_projection(source, failed), a chunk
    /// of helper_chunk_units() units.  False: each ships its whole block.
    bool projected = false;
  };

  /// The repair planner: the first d survivors as projecting helpers when
  /// d > k and at least d survive (d/(d-k+1) block sizes of traffic),
  /// otherwise the first k survivors' whole blocks (k block sizes); nullopt
  /// when fewer than k survive.
  std::optional<RepairPlan> plan_repair(
      std::size_t failed, std::span<const std::size_t> survivors) const;

  /// Turns a repair plan's inputs (parallel to plan.sources: chunks when
  /// projected, whole blocks otherwise) into the lost block.
  IoStats rebuild(std::size_t failed, const RepairPlan& plan,
                  std::span<const std::span<const Byte>> inputs,
                  std::span<Byte> out) const;

  /// In-memory repair executor: `blocks` holds n spans, an empty span
  /// marking an unusable block (blocks[failed] is ignored).  Plans, runs the
  /// helpers locally and rebuilds.  Returns the plan's input bytes and
  /// sources; throws std::runtime_error when fewer than k blocks survive.
  IoStats repair_stripe(std::size_t failed,
                        std::span<const std::span<const Byte>> blocks,
                        std::span<Byte> out) const;

 private:
  struct Construction;
  explicit Carousel(Construction c);

  // Pre-reorder unit index j (= segment*P + coordinate) -> stored position.
  std::size_t store_pos(std::size_t block, std::size_t j) const {
    return store_pos_[block][j];
  }

  std::size_t K_ = 0;
  std::size_t P_ = 0;
  bool paper_selection_ = true;
  std::vector<std::vector<std::size_t>> selection_;  // per slot, ascending j
  std::vector<std::vector<std::size_t>> store_pos_;  // per block, size s
  std::unique_ptr<ProductMatrixMSR> msr_base_;       // null when d == k
};

}  // namespace carousel::codes

#endif  // CAROUSEL_CODES_CAROUSEL_H
