#include "codes/carousel.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "gf/vect.h"
#include "matrix/echelon.h"
#include "obs/trace.h"

namespace carousel::codes {

using matrix::EchelonBasis;

struct Carousel::Construction {
  CodeParams params;
  std::size_t s = 0;
  Matrix generator;
  std::size_t K = 0;
  std::size_t P = 0;
  bool paper_selection = true;
  std::vector<std::vector<std::size_t>> selection;
  std::vector<std::vector<std::size_t>> store_pos;
  std::unique_ptr<ProductMatrixMSR> msr_base;
};

Carousel::Carousel(Construction c)
    : LinearCode(c.params, c.s, std::move(c.generator)),
      K_(c.K),
      P_(c.P),
      paper_selection_(c.paper_selection),
      selection_(std::move(c.selection)),
      store_pos_(std::move(c.store_pos)),
      msr_base_(std::move(c.msr_base)) {}

Carousel::Carousel(std::size_t n, std::size_t k, std::size_t d, std::size_t p)
    : Carousel([&] {
        Construction c;
        c.params = CodeParams{n, k, d, p};
        c.params.validate();
        const std::size_t alpha = c.params.alpha();

        // Step 1: base code generator.
        Matrix base_g;
        if (d == k) {
          base_g = matrix::cauchy_systematic(n, k);
        } else {
          c.msr_base = std::make_unique<ProductMatrixMSR>(n, k, d);
          base_g = c.msr_base->generator();
        }

        // Step 2: expansion.  K/P = irreducible alpha*k/p.
        auto [K, P] = reduce_fraction(alpha * k, p);
        c.K = K;
        c.P = P;
        c.s = alpha * P;
        Matrix g_hat = base_g.kron_identity(P);

        // Step 3: unit selection over the first p blocks.
        // Paper pattern: unit j of block i selected iff (j-i) mod N0 < K0.
        auto [K0, N0] = reduce_fraction(k, p);
        const std::size_t s = c.s;
        const std::size_t base_cols = base_g.cols();  // k * alpha
        std::vector<std::vector<std::size_t>> selection(p);
        std::vector<EchelonBasis> classes(P, EchelonBasis(base_cols));
        std::vector<std::size_t> quota(p, 0);
        // Base-generator row backing unit j of block i (its u-class row).
        auto base_row = [&](std::size_t i, std::size_t j) {
          return base_g.row(i * alpha + j / P);
        };
        auto try_take = [&](std::size_t i, std::size_t j) {
          if (quota[i] == K) return false;
          std::size_t u = j % P;
          if (classes[u].size() == base_cols) return false;
          if (!classes[u].try_insert(base_row(i, j))) return false;
          selection[i].push_back(j);
          ++quota[i];
          return true;
        };

        bool paper_ok = true;
        for (std::size_t i = 0; i < p; ++i)
          for (std::size_t j = 0; j < s; ++j) {
            if ((j + N0 - i % N0) % N0 >= K0) continue;
            paper_ok = try_take(i, j) && paper_ok;
          }
        if (!paper_ok) {
          // Greedy completion in round-robin preference order.
          for (std::size_t off = 0; off < s; ++off)
            for (std::size_t i = 0; i < p; ++i) {
              std::size_t j = (i + off) % s;
              if (std::find(selection[i].begin(), selection[i].end(), j) ==
                  selection[i].end())
                try_take(i, j);
            }
        }
        c.paper_selection = paper_ok;
        std::size_t taken = 0;
        for (std::size_t i = 0; i < p; ++i) {
          std::sort(selection[i].begin(), selection[i].end());
          taken += selection[i].size();
        }
        if (taken != k * s)
          throw std::runtime_error(
              "Carousel selection could not reach full rank for " +
              c.params.to_string());

        // Step 4: symbol remapping G := Ĝ Ĝ₀⁻¹, with Ĝ₀ rows ordered
        // slot-major so message unit i*K + t lands in block i's t-th
        // selected unit.
        std::vector<std::size_t> g0_rows;
        g0_rows.reserve(k * s);
        for (std::size_t i = 0; i < p; ++i)
          for (std::size_t j : selection[i]) g0_rows.push_back(i * s + j);
        auto g0_inv = g_hat.select_rows(g0_rows).inverse();
        if (!g0_inv)
          throw std::logic_error(
              "Carousel: selection passed rank checks but Ĝ₀ is singular");
        Matrix g_c = g_hat.mul(*g0_inv);

        // Step 5: reordering — selected units to the head of each block.
        std::vector<std::vector<std::size_t>> store_pos(
            n, std::vector<std::size_t>(s));
        for (std::size_t i = 0; i < n; ++i) {
          if (i >= p) {
            std::iota(store_pos[i].begin(), store_pos[i].end(), 0);
            continue;
          }
          std::vector<bool> sel(s, false);
          for (std::size_t j : selection[i]) sel[j] = true;
          std::size_t next_data = 0, next_parity = selection[i].size();
          for (std::size_t j = 0; j < s; ++j)
            store_pos[i][j] = sel[j] ? next_data++ : next_parity++;
        }
        Matrix g_final(n * s, k * s);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < s; ++j) {
            auto src = g_c.row(i * s + j);
            auto dst = g_final.row(i * s + store_pos[i][j]);
            std::copy(src.begin(), src.end(), dst.begin());
          }

        // Invariant: block i (< p) holds message units [i*K, (i+1)*K) at its
        // head, verbatim.
        for (std::size_t i = 0; i < p; ++i)
          for (std::size_t t = 0; t < K; ++t) {
            auto row = g_final.row(i * s + t);
            for (std::size_t cidx = 0; cidx < row.size(); ++cidx)
              if (row[cidx] != (cidx == i * K + t ? 1 : 0))
                throw std::logic_error(
                    "Carousel: systematic layout invariant violated");
          }

        c.generator = std::move(g_final);
        c.selection = std::move(selection);
        c.store_pos = std::move(store_pos);
        return c;
      }()) {}

const char* Carousel::kind() const {
  if (p() > k()) return "carousel";
  return msr_base_ ? "msr" : "rs";
}

std::pair<std::size_t, std::size_t> Carousel::message_slice(
    std::size_t block) const {
  if (block >= p()) return {0, 0};
  return {block * K_, (block + 1) * K_};
}

std::size_t Carousel::data_extent_bytes(std::size_t block,
                                        std::size_t block_bytes) const {
  if (block >= p()) return 0;
  return block_bytes / s() * K_;
}

std::optional<ReadPlan> Carousel::plan_read(
    const std::vector<bool>& usable) const {
  if (usable.size() != n())
    throw std::invalid_argument("plan_read needs one usable flag per block");
  ReadPlan plan(n());
  std::size_t stand_in = p();  // next parity candidate, ascending
  for (std::size_t slot = 0; slot < p(); ++slot) {
    if (usable[slot]) {
      // The slot's own data units, at the head of the block.
      plan[slot].resize(K_);
      std::iota(plan[slot].begin(), plan[slot].end(), std::size_t{0});
      continue;
    }
    while (stand_in < n() && !usable[stand_in]) ++stand_in;
    if (stand_in == n()) return LinearCode::plan_read(usable);
    // The standing-in block serves the lost slot's selection pattern; its
    // reorder permutation is the identity, so the indices are positions.
    plan[stand_in] = selection_[slot];
    ++stand_in;
  }
  return plan;
}

std::span<const std::size_t> Carousel::selection_pattern(
    std::size_t slot) const {
  if (slot >= p()) throw std::invalid_argument("slot out of range");
  return selection_[slot];
}

std::vector<std::vector<std::pair<std::size_t, Byte>>>
Carousel::repair_projection(std::size_t helper, std::size_t failed) const {
  if (helper >= n() || failed >= n() || helper == failed)
    throw std::invalid_argument("invalid helper/failed pair");
  std::vector<std::vector<std::pair<std::size_t, Byte>>> outputs;
  if (!msr_base_) {
    // d == k: RS repair, the helper's whole block.
    for (std::size_t t = 0; t < s(); ++t) outputs.push_back({{t, 1}});
    return outputs;
  }
  // One projected unit per expansion coordinate u: the base helper vector
  // phi_failed applied across segments, with this block's reorder permutation
  // folded into the coefficient positions (paper Fig. 4b).
  auto coeffs = msr_base_->phi(failed);
  outputs.resize(P_);
  for (std::size_t u = 0; u < P_; ++u) {
    outputs[u].reserve(alpha());
    for (std::size_t a = 0; a < alpha(); ++a)
      outputs[u].emplace_back(store_pos(helper, a * P_ + u), coeffs[a]);
  }
  return outputs;
}

void Carousel::helper_compute(std::size_t helper, std::size_t failed,
                              std::span<const Byte> block,
                              std::span<Byte> chunk_out) const {
  const auto outputs = repair_projection(helper, failed);
  if (block.size() % s() != 0)
    throw std::invalid_argument("block size must be a multiple of s");
  const std::size_t ub = block.size() / s();
  if (chunk_out.size() != outputs.size() * ub)
    throw std::invalid_argument("chunk buffer has wrong size");
  for (std::size_t u = 0; u < outputs.size(); ++u) {
    Byte* dst = chunk_out.data() + u * ub;
    gf::zero_region(dst, ub);
    for (auto [pos, coeff] : outputs[u])
      gf::mul_add_region(coeff, block.data() + pos * ub, dst, ub);
  }
}

IoStats Carousel::newcomer_compute(
    std::size_t failed, std::span<const std::size_t> helpers,
    std::span<const std::span<const Byte>> chunks, std::span<Byte> out) const {
  if (helpers.size() != d() || chunks.size() != d())
    throw std::invalid_argument("repair needs exactly d helper chunks");
  const std::size_t chunk_bytes = chunks.front().size();
  const std::size_t ub = chunk_bytes / helper_chunk_units();
  if (out.size() != s() * ub)
    throw std::invalid_argument("output must be one full block");
  for (auto ch : chunks)
    if (ch.size() != chunk_bytes)
      throw std::invalid_argument("chunks must share one size");

  // d == k: chunks are whole blocks, rebuilt like any whole-block plan.
  if (!msr_base_)
    return rebuild(failed, {{helpers.begin(), helpers.end()}, false}, chunks,
                   out);

  IoStats stats;
  stats.bytes_read = chunks.size() * chunk_bytes;
  stats.sources = helpers.size();

  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.repair_seconds);
  ins.repair_bytes_read->inc(stats.bytes_read);

  Matrix w = msr_base_->repair_combiner(failed, helpers);
  const Byte lam = msr_base_->lambda(failed);
  // Solve the base repair system once per expansion coordinate.
  std::vector<Byte> xy(2 * alpha() * ub);
  for (std::size_t u = 0; u < P_; ++u) {
    std::fill(xy.begin(), xy.end(), 0);
    for (std::size_t r = 0; r < 2 * alpha(); ++r)
      for (std::size_t j = 0; j < helpers.size(); ++j)
        gf::mul_add_region(w.at(r, j), chunks[j].data() + u * ub,
                           xy.data() + r * ub, ub);
    for (std::size_t a = 0; a < alpha(); ++a) {
      std::size_t pos = store_pos(failed, a * P_ + u);
      Byte* dst = out.data() + pos * ub;
      std::memcpy(dst, xy.data() + a * ub, ub);
      gf::mul_add_region(lam, xy.data() + (alpha() + a) * ub, dst, ub);
    }
  }
  return stats;
}

std::optional<Carousel::RepairPlan> Carousel::plan_repair(
    std::size_t failed, std::span<const std::size_t> survivors) const {
  if (failed >= n()) throw std::invalid_argument("failed block out of range");
  RepairPlan plan;
  plan.projected = msr_base_ && survivors.size() >= d();
  const std::size_t want = plan.projected ? d() : k();
  if (survivors.size() < want) return std::nullopt;
  plan.sources.assign(survivors.begin(),
                      survivors.begin() + static_cast<std::ptrdiff_t>(want));
  return plan;
}

IoStats Carousel::rebuild(std::size_t failed, const RepairPlan& plan,
                          std::span<const std::span<const Byte>> inputs,
                          std::span<Byte> out) const {
  if (inputs.size() != plan.sources.size())
    throw std::invalid_argument("rebuild needs one input per plan source");
  if (plan.projected)
    return newcomer_compute(failed, plan.sources, inputs, out);
  // Whole blocks: project every unit of the lost block straight from the k
  // sources' units (paper §V.C), never materialising the message; this keeps
  // the region work at base-RS repair cost.
  const std::size_t ub = out.size() / s();
  std::vector<UnitRef> units;
  units.reserve(message_units());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    if (inputs[j].size() != out.size())
      throw std::invalid_argument("whole-block inputs must be one block each");
    for (std::size_t t = 0; t < s(); ++t)
      units.push_back({plan.sources[j], t, inputs[j].data() + t * ub});
  }
  return project_units(units, ub, failed, out);
}

IoStats Carousel::repair_stripe(std::size_t failed,
                                std::span<const std::span<const Byte>> blocks,
                                std::span<Byte> out) const {
  if (blocks.size() != n())
    throw std::invalid_argument("repair_stripe needs n block spans");
  std::vector<std::size_t> survivors;
  for (std::size_t b = 0; b < n(); ++b)
    if (b != failed && !blocks[b].empty()) survivors.push_back(b);
  const auto plan = plan_repair(failed, survivors);
  if (!plan)
    throw std::runtime_error("repair_stripe: fewer than k blocks survive");
  std::vector<std::vector<Byte>> chunks;
  std::vector<std::span<const Byte>> inputs;
  for (std::size_t h : plan->sources) {
    if (!plan->projected) {
      inputs.push_back(blocks[h]);
      continue;
    }
    chunks.emplace_back(helper_chunk_units() * (out.size() / s()));
    helper_compute(h, failed, blocks[h], chunks.back());
  }
  for (const auto& c : chunks) inputs.emplace_back(c);
  return rebuild(failed, *plan, inputs, out);
}

}  // namespace carousel::codes
