#include "codes/linear_code.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "gf/vect.h"
#include "matrix/echelon.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carousel::codes {

const LinearCode::Instruments& LinearCode::instruments() const {
  std::call_once(instruments_once_, [this] {
    auto& reg = obs::MetricsRegistry::global();
    auto named = [this](const char* base) {
      return obs::labeled(base, "code", kind());
    };
    instruments_.encode_seconds =
        &reg.histogram(named("carousel_codec_encode_seconds"));
    instruments_.decode_seconds =
        &reg.histogram(named("carousel_codec_decode_seconds"));
    instruments_.repair_seconds =
        &reg.histogram(named("carousel_codec_repair_seconds"));
    instruments_.encode_bytes =
        &reg.counter(named("carousel_codec_encode_bytes_total"));
    instruments_.decode_bytes_read =
        &reg.counter(named("carousel_codec_decode_bytes_read_total"));
    instruments_.repair_bytes_read =
        &reg.counter(named("carousel_codec_repair_bytes_read_total"));
  });
  return instruments_;
}

LinearCode::LinearCode(CodeParams params, std::size_t s, Matrix generator)
    : params_(params), s_(s), g_(std::move(generator)) {
  params_.validate();
  if (g_.rows() != params_.n * s_ || g_.cols() != params_.k * s_)
    throw std::invalid_argument("generator shape does not match (n*s, k*s)");
  support_.reserve(g_.rows());
  identity_col_.reserve(g_.rows());
  for (std::size_t r = 0; r < g_.rows(); ++r) {
    support_.push_back(g_.row_support(r));
    bool unit = support_.back().size() == 1 &&
                g_.at(r, support_.back().front()) == 1;
    identity_col_.push_back(unit ? static_cast<std::ptrdiff_t>(
                                       support_.back().front())
                                 : -1);
  }
}

void LinearCode::encode(std::span<const Byte> data,
                        std::span<const std::span<Byte>> blocks) const {
  if (blocks.size() != n()) throw std::invalid_argument("need n output blocks");
  for (std::size_t i = 0; i < n(); ++i) encode_one(i, data, blocks[i]);
}

std::size_t LinearCode::stripes_for(std::size_t file_bytes,
                                    std::size_t block_bytes) const {
  if (block_bytes == 0 || block_bytes % s_ != 0)
    throw std::invalid_argument(
        "block_bytes must be a positive multiple of the code's "
        "subpacketization");
  const std::size_t stripe_data = k() * block_bytes;
  return std::max<std::size_t>(1, (file_bytes + stripe_data - 1) / stripe_data);
}

std::span<const Byte> LinearCode::stripe_message(std::span<const Byte> file,
                                                 std::size_t stripe,
                                                 std::size_t block_bytes,
                                                 std::vector<Byte>& pad) const {
  const std::size_t stripe_data = k() * block_bytes;
  std::span<const Byte> data =
      file.subspan(std::min(file.size(), stripe * stripe_data));
  if (data.size() >= stripe_data) return data.first(stripe_data);
  pad.assign(stripe_data, 0);
  std::copy(data.begin(), data.end(), pad.begin());
  return pad;
}

void LinearCode::encode_stripe(std::span<const Byte> file, std::size_t stripe,
                               std::span<const std::span<Byte>> blocks,
                               std::vector<Byte>& pad) const {
  encode(stripe_message(file, stripe,
                        blocks.empty() ? 0 : blocks.front().size(), pad),
         blocks);
}

void LinearCode::encode_one(std::size_t id, std::span<const Byte> message,
                            std::span<Byte> out) const {
  if (id >= n()) throw std::invalid_argument("block id out of range");
  if (message.size() % message_units() != 0)
    throw std::invalid_argument("data size must be a multiple of k*s");
  if (out.size() != message.size() / k())
    throw std::invalid_argument("block buffer has wrong size");
  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.encode_seconds);
  encode_block(id, message, out);
  ins.encode_bytes->inc(out.size());
}

void LinearCode::encode_block(std::size_t id, std::span<const Byte> data,
                              std::span<Byte> out) const {
  const std::size_t ub = data.size() / message_units();
  assert(out.size() == s_ * ub);
  for (std::size_t t = 0; t < s_; ++t) {
    const std::size_t r = id * s_ + t;
    Byte* dst = out.data() + t * ub;
    if (identity_col_[r] >= 0) {
      std::memcpy(dst, data.data() + static_cast<std::size_t>(identity_col_[r]) * ub,
                  ub);
      continue;
    }
    gf::zero_region(dst, ub);
    for (std::size_t c : support_[r])
      gf::mul_add_region(g_.at(r, c), data.data() + c * ub, dst, ub);
  }
}

void LinearCode::encode_block_dense(std::size_t id,
                                    std::span<const Byte> data,
                                    std::span<Byte> out) const {
  const std::size_t ub = data.size() / message_units();
  assert(out.size() == s_ * ub);
  // Zero coefficients still pay a full region pass (into a scratch buffer,
  // to keep the output identical) — the same kernels as the sparse path, so
  // the comparison isolates exactly the zero-skip optimisation.
  std::vector<Byte> scratch(ub);
  for (std::size_t t = 0; t < s_; ++t) {
    const std::size_t r = id * s_ + t;
    Byte* dst = out.data() + t * ub;
    gf::zero_region(dst, ub);
    for (std::size_t c = 0; c < g_.cols(); ++c) {
      const Byte coeff = g_.at(r, c);
      const Byte* src = data.data() + c * ub;
      if (coeff != 0)
        gf::mul_add_region(coeff, src, dst, ub);
      else
        gf::mul_add_region(1, src, scratch.data(), ub);
    }
  }
}

IoStats LinearCode::decode(std::span<const std::size_t> ids,
                           std::span<const std::span<const Byte>> blocks,
                           std::span<Byte> data_out) const {
  if (ids.size() != k() || blocks.size() != k())
    throw std::invalid_argument("decode needs exactly k blocks");
  const std::size_t block_bytes = blocks.front().size();
  if (block_bytes % s_ != 0)
    throw std::invalid_argument("block size must be a multiple of s");
  const std::size_t ub = block_bytes / s_;
  std::vector<UnitRef> units;
  units.reserve(k() * s_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (blocks[i].size() != block_bytes)
      throw std::invalid_argument("blocks must share one size");
    for (std::size_t t = 0; t < s_; ++t)
      units.push_back({ids[i], t, blocks[i].data() + t * ub});
  }
  return decode_units(units, ub, data_out);
}

IoStats LinearCode::decode_units(std::span<const UnitRef> units,
                                 std::size_t unit_bytes,
                                 std::span<Byte> data_out) const {
  const std::size_t m = message_units();
  if (units.size() != m)
    throw std::invalid_argument("decode_units needs exactly k*s units");
  if (data_out.size() != m * unit_bytes)
    throw std::invalid_argument("output buffer has wrong size");
  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.decode_seconds);

  // Systematic fast path bookkeeping: units that are verbatim message units
  // are copied; only the rest participate in region arithmetic.
  std::vector<bool> have(m, false);
  Matrix a(m, m);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto& u = units[i];
    if (u.block >= n() || u.pos >= s_)
      throw std::invalid_argument("unit reference out of range");
    auto row = unit_row(u.block, u.pos);
    std::copy(row.begin(), row.end(), a.row(i).begin());
  }
  auto inv = a.inverse();
  if (!inv)
    throw std::runtime_error(
        "decode_units: selected units are not jointly decodable (singular "
        "system)");

  IoStats stats;
  stats.bytes_read = units.size() * unit_bytes;
  {
    std::vector<bool> seen(n(), false);
    for (const auto& u : units)
      if (!seen[u.block]) {
        seen[u.block] = true;
        ++stats.sources;
      }
  }
  ins.decode_bytes_read->inc(stats.bytes_read);

  // First copy verbatim message units (identity generator rows), then solve
  // the rest through the inverse, skipping already-copied outputs.
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto& u = units[i];
    std::ptrdiff_t col = identity_col_[u.block * s_ + u.pos];
    if (col < 0) continue;
    std::memcpy(data_out.data() + static_cast<std::size_t>(col) * unit_bytes,
                u.bytes, unit_bytes);
    have[static_cast<std::size_t>(col)] = true;
  }
  for (std::size_t msg = 0; msg < m; ++msg) {
    if (have[msg]) continue;
    Byte* dst = data_out.data() + msg * unit_bytes;
    gf::zero_region(dst, unit_bytes);
    for (std::size_t i = 0; i < m; ++i) {
      Byte c = inv->at(msg, i);
      if (c != 0) gf::mul_add_region(c, units[i].bytes, dst, unit_bytes);
    }
  }
  return stats;
}

std::optional<ReadPlan> LinearCode::plan_read(
    const std::vector<bool>& usable) const {
  if (usable.size() != n())
    throw std::invalid_argument("plan_read needs one usable flag per block");
  const std::size_t m = message_units();
  matrix::EchelonBasis basis(m);
  ReadPlan plan(n());
  // Pass 1: every verbatim message unit, once each.
  std::vector<bool> have(m, false);
  for (std::size_t b = 0; b < n(); ++b) {
    if (!usable[b]) continue;
    for (std::size_t t = 0; t < s_; ++t) {
      const std::ptrdiff_t col = identity_col_[b * s_ + t];
      if (col < 0 || have[static_cast<std::size_t>(col)]) continue;
      have[static_cast<std::size_t>(col)] = true;
      basis.try_insert(unit_row(b, t));
      plan[b].push_back(t);
    }
  }
  // Pass 2: complete the rank with the fewest parity units.
  for (std::size_t b = 0; b < n() && !basis.full(); ++b) {
    if (!usable[b]) continue;
    for (std::size_t t = 0; t < s_ && !basis.full(); ++t)
      if (identity_col_[b * s_ + t] < 0 && basis.try_insert(unit_row(b, t)))
        plan[b].push_back(t);
  }
  if (!basis.full()) return std::nullopt;
  for (auto& positions : plan) std::sort(positions.begin(), positions.end());
  return plan;
}

IoStats LinearCode::decode_stripe(
    std::span<const std::span<const Byte>> blocks,
    std::span<Byte> data_out) const {
  if (blocks.size() != n())
    throw std::invalid_argument("decode_stripe needs n block spans");
  std::vector<bool> usable(n());
  std::size_t block_bytes = 0;
  for (std::size_t b = 0; b < n(); ++b) {
    usable[b] = !blocks[b].empty();
    if (!usable[b]) continue;
    if (block_bytes == 0) block_bytes = blocks[b].size();
    if (blocks[b].size() != block_bytes)
      throw std::invalid_argument("blocks must share one size");
  }
  if (block_bytes % s_ != 0)
    throw std::invalid_argument("block size must be a multiple of s");
  const auto plan = plan_read(usable);
  if (!plan)
    throw std::runtime_error(
        "decode_stripe: the usable blocks do not span the message");
  const std::size_t ub = block_bytes / s_;
  std::vector<UnitRef> units;
  units.reserve(message_units());
  for (std::size_t b = 0; b < n(); ++b)
    for (std::size_t t : (*plan)[b])
      units.push_back({b, t, blocks[b].data() + t * ub});
  return decode_units(units, ub, data_out);
}

IoStats LinearCode::project_units(std::span<const UnitRef> sources,
                                  std::size_t unit_bytes, std::size_t target,
                                  std::span<Byte> out) const {
  const std::size_t m = message_units();
  if (sources.size() != m)
    throw std::invalid_argument("project_units needs exactly k*s units");
  if (target >= n()) throw std::invalid_argument("target block out of range");
  if (out.size() != s_ * unit_bytes)
    throw std::invalid_argument("output must be one full block");
  const auto& ins = instruments();
  obs::ScopedTimer timer(*ins.repair_seconds);

  Matrix a(m, m);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto& u = sources[i];
    if (u.block >= n() || u.pos >= s_)
      throw std::invalid_argument("unit reference out of range");
    if (u.block == target)
      throw std::invalid_argument("target block cannot be its own source");
    auto row = unit_row(u.block, u.pos);
    std::copy(row.begin(), row.end(), a.row(i).begin());
  }
  auto inv = a.inverse();
  if (!inv)
    throw std::runtime_error(
        "project_units: source units are not jointly decodable");

  IoStats stats;
  stats.bytes_read = sources.size() * unit_bytes;
  {
    std::vector<bool> seen(n(), false);
    for (const auto& u : sources)
      if (!seen[u.block]) {
        seen[u.block] = true;
        ++stats.sources;
      }
  }
  ins.repair_bytes_read->inc(stats.bytes_read);
  // Combination row for target unit t: G_row(target, t) * inv.  The
  // generator row is sparse (<= k*alpha nonzeros), so each combination costs
  // one sparse vector-matrix product on small matrices plus the region work.
  for (std::size_t t = 0; t < s_; ++t) {
    const std::size_t r = target * s_ + t;
    std::vector<Byte> comb(m, 0);
    for (std::size_t c : support_[r]) {
      Byte g = g_.at(r, c);
      for (std::size_t j = 0; j < m; ++j)
        comb[j] ^= gf::mul(g, inv->at(c, j));
    }
    Byte* dst = out.data() + t * unit_bytes;
    gf::zero_region(dst, unit_bytes);
    for (std::size_t j = 0; j < m; ++j)
      if (comb[j] != 0)
        gf::mul_add_region(comb[j], sources[j].bytes, dst, unit_bytes);
  }
  return stats;
}

}  // namespace carousel::codes
