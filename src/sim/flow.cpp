#include "sim/flow.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace carousel::sim {

namespace {
// Flows within a quarter byte of done are done: avoids float-dust events.
constexpr double kDoneEpsilon = 0.25;
}  // namespace

ResourceId FlowNetwork::add_resource(double capacity_bps) {
  if (capacity_bps <= 0)
    throw std::invalid_argument("resource capacity must be positive");
  capacity_.push_back(capacity_bps);
  return capacity_.size() - 1;
}

FlowId FlowNetwork::start_flow(double bytes, std::vector<ResourceId> path,
                               std::function<void(Time)> on_done) {
  if (path.empty())
    throw std::invalid_argument("a flow needs at least one resource");
  for (ResourceId r : path)
    if (r >= capacity_.size())
      throw std::invalid_argument("unknown resource in flow path");
  FlowId id = next_flow_id_++;
  if (bytes <= 0) {
    sim_.after(0, [cb = std::move(on_done), &sim = sim_] {
      if (cb) cb(sim.now());
    });
    return id;
  }
  settle_progress();
  flows_.push_back({id, bytes, std::move(path), 0, std::move(on_done)});
  recompute_rates();
  schedule_next_completion();
  return id;
}

double FlowNetwork::flow_rate(FlowId id) const {
  for (const auto& f : flows_)
    if (f.id == id) return f.rate;
  return 0;
}

void FlowNetwork::settle_progress() {
  const Time now = sim_.now();
  const double dt = now - last_settle_;
  if (dt > 0)
    for (auto& f : flows_) f.remaining = std::max(0.0, f.remaining - f.rate * dt);
  last_settle_ = now;
}

void FlowNetwork::recompute_rates() {
  // Water-filling: repeatedly find the tightest resource (least fair share
  // among its unfrozen flows), freeze those flows at that share.
  std::vector<double> residual = capacity_;
  std::vector<bool> frozen(flows_.size(), false);
  std::size_t remaining = flows_.size();
  for (auto& f : flows_) f.rate = 0;

  while (remaining > 0) {
    // Count unfrozen flows per resource.
    std::vector<std::size_t> load(capacity_.size(), 0);
    for (std::size_t i = 0; i < flows_.size(); ++i)
      if (!frozen[i])
        for (ResourceId r : flows_[i].path) ++load[r];
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_r = capacity_.size();
    for (std::size_t r = 0; r < capacity_.size(); ++r) {
      if (load[r] == 0) continue;
      double share = residual[r] / static_cast<double>(load[r]);
      if (share < best_share) {
        best_share = share;
        best_r = r;
      }
    }
    assert(best_r != capacity_.size());
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (frozen[i]) continue;
      if (std::find(flows_[i].path.begin(), flows_[i].path.end(), best_r) ==
          flows_[i].path.end())
        continue;
      frozen[i] = true;
      --remaining;
      flows_[i].rate = best_share;
      for (ResourceId r : flows_[i].path) residual[r] -= best_share;
    }
    // Guard against negative dust.
    for (auto& res : residual) res = std::max(res, 0.0);
  }
}

void FlowNetwork::schedule_next_completion() {
  ++epoch_;
  if (flows_.empty()) return;
  double dt = std::numeric_limits<double>::infinity();
  for (const auto& f : flows_)
    if (f.rate > 0) dt = std::min(dt, f.remaining / f.rate);
  assert(dt < std::numeric_limits<double>::infinity());
  sim_.after(dt, [this, e = epoch_] { on_completion_event(e); });
}

void FlowNetwork::on_completion_event(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // superseded by a newer recompute
  settle_progress();
  std::vector<std::function<void(Time)>> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->remaining <= kDoneEpsilon) {
      if (it->on_done) done.push_back(std::move(it->on_done));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  recompute_rates();
  schedule_next_completion();
  const Time now = sim_.now();
  for (auto& cb : done) cb(now);
}

}  // namespace carousel::sim
