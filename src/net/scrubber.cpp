#include "net/scrubber.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carousel::net {

Scrubber::Scrubber(CarouselStore& store, Options options)
    : store_(store),
      options_(options),
      owned_(options.scheduler ? nullptr
                               : std::make_unique<RepairScheduler>(store)),
      loop_(options.interval, [this] { run_once(); }) {
  if (owned_) options_.scheduler = owned_.get();
  auto& reg = store.metrics();
  sweeps_total_ = &reg.counter("carousel_scrubber_sweeps_total");
  blocks_checked_total_ =
      &reg.counter("carousel_scrubber_blocks_checked_total");
  enqueued_total_ = &reg.counter("carousel_scrubber_enqueued_total");
  sweep_seconds_ = &reg.histogram("carousel_scrub_sweep_seconds");
  last_sweep_unhealthy_ = &reg.gauge("carousel_scrubber_last_sweep_unhealthy");
  pending_rehomes_ = &reg.gauge("carousel_cluster_pending_rehomes");
}

Scrubber::Stats Scrubber::run_once() {
  obs::ScopedTimer sweep_timer(*sweep_seconds_);
  Stats sweep;
  sweep.sweeps = 1;
  // Dead-home blocks this sweep enqueued as rehomes, with that home.
  std::vector<std::pair<CarouselStore::BlockRef, std::size_t>> rehomes;
  // Crash-recovered intents first: an orphan adopted here is a stripe the
  // probe pass below never has to heal, and an orphan deleted here never
  // shadows a real placement.  No-op unless a replay left pending intents.
  try {
    store_.reconcile();
  } catch (const Error&) {
    // A mid-reconcile failure (e.g. journal I/O) skips the rest of this
    // pass; unresolved intents stay journaled and the next replay recovers
    // them.  The probe pass below still runs either way.
  }
  for (const auto& [file_id, info] : store_.files()) {
    for (std::uint32_t stripe = 0; stripe < info.stripes; ++stripe) {
      // One probe round per stripe, so every item below carries the
      // stripe's full erasure count (the scheduler's criticality).
      const std::vector<BlockState> states =
          store_.probe_stripe(file_id, stripe);
      const auto healthy = static_cast<std::uint32_t>(
          std::ranges::count(states, BlockState::kOk));
      const auto erasures =
          static_cast<std::uint32_t>(states.size()) - healthy;
      sweep.blocks_checked += states.size();
      sweep.ok += healthy;
      for (std::uint32_t index = 0; index < states.size(); ++index) {
        auto kind = RepairScheduler::Kind::kRepair;
        std::optional<std::size_t> dead_home;
        switch (states[index]) {
          case BlockState::kOk:
            continue;
          case BlockState::kMissing:
            ++sweep.missing_found;
            break;
          case BlockState::kCorrupt:
            ++sweep.corrupt_found;
            break;
          case BlockState::kUnreachable: {
            const std::size_t home =
                store_.placement_of(file_id, stripe, index);
            if (options_.monitor == nullptr ||
                options_.monitor->state_of(home) != ServerState::kDead) {
              // Down but not declared dead (no monitor, or still kSuspect):
              // a rebuilt block has nowhere better to go — retry next sweep.
              ++sweep.unreachable;
              continue;
            }
            // The detector has given up on the home: regenerate onto a
            // placement-eligible spare (the newcomer loop).  The dead home
            // rides along so the scheduler can boost domain-correlated
            // losses ahead of scattered ones.
            kind = RepairScheduler::Kind::kRehome;
            dead_home = home;
            rehomes.push_back({{file_id, stripe, index}, home});
            break;
          }
        }
        options_.scheduler->enqueue({file_id, stripe, index}, kind, erasures,
                                    dead_home);
        ++sweep.enqueued;
      }
    }
  }
  // The owned scheduler has no gates, so this heals everything enqueued.
  if (owned_)
    while (owned_->step() == RepairScheduler::StepResult::kDispatched) {
    }
  sweeps_total_->inc();
  blocks_checked_total_->inc(sweep.blocks_checked);
  enqueued_total_->inc(sweep.enqueued);
  last_sweep_unhealthy_->set(static_cast<double>(
      sweep.missing_found + sweep.corrupt_found + sweep.unreachable));
  // Blocks this sweep left on a bad home: skipped (home not declared dead
  // yet), or enqueued as rehomes and still placed there (failed, or still
  // queued).  Zero once the cluster has healed.
  std::uint64_t stranded = sweep.unreachable;
  for (const auto& [block, home] : rehomes)
    stranded += store_.placement_of(block.file, block.stripe, block.index) ==
                home;
  pending_rehomes_->set(static_cast<double>(stranded));
  return sweep;
}

}  // namespace carousel::net
