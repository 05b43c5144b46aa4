#include "net/scrubber.h"

#include <optional>

#include "net/cluster.h"
#include "net/repair_scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace carousel::net {

Scrubber::Scrubber(CarouselStore& store, Options options)
    : store_(store),
      options_(options),
      loop_(options.interval, [this] { run_once(); }) {
  auto& reg = store.metrics();
  sweeps_total_ = &reg.counter("carousel_scrubber_sweeps_total");
  blocks_checked_total_ =
      &reg.counter("carousel_scrubber_blocks_checked_total");
  repairs_total_ = &reg.counter("carousel_scrubber_repairs_total");
  repair_failures_total_ =
      &reg.counter("carousel_scrubber_repair_failures_total");
  repair_bytes_total_ = &reg.counter("carousel_scrubber_repair_bytes_total");
  rehomes_total_ = &reg.counter("carousel_scrubber_rehomes_total");
  rehome_failures_total_ =
      &reg.counter("carousel_scrubber_rehome_failures_total");
  enqueued_total_ = &reg.counter("carousel_scrubber_enqueued_total");
  sweep_seconds_ = &reg.histogram("carousel_scrub_sweep_seconds");
  last_sweep_unhealthy_ = &reg.gauge("carousel_scrubber_last_sweep_unhealthy");
  last_sweep_repair_bytes_ =
      &reg.gauge("carousel_scrubber_last_sweep_repair_bytes");
  pending_rehomes_ = &reg.gauge("carousel_cluster_pending_rehomes");
}

Scrubber::Stats Scrubber::run_once() {
  obs::ScopedTimer sweep_timer(*sweep_seconds_);
  Stats sweep;
  sweep.sweeps = 1;
  std::uint64_t rehomes_enqueued = 0;  // dead-home blocks left queued
  // Crash-recovered intents first: an orphan adopted here is a stripe the
  // verify pass below never has to heal, and an orphan deleted here never
  // shadows a real placement.  No-op unless a replay left pending intents.
  try {
    store_.reconcile();
  } catch (const Error&) {
    // A mid-reconcile failure (e.g. journal I/O) skips the rest of this
    // pass; unresolved intents stay journaled and the next replay recovers
    // them.  The verify pass below still runs either way.
  }
  const std::size_t n = store_.code().n();
  for (const auto& [file_id, info] : store_.files()) {
    for (std::size_t s = 0; s < info.stripes; ++s) {
      const auto stripe = static_cast<std::uint32_t>(s);
      // Pass 1: verify the whole stripe before healing any of it, so every
      // heal below knows the stripe's full erasure count (the scheduler's
      // criticality).  Healing a block never changes a sibling's verify
      // verdict, so splitting the passes leaves sweep stats unchanged.
      std::vector<BlockState> states(n, BlockState::kOk);
      std::uint32_t erasures = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ++sweep.blocks_checked;
        states[i] =
            store_.verify_block(file_id, stripe, static_cast<std::uint32_t>(i));
        if (states[i] == BlockState::kOk)
          ++sweep.ok;
        else
          ++erasures;
      }
      // Pass 2: act on each unhealthy block independently, in index order.
      // Every block gets its own try/catch and its own counter — one
      // block's failed heal (or rehome) never short-circuits its siblings.
      for (std::size_t i = 0; i < n; ++i) {
        const auto index = static_cast<std::uint32_t>(i);
        auto kind = RepairScheduler::Kind::kRepair;
        std::optional<std::size_t> dead_home;
        switch (states[i]) {
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
            break;
          }
        }
        const bool rehome = kind == RepairScheduler::Kind::kRehome;
        if (options_.scheduler != nullptr) {
          options_.scheduler->enqueue(
              CarouselStore::BlockRef{file_id, stripe, index}, kind, erasures,
              dead_home);
          ++sweep.enqueued;
          if (rehome) ++rehomes_enqueued;
          continue;
        }
        try {
          sweep.repair_bytes +=
              rehome ? store_.rehome_block(file_id, stripe, index)
                     : store_.repair_block(file_id, stripe, index);
          ++(rehome ? sweep.rehomes : sweep.repairs);
        } catch (const std::exception&) {
          ++(rehome ? sweep.rehome_failures : sweep.repair_failures);
        }
      }
    }
  }
  sweeps_total_->inc();
  blocks_checked_total_->inc(sweep.blocks_checked);
  repairs_total_->inc(sweep.repairs);
  repair_failures_total_->inc(sweep.repair_failures);
  repair_bytes_total_->inc(sweep.repair_bytes);
  rehomes_total_->inc(sweep.rehomes);
  rehome_failures_total_->inc(sweep.rehome_failures);
  enqueued_total_->inc(sweep.enqueued);
  last_sweep_unhealthy_->set(static_cast<double>(
      sweep.missing_found + sweep.corrupt_found + sweep.unreachable));
  last_sweep_repair_bytes_->set(static_cast<double>(sweep.repair_bytes));
  // Blocks this sweep left on a bad home: skipped (home not declared dead
  // yet), attempted and failed, or handed to the scheduler and still
  // queued.  Zero once the cluster has healed.
  pending_rehomes_->set(static_cast<double>(
      sweep.unreachable + sweep.rehome_failures + rehomes_enqueued));

  util::MutexLock lock(mu_);
  total_.sweeps += sweep.sweeps;
  total_.blocks_checked += sweep.blocks_checked;
  total_.ok += sweep.ok;
  total_.missing_found += sweep.missing_found;
  total_.corrupt_found += sweep.corrupt_found;
  total_.unreachable += sweep.unreachable;
  total_.repairs += sweep.repairs;
  total_.repair_failures += sweep.repair_failures;
  total_.repair_bytes += sweep.repair_bytes;
  total_.rehomes += sweep.rehomes;
  total_.rehome_failures += sweep.rehome_failures;
  total_.enqueued += sweep.enqueued;
  return sweep;
}

Scrubber::Stats Scrubber::stats() const {
  util::MutexLock lock(mu_);
  return total_;
}

}  // namespace carousel::net
