// Unified metrics layer for the Carousel stack.
//
// A MetricsRegistry is a named collection of three instrument kinds, all
// safe to update from any number of threads:
//   Counter   — monotonically increasing u64 (relaxed atomic add);
//   Gauge     — a settable double (last-write-wins, CAS for add());
//   Histogram — fixed-bucket distribution with atomic per-bucket counts,
//               Prometheus "le" semantics (value <= bound lands in bucket).
//
// Instruments are created on first lookup and live as long as the registry,
// so call sites may cache the returned references — updates are then one
// relaxed atomic op, cheap enough for the GF region kernels.  Reads go
// through snapshot(): a consistent copy decoupled from concurrent writers,
// renderable as a Prometheus text dump (the kMetrics wire op) or as JSON
// (what the benches embed next to their timings).
//
// Naming scheme (documented in DESIGN.md): carousel_<subsystem>_<what>[_unit]
// with an optional trailing {label="value",...} group, e.g.
//   carousel_server_op_seconds{op="get"}
//   carousel_gf_kernel_calls_total{backend="gfni",kernel="mul_add"}
// The renderers understand the brace suffix and merge histogram "le" labels
// into it, so the text dump is Prometheus-parseable as-is.  The grammar is
// enforced twice: statically over string literals by
// tools/check_invariants.py, and at instrument creation for any name in the
// carousel_ namespace (a malformed name throws std::invalid_argument before
// it can pollute the exposition).  Names outside carousel_ are exempt, so
// tests and scratch registries can use short names.
//
// Most of the stack shares one process-wide registry (MetricsRegistry::
// global()); components that need isolated numbers — each BlockServer, a
// CarouselStore under test — own or accept their own instance.

#ifndef CAROUSEL_OBS_METRICS_H
#define CAROUSEL_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

namespace carousel::obs {

/// Monotonically increasing event/byte count.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept {
    v_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, ratios).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket distribution.  Bounds are ascending upper limits; an
/// implicit +inf bucket catches the overflow, so buckets() has
/// bounds().size() + 1 entries.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Default latency ladder: 1 us .. 10 s on a 1-2-5 progression.
  static std::span<const double> latency_buckets_seconds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The one histogram-quantile rule: the upper bound of the bucket holding
/// the q-quantile of per-bucket counts (`buckets` has bounds.size() + 1
/// entries, the last the +inf bucket), i.e. the first bucket whose
/// cumulative count reaches rank max(1, ceil(q * total)).  The +inf bucket
/// has no bound and scores 10x the top one.  nullopt when every count is 0.
std::optional<double> quantile_upper_bound(
    std::span<const double> bounds, std::span<const std::uint64_t> buckets,
    double q);

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // per-bucket (not cumulative)
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of a whole registry, decoupled from writers.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Prometheus text exposition of this snapshot.
  std::string render_prometheus() const;
  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string render_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; the reference stays valid for the registry's life.
  Counter& counter(std::string_view name) EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) EXCLUDES(mu_);
  /// `bounds` is consulted only on first creation; empty = default latency
  /// ladder.
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = {}) EXCLUDES(mu_);

  /// Copies every instrument under the lock and returns the detached copy;
  /// rendering (render_prometheus/render_json on the Snapshot) runs with no
  /// registry lock held, so a slow scrape never stalls instrument creation.
  Snapshot snapshot() const EXCLUDES(mu_);
  std::string render_prometheus() const EXCLUDES(mu_) {
    return snapshot().render_prometheus();
  }
  std::string render_json() const EXCLUDES(mu_) {
    return snapshot().render_json();
  }

  /// Debug hook for the snapshot-on-read isolation tests: true when the
  /// calling thread holds the registry lock.  Assert with it, never branch.
  bool lock_held_by_current_thread() const {
    return mu_.held_by_current_thread();
  }

  /// The process-wide registry most of the stack reports into.
  static MetricsRegistry& global();

 private:
  mutable util::Mutex mu_{util::LockRank::kMetrics};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

/// Builds `base{label="value"}`, merging into an existing {...} suffix —
/// the one sanctioned way to attach labels to metric names.
std::string labeled(std::string_view base, std::string_view label,
                    std::string_view value);

}  // namespace carousel::obs

#endif  // CAROUSEL_OBS_METRICS_H
