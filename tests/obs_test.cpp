// Observability-layer tests: registry semantics under concurrency, histogram
// bucket boundaries, snapshot isolation, the scoped timer, and the kMetrics
// wire op end to end against a live BlockServer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/block_server.h"
#include "net/client.h"
#include "net/errors.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace carousel::obs {
namespace {

TEST(Counter, ConcurrentIncrementsNeverLoseUpdates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c_total");
  constexpr int kThreads = 8, kIncs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kIncs);
  c.inc(58);
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kIncs + 58);
}

TEST(Gauge, ConcurrentAddsSumExactly) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("g");
  constexpr int kThreads = 8, kAdds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&g] {
      for (int i = 0; i < kAdds; ++i) g.add(1.0);
    });
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(g.value(), double(kThreads) * kAdds);
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(HistogramTest, BucketBoundariesUseLeSemantics) {
  // Bounds are inclusive upper limits (Prometheus "le"): a value equal to a
  // bound lands in that bound's bucket, values past the last bound in +inf.
  Histogram h({1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 5.0, 7.0}) h.observe(v);
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0.5, 1.0
  EXPECT_EQ(h.bucket(1), 2u);  // 1.5, 2.0
  EXPECT_EQ(h.bucket(2), 1u);  // 5.0
  EXPECT_EQ(h.bucket(3), 1u);  // 7.0 -> +inf
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 17.0);
}

TEST(HistogramTest, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, EmptyBoundsGetDefaultLatencyLadder) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_seconds");
  EXPECT_EQ(h.bounds().size(),
            Histogram::latency_buckets_seconds().size());
  EXPECT_DOUBLE_EQ(h.bounds().front(), 1e-6);
  EXPECT_DOUBLE_EQ(h.bounds().back(), 10.0);
}

TEST(HistogramTest, ConcurrentObservesConserveCount) {
  Histogram h({0.5});
  constexpr int kThreads = 8, kObs = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) h.observe(t % 2 ? 0.25 : 0.75);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), std::uint64_t(kThreads) * kObs);
  EXPECT_EQ(h.bucket(0) + h.bucket(1), h.count());
  EXPECT_EQ(h.bucket(0), std::uint64_t(kThreads) / 2 * kObs);
}

// quantile_upper_bound over a live histogram's per-bucket counts.
std::optional<double> quantile(const Histogram& h, double q) {
  std::vector<std::uint64_t> buckets(h.bounds().size() + 1);
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] = h.bucket(i);
  return quantile_upper_bound(h.bounds(), buckets, q);
}

TEST(HistogramQuantile, EmptyHistogramHasNoQuantile) {
  Histogram h({1.0, 2.0});
  EXPECT_FALSE(quantile(h, 0.5).has_value());
}

TEST(HistogramQuantile, ValueOnABoundReportsThatBound) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(2.0);  // le semantics: the 2.0 bucket, not the next one
  h.observe(2.0);
  for (double q : {0.5, 0.95, 0.99}) EXPECT_EQ(quantile(h, q), 2.0) << q;
}

TEST(HistogramQuantile, SingleSampleIsEveryQuantile) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(1.5);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(quantile(h, q), 2.0) << q;
}

TEST(HistogramQuantile, AllSamplesInInfScoreTenTimesTheTopBound) {
  Histogram h({1.0, 2.0, 5.0});
  for (int i = 0; i < 7; ++i) h.observe(9.0);
  for (double q : {0.5, 0.95, 0.99}) EXPECT_EQ(quantile(h, q), 50.0) << q;
}

TEST(HistogramQuantile, RankIsCeilOfQTimesTotal) {
  // 100 samples: 50 in (0, 1], 45 in (1, 2], 4 in (2, 5], 1 past 5.
  Histogram h({1.0, 2.0, 5.0});
  for (int i = 0; i < 50; ++i) h.observe(0.5);
  for (int i = 0; i < 45; ++i) h.observe(1.5);
  for (int i = 0; i < 4; ++i) h.observe(3.0);
  h.observe(8.0);
  EXPECT_EQ(quantile(h, 0.5), 1.0);    // rank 50: the last (0, 1] sample
  EXPECT_EQ(quantile(h, 0.95), 2.0);   // rank 95
  EXPECT_EQ(quantile(h, 0.99), 5.0);   // rank 99
  EXPECT_EQ(quantile(h, 1.0), 50.0);   // rank 100: the +inf sample
  // 51 samples in (0, 1] from here on; the median's rank walks past them.
  h.observe(0.5);  // 101 samples: rank ceil(50.5) = 51
  EXPECT_EQ(quantile(h, 0.5), 1.0);
  h.observe(1.5);  // 102: rank 51
  EXPECT_EQ(quantile(h, 0.5), 1.0);
  h.observe(1.5);  // 103: rank ceil(51.5) = 52
  EXPECT_EQ(quantile(h, 0.5), 2.0);
}

TEST(Registry, InstrumentReferencesAreStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same");
  Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = reg.histogram("h", std::vector<double>{1.0});
  Histogram& h2 = reg.histogram("h", std::vector<double>{9.0, 10.0});
  EXPECT_EQ(&h1, &h2);  // bounds consulted only on first creation
  ASSERT_EQ(h2.bounds().size(), 1u);
}

TEST(Registry, SnapshotIsIsolatedFromLaterWrites) {
  MetricsRegistry reg;
  Counter& c = reg.counter("writes_total");
  Histogram& h = reg.histogram("h", std::vector<double>{1.0});
  c.inc(5);
  h.observe(0.5);
  Snapshot snap = reg.snapshot();
  // Mutate heavily after the snapshot: it must not move.
  c.inc(1000);
  for (int i = 0; i < 100; ++i) h.observe(2.0);
  reg.counter("appears_later_total").inc();
  EXPECT_EQ(snap.counters.at("writes_total"), 5u);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.counters.count("appears_later_total"), 0u);
  // And a fresh snapshot sees everything.
  Snapshot now = reg.snapshot();
  EXPECT_EQ(now.counters.at("writes_total"), 1005u);
  EXPECT_EQ(now.histograms.at("h").count, 101u);
  EXPECT_EQ(now.counters.at("appears_later_total"), 1u);
}

TEST(Registry, SnapshotAndRenderNeverHoldTheRegistryLock) {
  // The snapshot-then-render contract (DESIGN.md §11): snapshot() copies
  // under the registry mutex and returns a detached value, so Prometheus/
  // JSON rendering — and any caller code consuming the snapshot — runs
  // with no registry lock held.  An exporter must never be able to stall
  // a request path mid-scrape.
  MetricsRegistry reg;
  reg.counter("scrape_total").inc(3);
  reg.histogram("scrape_seconds").observe(0.25);
  ASSERT_FALSE(reg.lock_held_by_current_thread());
  Snapshot snap = reg.snapshot();
  EXPECT_FALSE(reg.lock_held_by_current_thread());
  std::string prom = reg.render_prometheus();
  EXPECT_FALSE(reg.lock_held_by_current_thread());
  std::string json = reg.render_json();
  EXPECT_FALSE(reg.lock_held_by_current_thread());
  EXPECT_NE(prom.find("scrape_total 3"), std::string::npos);
  EXPECT_NE(json.find("scrape_total"), std::string::npos);
  EXPECT_EQ(snap.counters.at("scrape_total"), 3u);
}

TEST(Registry, RenderingRacesMutationWithoutTearing) {
  // Scrapes and instrument traffic run concurrently: renders happen on a
  // detached copy, so heavy mutation alongside must neither deadlock nor
  // produce a half-written exposition (TSan-visible if the copy leaked a
  // reference into the registry's maps).
  MetricsRegistry reg;
  Counter& c = reg.counter("race_total");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      c.inc();
      reg.gauge("race_gauge").add(1.0);
    }
  });
  for (int i = 0; i < 200; ++i) {
    std::string prom = reg.render_prometheus();
    EXPECT_NE(prom.find("race_total"), std::string::npos);
    Snapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.counters.contains("race_total"));
  }
  stop.store(true);
  writer.join();
  EXPECT_FALSE(reg.lock_held_by_current_thread());
}

TEST(Registry, LabeledBuildsAndMergesBraceSuffixes) {
  EXPECT_EQ(labeled("a", "k", "v"), "a{k=\"v\"}");
  EXPECT_EQ(labeled("a{x=\"1\"}", "k", "v"), "a{x=\"1\",k=\"v\"}");
}

// Runtime twin of the tools/check_invariants.py metric-naming lint: names in
// the carousel_ namespace must follow the documented grammar the moment they
// register, so a dynamically composed bad name cannot pollute the exposition.
TEST(Registry, CarouselNamespaceNamesMustFollowTheGrammar) {
  MetricsRegistry reg;
  EXPECT_NO_THROW(reg.counter("carousel_server_requests_total"));
  EXPECT_NO_THROW(reg.counter(
      labeled("carousel_gf_kernel_calls_total", "backend", "gfni")));
  EXPECT_NO_THROW(reg.gauge("carousel_server_blocks"));
  EXPECT_NO_THROW(reg.histogram("carousel_store_put_seconds"));

  // Counters must end _total, histograms _seconds.
  EXPECT_THROW(reg.counter("carousel_server_requests"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("carousel_store_put_ms"), std::invalid_argument);
  // Lowercase words, at least carousel_<subsystem>_<what>.
  EXPECT_THROW(reg.counter("carousel_Server_requests_total"),
               std::invalid_argument);
  EXPECT_THROW(reg.counter("carousel_total"), std::invalid_argument);
  EXPECT_THROW(reg.counter("carousel_a__b_total"), std::invalid_argument);
  // Label keys are lowercase words, values double-quoted.
  EXPECT_THROW(reg.counter("carousel_server_requests_total{Op=\"get\"}"),
               std::invalid_argument);
  EXPECT_THROW(reg.counter("carousel_server_requests_total{op=get}"),
               std::invalid_argument);

  // A rejected name must not leave a half-registered instrument behind.
  EXPECT_THROW(reg.counter("carousel_server_requests"), std::invalid_argument);
  EXPECT_EQ(reg.snapshot().counters.count("carousel_server_requests"), 0u);

  // Names outside the carousel_ namespace (tests, scratch registries) are
  // exempt.
  EXPECT_NO_THROW(reg.counter("short_total"));
  EXPECT_NO_THROW(reg.gauge("g"));
  EXPECT_NO_THROW(reg.histogram("h"));
}

TEST(Registry, PrometheusRenderingIsCumulativeAndLabeled) {
  MetricsRegistry reg;
  reg.counter("jobs_total").inc(3);
  reg.gauge("depth").set(1.5);
  Histogram& h =
      reg.histogram("op_seconds{op=\"get\"}", std::vector<double>{1.0, 2.0});
  h.observe(0.5);
  h.observe(3.0);
  std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("jobs_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("depth 1.5\n"), std::string::npos);
  // Histogram series: cumulative buckets, le merged into the label group.
  EXPECT_NE(text.find("op_seconds_bucket{op=\"get\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("op_seconds_bucket{op=\"get\",le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("op_seconds_bucket{op=\"get\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("op_seconds_sum{op=\"get\"} 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("op_seconds_count{op=\"get\"} 2\n"), std::string::npos);
}

TEST(Registry, JsonRenderingHasAllThreeSections) {
  MetricsRegistry reg;
  reg.counter("c_total").inc(7);
  reg.gauge("g").set(2.0);
  reg.histogram("h", std::vector<double>{1.0}).observe(0.5);
  std::string json = reg.render_json();
  EXPECT_NE(json.find("\"counters\":{\"c_total\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"g\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"bounds\":[1],\"buckets\":[1,0],\"count\":1"),
            std::string::npos);
}

TEST(Trace, ScopedTimerObservesOnceIntoHistogram) {
  Histogram h({1e-9, 1.0});
  {
    ScopedTimer timer(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    double s = timer.stop();
    EXPECT_GE(s, 0.009);
    EXPECT_LT(s, 5.0);
  }  // stop() already observed; destructor must not observe again
  EXPECT_EQ(h.count(), 1u);
  { ScopedTimer timer(h); }  // destructor path
  EXPECT_EQ(h.count(), 2u);
}

// ---- kMetrics wire op against a live server --------------------------------

TEST(MetricsWireOp, ServerExposesPerOpTelemetry) {
  net::BlockServer server;
  net::Client client(server.port());
  net::BlockKey key{1, 0, 0};
  auto data = test::random_bytes(2048, 61);
  client.ping();
  client.put(key, data);
  ASSERT_TRUE(client.get(key).has_value());
  ASSERT_TRUE(client.get(key).has_value());

  std::string text = client.metrics_text();
  // Request counters, one series per op.
  EXPECT_NE(text.find("carousel_server_requests_total{op=\"ping\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("carousel_server_requests_total{op=\"put\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("carousel_server_requests_total{op=\"get\"} 2\n"),
            std::string::npos);
  // Latency histograms render as Prometheus series with merged le labels.
  EXPECT_NE(text.find("carousel_server_op_seconds_bucket{op=\"put\",le=\""),
            std::string::npos);
  EXPECT_NE(text.find("carousel_server_op_seconds_count{op=\"put\"} 1\n"),
            std::string::npos);
  // Storage gauges track the put.
  EXPECT_NE(text.find("carousel_server_blocks 1\n"), std::string::npos);
  EXPECT_NE(text.find("carousel_server_stored_bytes 2048\n"),
            std::string::npos);
  // The dump appends the process-global registry: client-side mirrors of the
  // very ops above are part of the same document.
  EXPECT_NE(text.find("carousel_client_op_seconds_bucket{op=\"put\",le=\""),
            std::string::npos);
}

TEST(MetricsWireOp, MetricsCountsItselfAndTracksDeletes) {
  net::BlockServer server;
  net::Client client(server.port());
  net::BlockKey key{2, 0, 0};
  client.put(key, test::random_bytes(512, 62));
  ASSERT_TRUE(client.remove(key));
  std::string first = client.metrics_text();
  EXPECT_NE(first.find("carousel_server_blocks 0\n"), std::string::npos);
  EXPECT_NE(first.find("carousel_server_stored_bytes 0\n"),
            std::string::npos);
  EXPECT_NE(first.find("carousel_server_requests_total{op=\"delete\"} 1\n"),
            std::string::npos);
  // Requests are counted before they are handled, so a METRICS dump counts
  // itself — and the next one sees both.
  EXPECT_NE(first.find("carousel_server_requests_total{op=\"metrics\"} 1\n"),
            std::string::npos);
  std::string second = client.metrics_text();
  EXPECT_NE(second.find("carousel_server_requests_total{op=\"metrics\"} 2\n"),
            std::string::npos);
}

TEST(MetricsWireOp, FaultInjectionHitsAreCounted) {
  net::BlockServer server;
  auto plan = std::make_shared<net::FaultPlan>(1);
  plan->add({.action = net::FaultAction::kRefuse,
             .op = net::Op::kPing,
             .max_hits = 2});
  server.set_fault_plan(plan);
  net::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff = std::chrono::milliseconds(1);
  net::Client client(server.port(), policy);
  EXPECT_THROW(client.ping(), net::ServerError);
  EXPECT_THROW(client.ping(), net::ServerError);
  client.ping();  // rule exhausted
  std::string text = client.metrics_text();
  EXPECT_NE(
      text.find("carousel_server_fault_injections_total{action=\"refuse\"} 2\n"),
      std::string::npos);
}

TEST(MetricsWireOp, EachServerHasIsolatedRegistry) {
  net::BlockServer a, b;
  net::Client ca(a.port()), cb(b.port());
  ca.put(net::BlockKey{3, 0, 0}, test::random_bytes(64, 63));
  cb.ping();
  std::string ta = ca.metrics_text(), tb = cb.metrics_text();
  EXPECT_NE(ta.find("carousel_server_requests_total{op=\"put\"} 1\n"),
            std::string::npos);
  EXPECT_NE(tb.find("carousel_server_requests_total{op=\"put\"} 0\n"),
            std::string::npos);
  EXPECT_EQ(a.metrics().snapshot().gauges.at("carousel_server_blocks"), 1.0);
  EXPECT_EQ(b.metrics().snapshot().gauges.at("carousel_server_blocks"), 0.0);
}

}  // namespace
}  // namespace carousel::obs
