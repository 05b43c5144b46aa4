// Coordinator metadata recovery: how fast does a crashed coordinator get
// its manifest back?  The durable-metadata layer journals every manifest
// mutation (put intents/commits, rehome flips, fleet changes) and folds the
// journal into a snapshot every `snapshot_every` records; recovery replays
// snapshot + tail.  This bench builds a realistic mutation history —
// F files put, M rehome mutations — and measures cold replay three ways:
//
//   1. journal_only  — compaction disabled: replay walks every record.
//   2. compacted     — default cadence: replay loads the snapshot and only
//                      the short tail.  This is the shape a long-lived
//                      coordinator actually restarts from.
//   3. torn_tail     — the journal_only image with garbage appended, as a
//                      crash mid-append leaves it: replay must detect the
//                      tear, quarantine the tail, and still reproduce the
//                      exact manifest.
//
// Every scenario is gated on correctness (replayed placements bit-identical
// to the pre-crash manifest) and on a wall-clock budget; the bench exits
// non-zero otherwise — the CI bench-smoke gate.
//
// Emits BENCH_meta_recovery.json (honors $CAROUSEL_BENCH_SNAPSHOT_DIR).
//
// Knobs: CAROUSEL_META_FILES (200), CAROUSEL_META_MUTATIONS (2000),
//        CAROUSEL_META_BUDGET_S (10).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/meta_log.h"
#include "obs/metrics.h"

using namespace carousel;
namespace fs = std::filesystem;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::strtoull(v, nullptr, 10) : dflt;
}

struct BenchConfig {
  std::uint32_t files;
  std::uint32_t mutations;
  double budget_s;
  std::uint32_t stripes = 2;
  std::uint32_t width = 12;  // placement row width (the code's n)
};

constexpr std::uint32_t kConfigCrc = 0xB3BCFA11;

/// Appends the whole mutation history to a fresh MetaLog in `dir`: F put
/// intent/commit pairs, then M rehome intent/commit pairs cycling over the
/// files, plus a couple of fleet/hedge records for kind coverage.  fsync is
/// off — the bench measures replay, not append latency.
void build_history(const fs::path& dir, const BenchConfig& cfg,
                   std::size_t snapshot_every) {
  net::MetaLog::Options opts;
  opts.fsync = false;
  opts.snapshot_every = snapshot_every;
  net::MetaLog log(dir, kConfigCrc, opts);
  log.add_server(40001, 0, true);
  log.add_server(40002, 1, true);
  net::HedgePolicy hedge;
  hedge.enabled = true;
  log.set_hedge(hedge);
  for (std::uint32_t f = 1; f <= cfg.files; ++f) {
    std::vector<std::vector<std::uint32_t>> placement(cfg.stripes);
    for (std::uint32_t s = 0; s < cfg.stripes; ++s)
      for (std::uint32_t i = 0; i < cfg.width; ++i)
        placement[s].push_back((i + f) % (cfg.width + 2));
    log.put_intent(f, std::uint64_t{cfg.width} << 20, cfg.stripes, placement);
    log.put_commit(f);
  }
  for (std::uint32_t m = 0; m < cfg.mutations; ++m) {
    const std::uint32_t f = 1 + m % cfg.files;
    const std::uint32_t s = m % cfg.stripes;
    const std::uint32_t i = m % cfg.width;
    const std::uint32_t target = (i + 1 + m) % (cfg.width + 2);
    log.rehome_intent(f, s, i, target);
    log.rehome_commit(f, s, i, target);
  }
}

struct ReplayResult {
  std::string name;
  net::MetaLog::ReplayReport report;
  std::uint64_t journal_bytes = 0;
  bool manifest_exact = false;
  bool within_budget = false;
};

/// Reopens the log in `dir` cold and checks the replayed placements against
/// `expected` (file -> placement table), bit for bit.
ReplayResult replay(const char* name, const fs::path& dir,
                    const BenchConfig& cfg,
                    const std::map<std::uint32_t,
                                   std::vector<std::vector<std::uint32_t>>>&
                        expected) {
  ReplayResult r;
  r.name = name;
  if (fs::exists(dir / "journal")) r.journal_bytes = fs::file_size(dir / "journal");
  net::MetaLog log(dir, kConfigCrc, {});
  r.report = log.replay_report();
  r.manifest_exact = log.state().manifest.size() == expected.size();
  for (const auto& [f, placement] : expected) {
    const auto it = log.state().manifest.find(f);
    if (it == log.state().manifest.end() || it->second.placement != placement)
      r.manifest_exact = false;
  }
  r.within_budget = r.report.seconds <= cfg.budget_s;
  return r;
}

std::string result_json(const BenchConfig& cfg,
                        const std::vector<ReplayResult>& results) {
  // All values are numbers/bools/fixed names: no escaping needed.
  std::string out = "{\n  \"config\": {";
  out += "\"files\": " + std::to_string(cfg.files);
  out += ", \"mutations\": " + std::to_string(cfg.mutations);
  out += ", \"stripes\": " + std::to_string(cfg.stripes);
  out += ", \"placement_width\": " + std::to_string(cfg.width);
  char buf[384];
  std::snprintf(buf, sizeof buf, ", \"budget_s\": %.3f},\n  \"replay\": [",
                cfg.budget_s);
  out += buf;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double rps =
        r.report.seconds > 0
            ? static_cast<double>(r.report.journal_records +
                                  r.report.skipped_records) /
                  r.report.seconds
            : 0.0;
    std::snprintf(
        buf, sizeof buf,
        "%s\n    {\"scenario\": \"%s\", \"replay_s\": %.6f, "
        "\"journal_records\": %llu, \"skipped_records\": %llu, "
        "\"journal_bytes\": %llu, \"records_per_s\": %.0f, "
        "\"snapshot_loaded\": %s, \"torn_tail\": %s, "
        "\"manifest_exact\": %s, \"within_budget\": %s}",
        i ? "," : "", r.name.c_str(), r.report.seconds,
        static_cast<unsigned long long>(r.report.journal_records),
        static_cast<unsigned long long>(r.report.skipped_records),
        static_cast<unsigned long long>(r.journal_bytes), rps,
        r.report.snapshot_loaded ? "true" : "false",
        r.report.torn_tail ? "true" : "false",
        r.manifest_exact ? "true" : "false",
        r.within_budget ? "true" : "false");
    out += buf;
  }
  out += "\n  ],\n  \"metrics\": ";
  out += obs::MetricsRegistry::global().render_json();
  out += "\n}\n";
  return out;
}

bool write_snapshot(const char* name, const std::string& json) {
  std::string path = name;
  if (const char* dir = std::getenv("CAROUSEL_BENCH_SNAPSHOT_DIR"))
    path = std::string(dir) + "/" + path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main() {
  BenchConfig cfg;
  cfg.files = static_cast<std::uint32_t>(env_u64("CAROUSEL_META_FILES", 200));
  cfg.mutations =
      static_cast<std::uint32_t>(env_u64("CAROUSEL_META_MUTATIONS", 2000));
  cfg.budget_s = static_cast<double>(env_u64("CAROUSEL_META_BUDGET_S", 10));

  const fs::path root =
      fs::temp_directory_path() /
      ("carousel_bench_meta_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  std::printf("=== Coordinator metadata recovery — %u files, %u rehome "
              "mutations ===\n\n",
              cfg.files, cfg.mutations);

  // The ground truth every replay must reproduce: the final placement of
  // every file after all mutations, computed independently of the log.
  std::map<std::uint32_t, std::vector<std::vector<std::uint32_t>>> expected;
  for (std::uint32_t f = 1; f <= cfg.files; ++f) {
    auto& placement = expected[f];
    placement.resize(cfg.stripes);
    for (std::uint32_t s = 0; s < cfg.stripes; ++s)
      for (std::uint32_t i = 0; i < cfg.width; ++i)
        placement[s].push_back((i + f) % (cfg.width + 2));
  }
  for (std::uint32_t m = 0; m < cfg.mutations; ++m) {
    const std::uint32_t f = 1 + m % cfg.files;
    expected[f][m % cfg.stripes][m % cfg.width] =
        (m % cfg.width + 1 + m) % (cfg.width + 2);
  }

  const fs::path journal_dir = root / "journal_only";
  const fs::path compacted_dir = root / "compacted";
  build_history(journal_dir, cfg, 0);    // compaction off
  build_history(compacted_dir, cfg, 64); // default cadence

  std::vector<ReplayResult> results;
  results.push_back(replay("journal_only", journal_dir, cfg, expected));
  results.push_back(replay("compacted", compacted_dir, cfg, expected));

  // A crash mid-append leaves a half-written record at the tail; replay
  // must truncate it (quarantining the bytes) and lose nothing committed.
  std::ofstream(journal_dir / "journal", std::ios::binary | std::ios::app)
      << "\x33torn-by-a-crash";
  results.push_back(replay("torn_tail", journal_dir, cfg, expected));

  std::printf("%-14s %10s %9s %9s %11s %8s %6s\n", "scenario", "records",
              "skipped", "bytes", "replay", "rec/s", "exact");
  int rc = 0;
  for (const auto& r : results) {
    const double rps =
        r.report.seconds > 0
            ? static_cast<double>(r.report.journal_records +
                                  r.report.skipped_records) /
                  r.report.seconds
            : 0.0;
    std::printf("%-14s %10llu %9llu %9llu %9.4fs %8.0f %6s%s%s\n",
                r.name.c_str(),
                static_cast<unsigned long long>(r.report.journal_records),
                static_cast<unsigned long long>(r.report.skipped_records),
                static_cast<unsigned long long>(r.journal_bytes),
                r.report.seconds, rps, r.manifest_exact ? "yes" : "NO",
                r.report.snapshot_loaded ? "  [snapshot]" : "",
                r.report.torn_tail ? "  [torn tail quarantined]" : "");
    if (!r.manifest_exact) {
      std::fprintf(stderr, "%s FAILED: replayed manifest diverged\n",
                   r.name.c_str());
      rc = 1;
    }
    if (!r.within_budget) {
      std::fprintf(stderr, "%s FAILED: replay took %.3fs (budget %.3fs)\n",
                   r.name.c_str(), r.report.seconds, cfg.budget_s);
      rc = 1;
    }
  }
  const auto& torn = results.back();
  if (!torn.report.torn_tail) {
    std::fprintf(stderr,
                 "torn_tail FAILED: the tear was not detected on replay\n");
    rc = 1;
  }
  if (!results[1].report.snapshot_loaded) {
    std::fprintf(stderr,
                 "compacted FAILED: replay did not load the snapshot\n");
    rc = 1;
  }

  if (!write_snapshot("BENCH_meta_recovery.json", result_json(cfg, results)))
    rc = 1;

  fs::remove_all(root);
  return rc;
}
