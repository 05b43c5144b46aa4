// End-to-end and per-layer benchmark of the networked Carousel store.
//
// Drives a live in-process fleet of 12 net::BlockServers through one
// net::CarouselStore coded with Carousel(12,6,10,10), hedging off (the
// shipped default), and measures the paper's data paths from the outside:
// put, parallel read, §VII degraded read and MSR repair.  Nothing under src/
// is instrumented for it; the layers are seen through the benchmark's own
// calls into each module and through the registries the stack already keeps
// (the store's, each BlockServer's, and the process-global one).
//
//   carousel_perfbench
//       --workload bulk_rw|small_mixed_durable|degraded_repair|all
//       --seed N --seconds S --trace 0|1 [--workdir DIR] [--tiny]
//
// Every workload is a set of closed-loop client threads built from three
// roles (see Spec below):
//   writer          put a fresh file, optionally read a random live file,
//                   damage the fresh file and heal it (degraded read and/or
//                   drop -> repair_block, each repair audited with VERIFY),
//                   publish it and reclaim the oldest live file's blocks;
//   reader          read_file of a random live file;
//   degraded reader read_file of a file missing one data block per stripe.
// The seed alone decides file bytes, which files are read, which blocks go
// missing and which are repaired.  Every read is compared byte-exact with
// the seeded input; a throw, a wrong byte or a failed audit counts as a
// failed op and never aborts the run.
//
// --trace 0 prints the end-to-end metrics: per-op throughput and median
// latency over three fresh set-ups (a third of the window each), and the
// median set-up time and peak RSS of those set-ups.  --trace 1
// runs the window twice, untraced then traced (spans around every store op
// and probe, registry deltas over the traced half), and prints the
// per-layer metrics plus the tracing overhead.  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "codes/carousel.h"
#include "gf/vect.h"
#include "net/block_server.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "storage/erasure_file.h"
#include "util/crc32.h"

namespace {

using namespace carousel;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kKiB = 1024;
constexpr double kMB = 1e6;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- inputs

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a * 0x2545f4914f6cdd1dull ^ b;
  return splitmix(s);
}

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return splitmix(state); }
  std::size_t below(std::size_t n) { return next() % n; }
};

/// One stored file and the bytes it must read back as.
struct File {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> bytes;
};
using FilePtr = std::shared_ptr<const File>;

std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed, std::uint32_t id,
                                       std::size_t size) {
  std::vector<std::uint8_t> out(size);
  std::uint64_t state = mix(seed, id);
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t v = splitmix(state);
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, size - i));
  }
  return out;
}

// ------------------------------------------------------------- workloads

/// The writer role; every workload runs one writer thread.
struct WriterSpec {
  /// After each put, read_file a random live file.
  bool read_live = false;
  /// Drop one seeded data block per stripe of the fresh file, degraded-read
  /// it, then repair the dropped blocks.
  bool degraded_read_fresh = false;
  /// Then drop -> repair, one at a time, this many seeded blocks of it.
  std::size_t repairs = 0;
};

struct Spec {
  std::string name;
  bool durable = false;
  std::size_t unit_bytes = 0;  // block = s() units
  std::size_t stripes = 0;     // per file
  std::size_t live_files = 0;  // the writer's ring, read by readers
  WriterSpec writer;
  std::size_t readers = 0;
  std::size_t degraded_files = 0;  // fixed, one data block per stripe gone
  std::size_t degraded_readers = 0;
  std::size_t warmup_ops = 0;  // per thread, before timing
};

std::vector<Spec> all_specs(bool tiny) {
  std::vector<Spec> specs;
  // Blocks far beyond the CPU caches: bytes dominate (CRC, encode,
  // ErasureFile copies, socket bandwidth).
  {
    Spec s;
    s.name = "bulk_rw";
    s.unit_bytes = 256 * kKiB;
    s.stripes = 4;
    s.live_files = 3;
    s.writer = {true, true, 0};
    s.warmup_ops = 1;
    specs.push_back(s);
  }
  // Small blocks on a durable fleet: per-op fixed costs and the server mutex
  // dominate, and reads queue behind fsyncing PUTs and journal appends.
  {
    Spec s;
    s.name = "small_mixed_durable";
    s.durable = true;
    s.unit_bytes = 16 * kKiB;
    s.stripes = 1;
    s.live_files = 64;
    s.writer = {false, true, 0};
    s.readers = 3;
    s.warmup_ops = 16;
    specs.push_back(s);
  }
  // The healthy gather path bypassed: server-side PROJECT compute, the
  // serial VERIFY probes and PROJECTs of repair, and newcomer_compute.
  {
    Spec s;
    s.name = "degraded_repair";
    s.unit_bytes = 64 * kKiB;
    s.stripes = 2;
    s.live_files = 2;
    s.writer = {true, false, 8};
    s.degraded_files = 8;
    s.degraded_readers = 1;
    s.warmup_ops = 4;
    specs.push_back(s);
  }
  if (tiny)
    for (Spec& s : specs) {
      s.unit_bytes = 4 * kKiB;
      s.live_files = std::min<std::size_t>(s.live_files, 4);
      s.degraded_files = std::min<std::size_t>(s.degraded_files, 2);
      s.warmup_ops = 1;
    }
  return specs;
}

// ----------------------------------------------------------------- trace

enum Kind { kPut = 0, kRead = 1, kDegraded = 2, kRepair = 3, kKinds = 4 };
constexpr const char* kKindName[kKinds] = {"put", "read", "degraded_read",
                                           "repair"};

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
};

/// Per-thread op log and span buffer: no sharing while the window runs.
struct Worker {
  unsigned tid = 0;
  Rng rng{0};
  bool record = false;  // inside the timed window
  bool trace = false;   // spans on
  Clock::time_point trace_epoch{};
  std::vector<SpanRec> spans;
  std::uint64_t current_span = 0;
  std::uint64_t span_seq = 0;
  std::vector<double> seconds[kKinds];
  double bytes[kKinds] = {};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t repair_traffic = 0;

  void merge(const Worker& o) {
    for (int k = 0; k < kKinds; ++k) {
      seconds[k].insert(seconds[k].end(), o.seconds[k].begin(),
                        o.seconds[k].end());
      bytes[k] += o.bytes[k];
    }
    attempted += o.attempted;
    failed += o.failed;
    repair_traffic += o.repair_traffic;
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& s : seconds) n += s.size();
    return n;
  }
};

/// RAII span: records (name, start, end, parent) into the worker's buffer
/// when tracing is on; a no-op otherwise.
class Span {
 public:
  Span(Worker& w, const char* name) : w_(w) {
    if (!w_.trace) return;
    rec_.id = (std::uint64_t{w_.tid} << 40) | ++w_.span_seq;
    rec_.parent = w_.current_span;
    rec_.name = name;
    rec_.start_us = us();
    w_.current_span = rec_.id;
  }
  ~Span() {
    if (!w_.trace || rec_.id == 0) return;
    rec_.end_us = us();
    w_.current_span = rec_.parent;
    w_.spans.push_back(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     w_.trace_epoch)
        .count();
  }
  Worker& w_;
  SpanRec rec_{};
};

// ------------------------------------------------------------------- env

constexpr std::size_t kServers = 12;
/// Set-ups per untraced run; each is measured for its share of the window.
constexpr unsigned kSetups = 3;

/// Removes a directory tree when it goes out of scope (also on a throw).
class ScratchDir {
 public:
  explicit ScratchDir(fs::path p) : path_(std::move(p)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// One set-up: fleet, store, seeded stored set.  Members destroy in reverse:
/// store first, then servers, then the registry and the data directory.
struct Env {
  const Spec& spec;
  const codes::Carousel& code;
  const std::uint64_t seed;
  const std::size_t block_bytes;
  const std::size_t file_bytes;
  std::unique_ptr<ScratchDir> dir;  // durable fleets only
  obs::MetricsRegistry registry;    // store, clients, meta log
  std::vector<std::unique_ptr<net::BlockServer>> servers;
  std::unique_ptr<net::CarouselStore> store;

  std::atomic<std::uint32_t> next_id{1};
  std::mutex live_mu;
  std::vector<FilePtr> live;      // oldest first
  std::vector<FilePtr> retiring;  // unpublished, blocks dropped when unused
  std::vector<FilePtr> degraded;  // fixed set

  Env(const Spec& s, const codes::Carousel& c, std::uint64_t sd,
      const fs::path& workdir, unsigned setup_no)
      : spec(s),
        code(c),
        seed(sd),
        block_bytes(c.s() * s.unit_bytes),
        file_bytes(s.stripes * c.k() * c.s() * s.unit_bytes) {
    if (spec.durable)
      dir = std::make_unique<ScratchDir>(
          workdir / ("run-" + std::to_string(::getpid()) + "-" + spec.name +
                     "-" + std::to_string(setup_no)));
    start_fleet({});
  }
  ~Env() {
    store.reset();
    for (auto& s : servers) s->stop();
  }
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  fs::path server_dir(std::size_t i) const {
    return dir->path() / ("server-" + std::to_string(i));
  }

  /// Starts 12 servers (on `ports` when given: a restart over the same data
  /// directories) and opens the store over them.
  void start_fleet(const std::vector<std::uint16_t>& ports) {
    std::vector<std::uint16_t> bound;
    for (std::size_t i = 0; i < kServers; ++i) {
      const std::uint16_t port = ports.empty() ? 0 : ports[i];
      if (spec.durable) {
        net::PersistentBlockStore::Options persist;
        persist.fsync = true;
        servers.push_back(
            std::make_unique<net::BlockServer>(port, server_dir(i), persist));
      } else {
        servers.push_back(std::make_unique<net::BlockServer>(port));
      }
      bound.push_back(servers.back()->port());
    }
    net::StoreOptions opts;
    opts.registry = &registry;
    if (spec.durable) {
      opts.meta_dir = dir->path() / "meta";
      opts.meta_fsync = true;
    }
    store = std::make_unique<net::CarouselStore>(code, bound, block_bytes,
                                                 opts);
  }

  /// Durable fleets: drain and stop every server and the coordinator, then
  /// bring them back over the same directories — the block servers' recovery
  /// scan and the journal replay run here, inside set-up.
  void restart() {
    std::vector<std::uint16_t> ports;
    for (auto& s : servers) ports.push_back(s->port());
    store.reset();
    for (auto& s : servers) s->drain();
    servers.clear();
    start_fleet(ports);
  }

  FilePtr make_file() {
    const std::uint32_t id = next_id.fetch_add(1);
    return std::make_shared<const File>(
        File{id, seeded_bytes(seed, id, file_bytes)});
  }

  /// The seeded data block (index < p) dropped from `stripe` of file `id`.
  std::uint32_t missing_index(std::uint32_t id, std::size_t stripe) const {
    return static_cast<std::uint32_t>(mix(mix(seed, id), 0x100 + stripe) %
                                      code.p());
  }

  /// `count` distinct seeded (stripe, index) blocks of file `id`.
  std::vector<net::CarouselStore::BlockRef> repair_targets(
      std::uint32_t id, std::size_t count) const {
    std::vector<net::CarouselStore::BlockRef> all;
    for (std::uint32_t s = 0; s < spec.stripes; ++s)
      for (std::uint32_t i = 0; i < code.n(); ++i) all.push_back({id, s, i});
    Rng rng{mix(mix(seed, id), 0x200)};
    for (std::size_t i = all.size(); i > 1; --i)
      std::swap(all[i - 1], all[rng.below(i)]);
    all.resize(std::min(count, all.size()));
    return all;
  }

  void drop_file(const File& f) {
    for (std::uint32_t s = 0; s < spec.stripes; ++s)
      for (std::uint32_t i = 0; i < code.n(); ++i)
        store->drop_block(f.id, s, i);
  }

  /// Publishes a fresh file and reclaims the blocks of every retired file no
  /// reader still holds — the stored set stays at live_files files.
  void publish(FilePtr f) {
    std::vector<FilePtr> reclaim;
    {
      std::lock_guard lock(live_mu);
      live.push_back(std::move(f));
      while (live.size() > spec.live_files) {
        retiring.push_back(live.front());
        live.erase(live.begin());
      }
      auto unused = [](const FilePtr& p) { return p.use_count() == 1; };
      for (auto& p : retiring)
        if (unused(p)) reclaim.push_back(std::move(p));
      std::erase(retiring, nullptr);
    }
    for (const FilePtr& p : reclaim) drop_file(*p);
  }

  FilePtr pick_live(Rng& rng) {
    std::lock_guard lock(live_mu);
    return live[rng.below(live.size())];
  }

  void preload() {
    for (std::size_t i = 0; i < spec.live_files; ++i) {
      FilePtr f = make_file();
      store->put_file(f->id, f->bytes);
      publish(std::move(f));
    }
    for (std::size_t i = 0; i < spec.degraded_files; ++i) {
      FilePtr f = make_file();
      store->put_file(f->id, f->bytes);
      for (std::uint32_t s = 0; s < spec.stripes; ++s)
        store->drop_block(f->id, s, missing_index(f->id, s));
      degraded.push_back(std::move(f));
    }
  }
};

// ------------------------------------------------------------- the roles

/// Runs one store op, times it when the worker records, and counts a throw
/// or a false result as a failed op.
template <typename F>
bool run_op(Worker& w, Kind kind, const char* span_name, double bytes,
            F&& op) {
  bool ok = false;
  const Clock::time_point t0 = Clock::now();
  {
    Span span(w, span_name);
    try {
      ok = op();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", kKindName[kind],
                   e.what());
    }
  }
  const double dt = seconds_since(t0);
  ++w.attempted;
  if (!ok)
    ++w.failed;
  else if (w.record) {
    w.seconds[kind].push_back(dt);
    w.bytes[kind] += bytes;
  }
  return ok;
}

bool read_ok(Env& env, const File& f) {
  return env.store->read_file(f.id, f.bytes.size()) == f.bytes;
}

/// Repair one dropped block, then audit it (VERIFY, untimed).
bool repair_and_audit(Worker& w, Env& env, std::uint32_t id,
                      std::uint32_t stripe, std::uint32_t index) {
  bool audited = false;
  const bool ok = run_op(w, kRepair, "store.repair_block",
                         double(env.block_bytes), [&] {
                           const std::uint64_t traffic =
                               env.store->repair_block(id, stripe, index);
                           if (w.record) w.repair_traffic += traffic;
                           return true;
                         });
  if (ok)
    audited = env.store->verify_block(id, stripe, index) ==
              net::BlockState::kOk;
  if (ok && !audited) {
    // The op returned, but the block it rebuilt does not verify.
    ++w.failed;
    if (w.record) {
      w.seconds[kRepair].pop_back();
      w.bytes[kRepair] -= double(env.block_bytes);
    }
  }
  return ok && audited;
}

/// One writer cycle; returns early (file unpublished) once `stop` passes.
void writer_cycle(Worker& w, Env& env, Clock::time_point stop) {
  Span cycle(w, "writer.cycle");
  const WriterSpec& ws = env.spec.writer;
  FilePtr f = env.make_file();
  const double fb = double(f->bytes.size());
  if (!run_op(w, kPut, "store.put_file", fb, [&] {
        env.store->put_file(f->id, f->bytes);
        return true;
      }))
    return;
  if (ws.read_live && Clock::now() < stop) {
    FilePtr r = env.pick_live(w.rng);
    run_op(w, kRead, "store.read_file", fb, [&] { return read_ok(env, *r); });
  }
  bool healthy = true;
  if (ws.degraded_read_fresh && Clock::now() < stop) {
    std::vector<std::uint32_t> missing;
    for (std::uint32_t s = 0; s < env.spec.stripes; ++s) {
      missing.push_back(env.missing_index(f->id, s));
      env.store->drop_block(f->id, s, missing.back());
    }
    run_op(w, kDegraded, "store.read_file.degraded", fb,
           [&] { return read_ok(env, *f); });
    for (std::uint32_t s = 0; s < env.spec.stripes && healthy; ++s)
      healthy = Clock::now() < stop &&
                repair_and_audit(w, env, f->id, s, missing[s]);
  }
  for (const auto& b : env.repair_targets(f->id, ws.repairs)) {
    if (!healthy || Clock::now() >= stop) {
      healthy = false;
      break;
    }
    env.store->drop_block(b.file, b.stripe, b.index);
    healthy = repair_and_audit(w, env, b.file, b.stripe, b.index);
  }
  if (healthy)
    env.publish(std::move(f));
  else
    env.drop_file(*f);
}

void reader_op(Worker& w, Env& env, Clock::time_point) {
  FilePtr f = env.pick_live(w.rng);
  run_op(w, kRead, "store.read_file", double(f->bytes.size()),
         [&] { return read_ok(env, *f); });
}

void degraded_reader_op(Worker& w, Env& env, Clock::time_point) {
  const FilePtr& f = env.degraded[w.rng.below(env.degraded.size())];
  run_op(w, kDegraded, "store.read_file.degraded", double(f->bytes.size()),
         [&] { return read_ok(env, *f); });
}

/// Runs every role's thread until `stop` (or `ops_per_thread` ops each when
/// nonzero — the warm-up) and merges their logs into `out`.
void run_threads(Env& env, std::uint64_t stream, bool record, bool trace,
                 Clock::time_point trace_epoch, double seconds,
                 std::size_t ops_per_thread, Worker& out) {
  using Role = void (*)(Worker&, Env&, Clock::time_point);
  std::vector<Role> roles{&writer_cycle};
  roles.insert(roles.end(), env.spec.readers, &reader_op);
  roles.insert(roles.end(), env.spec.degraded_readers, &degraded_reader_op);

  std::vector<Worker> workers(roles.size());
  const Clock::time_point stop =
      ops_per_thread ? Clock::time_point::max()
                     : Clock::now() + std::chrono::duration_cast<
                                          Clock::duration>(
                                          std::chrono::duration<double>(
                                              seconds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < roles.size(); ++t) {
    Worker& w = workers[t];
    w.tid = static_cast<unsigned>(t + 1);
    w.rng = Rng{mix(mix(env.seed, stream), t)};
    w.record = record;
    w.trace = trace;
    w.trace_epoch = trace_epoch;
    threads.emplace_back([&w, &env, fn = roles[t], stop, ops_per_thread] {
      for (std::size_t i = 0;
           ops_per_thread ? i < ops_per_thread : Clock::now() < stop; ++i) {
        try {
          fn(w, env, stop);
        } catch (const std::exception& e) {
          // Housekeeping outside a timed op (drop, reclaim) failed.
          std::fprintf(stderr, "perfbench: %s\n", e.what());
          ++w.attempted;
          ++w.failed;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Worker& w : workers) out.merge(w);
}

// ------------------------------------------------------------- registries

struct Snap {
  obs::Snapshot store, global;
  std::vector<obs::Snapshot> servers;
};

Snap take(Env& env) {
  Snap s{env.store->metrics().snapshot(),
         obs::MetricsRegistry::global().snapshot(),
         {}};
  for (auto& srv : env.servers) s.servers.push_back(srv->metrics().snapshot());
  return s;
}

bool matches(std::string_view name, std::string_view prefix) {
  return name.substr(0, prefix.size()) == prefix;
}

double counter_delta(const obs::Snapshot& a, const obs::Snapshot& b,
                     std::string_view prefix) {
  double d = 0;
  for (const auto& [name, v] : b.counters)
    if (matches(name, prefix)) {
      auto it = a.counters.find(name);
      d += double(v - (it == a.counters.end() ? 0 : it->second));
    }
  return d;
}

double servers_counter_delta(const Snap& a, const Snap& b,
                             std::string_view prefix) {
  double d = 0;
  for (std::size_t i = 0; i < b.servers.size(); ++i)
    d += counter_delta(a.servers[i], b.servers[i], prefix);
  return d;
}

/// Bucket-wise difference of every histogram whose name starts with
/// `prefix`, summed.
struct HistDelta {
  std::vector<double> bounds;
  std::vector<double> buckets;
  double count = 0;
  double sum = 0;

  void add(const obs::Snapshot& a, const obs::Snapshot& b,
           std::string_view prefix) {
    for (const auto& [name, hb] : b.histograms) {
      if (!matches(name, prefix)) continue;
      auto it = a.histograms.find(name);
      if (bounds.empty()) {
        bounds = hb.bounds;
        buckets.assign(hb.buckets.size(), 0);
      }
      for (std::size_t i = 0; i < hb.buckets.size() && i < buckets.size();
           ++i)
        buckets[i] += double(hb.buckets[i]) -
                      (it == a.histograms.end()
                           ? 0.0
                           : double(it->second.buckets[i]));
      count += double(hb.count) -
               (it == a.histograms.end() ? 0.0 : double(it->second.count));
      sum += hb.sum - (it == a.histograms.end() ? 0.0 : it->second.sum);
    }
  }
  double mean_ms() const { return count > 0 ? 1e3 * sum / count : 0; }
  /// Linear interpolation inside the bucket holding the q-quantile.
  double quantile_ms(double q) const {
    if (count <= 0) return 0;
    const double target = q * count;
    double cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] > 0 && cum + buckets[i] >= target) {
        const double lo = i == 0 ? 0 : bounds[i - 1];
        const double hi = i < bounds.size() ? bounds[i] : bounds.back();
        return 1e3 * (lo + (hi - lo) * (target - cum) / buckets[i]);
      }
      cum += buckets[i];
    }
    return 1e3 * bounds.back();
  }
};

HistDelta hist(const obs::Snapshot& a, const obs::Snapshot& b,
               std::string_view prefix) {
  HistDelta h;
  h.add(a, b, prefix);
  return h;
}

HistDelta servers_hist(const Snap& a, const Snap& b,
                       std::string_view prefix) {
  HistDelta h;
  for (std::size_t i = 0; i < b.servers.size(); ++i)
    h.add(a.servers[i], b.servers[i], prefix);
  return h;
}

std::string client_op(const char* op) {
  return obs::labeled("carousel_client_op_seconds", "op", op);
}
std::string server_op(const char* op) {
  return obs::labeled("carousel_server_op_seconds", "op", op);
}

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The process's resident-set high-water mark (VmHWM).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0;
}

/// Returns freed heap to the kernel and restarts the high-water mark from
/// the current RSS, so peak_rss_MiB covers one set-up and its window, not
/// what earlier set-ups left behind.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it,
/// or n/a when the sample is too small for any of them.
std::string tail_text(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    const auto idx = static_cast<std::size_t>(std::ceil(q * double(v.size())));
    if (v.empty() || idx == 0 || v.size() - idx < 10) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.4f ms (p%g of %zu samples)",
                  1e3 * v[idx - 1], 100 * q, v.size());
    return buf;
  }
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "n/a (%zu samples; no percentile >= p75 has 10 beyond it)",
                v.size());
  return buf;
}

void print_result(bool correct, const Worker& log,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                   1, log.attempted));
  out += ", \"failed\": " + std::to_string(log.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Throughput and median per op kind, set-up time and peak RSS.
std::vector<Metric> end_to_end(const Worker& log, double setup_s,
                               double rss_mib) {
  std::vector<Metric> m;
  for (int k = 0; k < kKinds; ++k) {
    const double busy =
        std::accumulate(log.seconds[k].begin(), log.seconds[k].end(), 0.0);
    const std::string base = kKindName[k];
    m.push_back({base + "_MBps", ratio(log.bytes[k] / kMB, busy), "MB/s"});
    m.push_back({base + "_p50_ms", 1e3 * median(log.seconds[k]), "ms"});
  }
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"peak_rss_MiB", rss_mib, "MiB"});
  return m;
}

/// Human-readable lines for every end-to-end metric, including the ones the
/// JSON result leaves out (tails, and the two exact ratios).
void print_human(const Env& env, const Worker& log,
                 const std::vector<Metric>& m, double window_s) {
  std::printf("workload %s: %zu puts, %zu reads, %zu degraded reads, "
              "%zu repairs in %.2f s; block %zu B, file %zu B\n",
              env.spec.name.c_str(), log.seconds[kPut].size(),
              log.seconds[kRead].size(), log.seconds[kDegraded].size(),
              log.seconds[kRepair].size(), window_s, env.block_bytes,
              env.file_bytes);
  for (const Metric& x : m)
    std::printf("  %-24s %14.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  for (int k = 0; k < kKinds; ++k) {
    if (k == kRepair) continue;
    const std::string name = std::string(kKindName[k]) + "_tail_ms";
    std::printf("  %-24s %s\n", name.c_str(),
                tail_text(log.seconds[k]).c_str());
  }
  std::printf("  %-24s %.17g ratio (exact: d/(d-k+1) = 2 for (12,6,10,10))\n",
              "repair_traffic_ratio",
              ratio(double(log.repair_traffic),
                    double(log.seconds[kRepair].size() * env.block_bytes)));
  std::printf("  %-24s %14.6f ratio (%llu of %llu ops)\n", "ops_failed_ratio",
              ratio(double(log.failed), double(log.attempted)),
              static_cast<unsigned long long>(log.failed),
              static_cast<unsigned long long>(log.attempted));
}

bool traffic_exact(const Env& env, const Worker& log) {
  return log.repair_traffic ==
         2ull * log.seconds[kRepair].size() * env.block_bytes;
}

// ----------------------------------------------------------------- probes

/// Probe results are stored here so the calls producing them stay live.
volatile std::uint32_t g_sink = 0;

/// Median seconds of `fn` over at least 5 calls and 50 ms.
template <typename F>
double probe(Worker& w, const char* name, F&& fn) {
  Span span(w, name);
  std::vector<double> t;
  const Clock::time_point begin = Clock::now();
  while (t.size() < 5 || seconds_since(begin) < 0.05) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

std::vector<Metric> probes(Worker& w, const Env& env) {
  Span span(w, "probes");
  const codes::Carousel& code = env.code;
  const std::size_t bb = env.block_bytes;
  std::vector<std::uint8_t> block = seeded_bytes(env.seed, 0xffff0001u, bb);
  const double crc_s = probe(w, "probe.crc32", [&] {
    g_sink = util::crc32(block);
  });

  std::vector<std::uint8_t> stripe =
      seeded_bytes(env.seed, 0xffff0002u, code.k() * bb);
  std::vector<std::vector<std::uint8_t>> out(code.n(),
                                             std::vector<std::uint8_t>(bb));
  std::vector<std::span<std::uint8_t>> views(out.begin(), out.end());
  const double enc_s =
      probe(w, "probe.carousel_encode", [&] { code.encode(stripe, views); });

  const std::size_t ub = env.spec.unit_bytes;
  const double gf_s = probe(w, "probe.gf_mul_add", [&] {
    gf::mul_add_region(0x57, block.data(), out[0].data(), ub);
  });

  std::vector<std::uint8_t> file = seeded_bytes(env.seed, 0xffff0003u,
                                                env.file_bytes);
  const double ef_s = probe(w, "probe.erasure_file", [&] {
    storage::ErasureFile ef(code, file, bb);
    g_sink = ef.block(0, 0)[0];
  });
  return {
      {"crc32.GBps", ratio(double(bb) / 1e9, crc_s), "GB/s"},
      {"codes.encode.GBps", ratio(double(code.k() * bb) / 1e9, enc_s), "GB/s"},
      {"gf.mul_add.GBps", ratio(double(ub) / 1e9, gf_s), "GB/s"},
      {"storage.erasure_file.ms_per_put", 1e3 * ef_s, "ms"},
  };
}

/// One op of each kind on a fresh file, alone, with registry deltas around
/// each: the per-op counts that concurrent window deltas cannot attribute.
std::vector<Metric> attribution(Worker& w, Env& env) {
  Span span(w, "attribution");
  FilePtr f = env.make_file();
  const double fb = double(f->bytes.size());
  const Snap s0 = take(env);
  run_op(w, kPut, "store.put_file", fb, [&] {
    env.store->put_file(f->id, f->bytes);
    return true;
  });
  const Snap s1 = take(env);
  run_op(w, kRead, "store.read_file", fb, [&] { return read_ok(env, *f); });
  const Snap s2 = take(env);
  for (std::uint32_t s = 0; s < env.spec.stripes; ++s)
    env.store->drop_block(f->id, s, env.missing_index(f->id, s));
  const Snap s3 = take(env);
  run_op(w, kDegraded, "store.read_file.degraded", fb,
         [&] { return read_ok(env, *f); });
  const Snap s4 = take(env);
  const std::uint32_t index = env.missing_index(f->id, 0);
  run_op(w, kRepair, "store.repair_block", double(env.block_bytes), [&] {
    env.store->repair_block(f->id, 0, index);
    return true;
  });
  const Snap s5 = take(env);
  if (env.store->verify_block(f->id, 0, index) != net::BlockState::kOk) {
    ++w.attempted;
    ++w.failed;
  }
  env.drop_file(*f);
  auto client_count = [](const Snap& a, const Snap& b, const char* op) {
    return hist(a.store, b.store, client_op(op)).count;
  };
  return {
      {"client.put.per_put", client_count(s0, s1, "put"), "count"},
      {"client.get_range.per_read", client_count(s1, s2, "get_range"),
       "count"},
      {"client.project.per_degraded_read", client_count(s3, s4, "project"),
       "count"},
      {"client.project.per_repair", client_count(s4, s5, "project"), "count"},
      {"client.verify.per_repair", client_count(s4, s5, "verify"), "count"},
      {"persist.fsyncs.per_put",
       servers_counter_delta(s0, s1, "carousel_persist_fsyncs_total"),
       "count"},
      {"persist.bytes_written.per_user_byte",
       servers_counter_delta(s0, s1, "carousel_persist_bytes_written_total") /
           fb,
       "ratio"},
  };
}

/// Per-layer metrics from the registry deltas over the traced window.
std::vector<Metric> layers(const Snap& a, const Snap& b, const Worker& log,
                           double max_queue_depth) {
  const double puts = double(log.seconds[kPut].size());
  const double degraded = double(log.seconds[kDegraded].size());
  const double repairs = double(log.seconds[kRepair].size());
  const double ops = double(log.ops());
  std::vector<Metric> m;
  m.push_back({"codes.encode.ms_per_put",
               ratio(1e3 * hist(a.global, b.global,
                                "carousel_codec_encode_seconds").sum,
                     puts),
               "ms"});
  m.push_back({"codes.decode.ms_per_degraded_read",
               ratio(1e3 * hist(a.global, b.global,
                                "carousel_codec_decode_seconds").sum,
                     degraded),
               "ms"});
  m.push_back({"codes.repair.ms_per_repair",
               ratio(1e3 * hist(a.global, b.global,
                                "carousel_codec_repair_seconds").sum,
                     repairs),
               "ms"});
  m.push_back({"gf.kernel_calls.per_op",
               ratio(counter_delta(a.global, b.global,
                                   "carousel_gf_kernel_calls_total"),
                     ops),
               "count"});
  for (const char* op : {"put", "get_range", "project", "verify"})
    m.push_back({std::string("client.") + op + ".p50_ms",
                 hist(a.store, b.store, client_op(op)).quantile_ms(0.5),
                 "ms"});
  m.push_back({"client.retries",
               counter_delta(a.store, b.store, "carousel_client_retries_total"),
               "count"});
  m.push_back({"client.timeouts",
               counter_delta(a.store, b.store,
                             "carousel_client_timeouts_total"),
               "count"});
  m.push_back({"client.wire_corruptions",
               counter_delta(a.store, b.store,
                             "carousel_client_wire_corruptions_total"),
               "count"});
  for (const char* op : {"put", "get_range", "project", "verify"})
    m.push_back({std::string("server.") + op + ".mean_ms",
                 servers_hist(a, b, server_op(op)).mean_ms(), "ms"});
  for (const char* op : {"put", "get_range", "project"}) {
    const double client_ms = hist(a.store, b.store, client_op(op)).mean_ms();
    const double server_ms = servers_hist(a, b, server_op(op)).mean_ms();
    m.push_back({std::string("wire.") + op + ".mean_ms",
                 client_ms > 0 ? client_ms - server_ms : 0, "ms"});
  }
  m.push_back({"pool.task.mean_ms",
               hist(a.global, b.global, "carousel_threadpool_task_seconds")
                   .mean_ms(),
               "ms"});
  m.push_back({"pool.queue_depth.max", max_queue_depth, "count"});
  m.push_back({"store.range_get.p50_ms",
               hist(a.store, b.store, "carousel_store_range_get_seconds")
                   .quantile_ms(0.5),
               "ms"});
  m.push_back(
      {"store.degraded_stripes.per_read",
       ratio(counter_delta(a.store, b.store,
                           "carousel_store_degraded_stripe_reads_total"),
             degraded),
       "count"});
  m.push_back({"store.decode_fallbacks",
               counter_delta(a.store, b.store,
                             "carousel_store_decode_fallback_stripes_total"),
               "count"});
  m.push_back({"store.hedged_reads",
               counter_delta(a.store, b.store,
                             "carousel_store_hedged_reads_total"),
               "count"});
  // Only puts journal (repairs keep their placement), so the window delta
  // per put includes the amortized snapshot compactions.
  m.push_back({"meta.appends.per_put",
               ratio(counter_delta(a.store, b.store,
                                   "carousel_meta_appends_total"),
                     puts),
               "count"});
  m.push_back({"meta.fsyncs.per_put",
               ratio(counter_delta(a.store, b.store,
                                   "carousel_meta_fsyncs_total"),
                     puts),
               "count"});
  return m;
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  fs::path workdir = ".perfbench";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " +
                                                     std::string(k));
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--workdir") a.workdir = value();
    else if (k == "--tiny") a.tiny = true;
    else throw std::invalid_argument("unknown argument " + std::string(k));
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Builds one set-up (fleet start, preload, durable restart, warm-up) and
/// returns it with its wall time.
std::unique_ptr<Env> set_up(const Spec& spec, const codes::Carousel& code,
                            const Args& args, unsigned no, double& seconds) {
  const Clock::time_point t0 = Clock::now();
  auto env = std::make_unique<Env>(spec, code, args.seed, args.workdir, no);
  env->preload();
  if (spec.durable) env->restart();
  Worker warm;
  run_threads(*env, 0x3a3a, false, false, t0, 0, spec.warmup_ops, warm);
  if (warm.failed) throw std::runtime_error("warm-up op failed");
  seconds = seconds_since(t0);
  return env;
}

void write_trace(const fs::path& path, const Worker& log) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    const SpanRec& s = log.spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                  s.name, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.start_us,
                  s.end_us, i + 1 < log.spans.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
}

void run_workload(const Spec& spec, const Args& args) {
  const codes::Carousel code(12, 6, 10, 10);
  if (!args.trace) {
    // Three set-ups, each measured for a third of the window: the samples
    // pool across fleets, so one fleet's luck (thread placement, fresh
    // directories) weighs a third.  Set-up time and peak RSS are medians.
    std::vector<double> setups, rss;
    std::unique_ptr<Env> env;
    Worker log;
    double window = 0;
    bool exact = true;
    for (unsigned i = 0; i < kSetups; ++i) {
      env.reset();
      reset_peak_rss();
      double s = 0;
      env = set_up(spec, code, args, i, s);
      setups.push_back(s);
      Worker part;
      const Clock::time_point t0 = Clock::now();
      run_threads(*env, 0x5eed + i, true, false, t0, args.seconds / kSetups,
                  0, part);
      window += seconds_since(t0);
      rss.push_back(peak_rss_mib());
      exact = exact && traffic_exact(*env, part);
      log.merge(part);
    }
    const std::vector<Metric> m =
        end_to_end(log, median(setups), median(rss));
    print_human(*env, log, m, window);
    print_result(log.failed == 0 && exact && log.ops() > 0, log, m);
    return;
  }

  double setup_s = 0;
  std::unique_ptr<Env> env = set_up(spec, code, args, 0, setup_s);
  const double half = args.seconds / 2;
  Worker plain;
  Clock::time_point t0 = Clock::now();
  run_threads(*env, 0x5eed, true, false, t0, half, 0, plain);
  const double plain_rate = ratio(double(plain.ops()), seconds_since(t0));

  // Traced half: spans on, queue depth sampled, registry deltas around it.
  obs::Gauge& depth =
      obs::MetricsRegistry::global().gauge("carousel_threadpool_queue_depth");
  const double depth0 = depth.value();
  std::atomic<bool> sampling{true};
  double max_depth = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      max_depth = std::max(max_depth, depth.value() - depth0);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  Worker traced;
  const Snap a = take(*env);
  t0 = Clock::now();
  run_threads(*env, 0x7eed, true, true, t0, half, 0, traced);
  const double traced_rate = ratio(double(traced.ops()), seconds_since(t0));
  const Snap b = take(*env);
  sampling = false;
  sampler.join();

  Worker extra;
  extra.tid = 0xff;
  extra.trace = true;
  extra.trace_epoch = t0;
  std::vector<Metric> m = layers(a, b, traced, max_depth);
  for (Metric& x : attribution(extra, *env)) m.push_back(std::move(x));
  for (Metric& x : probes(extra, *env)) m.push_back(std::move(x));
  m.push_back({"trace.overhead_pct",
               100 * ratio(plain_rate - traced_rate, plain_rate), "%"});

  Worker all;
  all.merge(plain);
  all.merge(traced);
  all.merge(extra);
  fs::create_directories(args.workdir);
  const fs::path trace_file =
      args.workdir / ("trace-" + spec.name + "-seed" +
                      std::to_string(args.seed) + ".json");
  write_trace(trace_file, all);
  std::printf("workload %s (traced): %zu spans written to %s\n",
              spec.name.c_str(), all.spans.size(), trace_file.c_str());
  for (const Metric& x : m)
    std::printf("  %-36s %14.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  const bool correct = all.failed == 0 && traffic_exact(*env, plain) &&
                       traffic_exact(*env, traced);
  print_result(correct, all, m);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    bool found = false;
    for (const Spec& spec : all_specs(args.tiny)) {
      if (args.workload != "all" && args.workload != spec.name) continue;
      found = true;
      run_workload(spec, args);
    }
    if (!found) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
