#include "cli/cli.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/durable_file.h"
#include "net/meta_log.h"
#include "net/persistence.h"
#include "storage/erasure_file.h"
#include "util/crc32.h"

namespace carousel::cli {

namespace fs = std::filesystem;
using codes::Byte;

namespace {

std::string block_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "block_%03zu.bin", i);
  return buf;
}

Manifest read_manifest(const fs::path& dir) {
  const auto text = net::durable::read_file(dir / "MANIFEST");
  if (!text) throw std::runtime_error("no MANIFEST in " + dir.string());
  return Manifest::parse(std::string(text->begin(), text->end()));
}

/// Block files 0..n-1 of the archive in `dir`, an empty one where missing.
std::vector<std::vector<Byte>> read_block_files(const fs::path& dir,
                                                std::size_t n) {
  std::vector<std::vector<Byte>> files(n);
  for (std::size_t i = 0; i < n; ++i) {
    const fs::path p = dir / block_name(i);
    std::error_code ec;
    if (!fs::exists(p, ec)) continue;
    auto bytes = net::durable::read_file(p);
    if (!bytes) throw std::runtime_error("cannot open " + p.string());
    files[i] = std::move(*bytes);
  }
  return files;
}

/// The archive in `dir` as an ErasureFile: a missing or wrong-sized
/// (truncated) block file is a lost block.
struct Archive {
  explicit Archive(const fs::path& dir)
      : manifest(read_manifest(dir)),
        code(manifest.params.n, manifest.params.k, manifest.params.d,
             manifest.params.p),
        file(code, manifest.file_bytes, manifest.block_bytes,
             read_block_files(dir, manifest.params.n)) {}
  Archive(const Archive&) = delete;  // `file` points at `code`
  Archive& operator=(const Archive&) = delete;

  Manifest manifest;
  codes::Carousel code;
  storage::ErasureFile file;
};

}  // namespace

std::string Manifest::serialize() const {
  std::ostringstream out;
  out << "format=carousel-archive-v1\n";
  out << "n=" << params.n << "\nk=" << params.k << "\nd=" << params.d
      << "\np=" << params.p << "\n";
  out << "file_bytes=" << file_bytes << "\nblock_bytes=" << block_bytes
      << "\nstripes=" << stripes << "\ncrc32=" << checksum << "\n";
  return out.str();
}

Manifest Manifest::parse(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  auto need = [&](const char* key) -> std::uint64_t {
    auto it = kv.find(key);
    if (it == kv.end())
      throw std::runtime_error(std::string("MANIFEST missing key ") + key);
    return std::stoull(it->second);
  };
  if (kv["format"] != "carousel-archive-v1")
    throw std::runtime_error("unrecognised archive format");
  Manifest m;
  m.params = codes::CodeParams{need("n"), need("k"), need("d"), need("p")};
  m.file_bytes = need("file_bytes");
  m.block_bytes = need("block_bytes");
  m.stripes = need("stripes");
  m.checksum = static_cast<std::uint32_t>(need("crc32"));
  return m;
}

void encode_file(const fs::path& input, const fs::path& dir,
                 codes::CodeParams params, std::size_t block_bytes) {
  params.validate();
  codes::Carousel code(params.n, params.k, params.d, params.p);
  if (block_bytes == 0) block_bytes = code.s();
  block_bytes = (block_bytes + code.s() - 1) / code.s() * code.s();

  const auto file = net::durable::read_file(input);
  if (!file) throw std::runtime_error("cannot open " + input.string());
  storage::ErasureFile ef(code, *file, block_bytes);

  fs::create_directories(dir);
  Manifest m;
  m.params = params;
  m.file_bytes = file->size();
  m.block_bytes = block_bytes;
  m.stripes = ef.stripes();
  m.checksum = util::crc32(*file);
  const std::string text = m.serialize();
  net::durable::write_file(
      dir / "MANIFEST",
      {reinterpret_cast<const Byte*>(text.data()), text.size()});

  for (std::size_t i = 0; i < params.n; ++i)
    net::durable::write_file(dir / block_name(i), ef.block_file(i));
}

std::size_t decode_file(const fs::path& dir, const fs::path& output) {
  const Archive a(dir);
  codes::IoStats stats;
  const std::vector<Byte> file = a.file.read_all(&stats);
  if (util::crc32(file) != a.manifest.checksum)
    throw std::runtime_error("decoded data fails the manifest checksum");
  net::durable::write_file(output, file);
  // Every stripe has the same available blocks, so the same read plan.
  return stats.sources / a.file.stripes();
}

std::uint64_t repair_block_file(const fs::path& dir, std::size_t index) {
  Archive a(dir);
  if (index >= a.manifest.params.n)
    throw std::invalid_argument("block out of range");
  const std::uint64_t traffic = a.file.repair_block_index(index).bytes_read;
  net::durable::write_file(dir / block_name(index), a.file.block_file(index));
  return traffic;
}

std::string describe(const fs::path& dir) {
  const Archive a(dir);
  const auto& m = a.manifest;
  std::ostringstream out;
  out << "Carousel archive " << m.params.to_string() << "\n";
  out << "  file bytes:   " << m.file_bytes << " (crc32 " << m.checksum
      << ")\n";
  out << "  stripes:      " << m.stripes << " x " << m.params.n
      << " blocks of " << m.block_bytes << " bytes\n";
  out << "  parallelism:  " << m.params.p << " blocks carry original data ("
      << a.code.data_units_per_block() << "/" << a.code.s() << " of each)\n";
  out << "  repair:       " << m.params.d << " helpers, "
      << m.params.repair_traffic_blocks() << " block sizes of traffic\n";
  out << "  blocks:      ";
  std::size_t present = 0;
  for (std::size_t i = 0; i < m.params.n; ++i) {
    present += a.file.block_available(0, i);
    out << ' ' << (a.file.block_available(0, i) ? 'o' : '-');
  }
  out << "  (" << present << "/" << m.params.n << " present)\n";
  return out.str();
}

std::string fetch_metrics(std::uint16_t port) {
  net::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.io_timeout = std::chrono::milliseconds(2000);
  net::Client client(port, policy);
  return client.metrics_text();
}

namespace {

/// Shared renderer behind both cluster_status overloads.  `rollup` adds the
/// per-rack section; the unlabeled overload skips it because with one rack
/// per server the rollup would just repeat the table above it.
std::string render_cluster(const std::vector<std::uint16_t>& ports,
                           const std::vector<std::size_t>& racks,
                           bool rollup) {
  net::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.io_timeout = std::chrono::milliseconds(500);
  policy.op_deadline = std::chrono::milliseconds(1500);
  std::ostringstream out;
  out << "cluster of " << ports.size() << " server"
      << (ports.size() == 1 ? "" : "s") << ":\n";
  std::size_t alive = 0;
  std::uint64_t total_blocks = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t min_blocks = 0;
  std::uint64_t max_blocks = 0;
  struct RackTally {
    std::size_t members = 0;
    std::size_t alive = 0;
    std::uint64_t blocks = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::size_t, RackTally> by_rack;
  for (std::size_t id = 0; id < ports.size(); ++id) {
    RackTally& tally = by_rack[racks[id]];
    ++tally.members;
    out << "  server " << id << "  port " << ports[id] << "  rack "
        << racks[id] << "  ";
    try {
      net::Client client(ports[id], policy);
      const auto held = client.stats();
      out << "alive  " << held.blocks << " blocks  " << held.bytes
          << " bytes\n";
      min_blocks = alive == 0 ? held.blocks
                              : std::min<std::uint64_t>(min_blocks,
                                                        held.blocks);
      max_blocks = std::max<std::uint64_t>(max_blocks, held.blocks);
      ++alive;
      total_blocks += held.blocks;
      total_bytes += held.bytes;
      ++tally.alive;
      tally.blocks += held.blocks;
      tally.bytes += held.bytes;
    } catch (const net::Error&) {
      out << "dead   (unreachable)\n";
    }
  }
  if (rollup) {
    out << "rack rollup:\n";
    for (const auto& [rack, tally] : by_rack) {
      out << "  rack " << rack << "  " << tally.members << " server"
          << (tally.members == 1 ? "" : "s") << "  " << tally.alive
          << " alive  " << tally.blocks << " blocks  " << tally.bytes
          << " bytes";
      if (tally.alive == 0) out << "  [rack down]";
      out << '\n';
    }
  }
  out << "summary: " << alive << "/" << ports.size() << " alive, "
      << total_blocks << " blocks / " << total_bytes
      << " bytes on reachable servers\n";
  if (alive > 0)
    out << "placement: " << min_blocks << ".." << max_blocks
        << " blocks per reachable server\n";
  const std::size_t dead = ports.size() - alive;
  if (dead > 0)
    out << "pending re-placement: blocks of " << dead << " dead server"
        << (dead == 1 ? "" : "s") << " await re-homing\n";
  else
    out << "pending re-placement: none\n";
  return out.str();
}

}  // namespace

std::string cluster_status(const std::vector<std::uint16_t>& ports) {
  // Unlabeled fleet: each server is its own rack, mirroring CarouselStore's
  // default of one failure domain per server.
  std::vector<std::size_t> racks(ports.size());
  for (std::size_t i = 0; i < racks.size(); ++i) racks[i] = i;
  return render_cluster(ports, racks, /*rollup=*/false);
}

std::string cluster_status(const std::vector<std::uint16_t>& ports,
                           const std::vector<std::size_t>& racks) {
  if (racks.size() != ports.size())
    throw std::invalid_argument("need exactly one rack label per port");
  return render_cluster(ports, racks, /*rollup=*/true);
}

namespace {

/// The `name value` lines of the port's metrics dump whose name starts with
/// `prefix`, as a titled table; `empty_note` when there are none.  Reads
/// only: every name is minted by its owner's helper (check_invariants.py
/// rules 6 and 7).
std::string render_prefixed(std::uint16_t port, const std::string& prefix,
                            const std::string& title,
                            const std::string& empty_note) {
  const std::string text = fetch_metrics(port);
  std::ostringstream out;
  out << title << " on port " << port << ":\n";
  std::size_t found = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out << "  " << std::left << std::setw(44) << line.substr(0, space)
        << ' ' << line.substr(space + 1) << '\n';
    ++found;
  }
  if (found == 0) out << "  (" << empty_note << ")\n";
  return out.str();
}

}  // namespace

std::string repairs_status(std::uint16_t port) {
  return render_prefixed(port, "carousel_repair_", "repair scheduler",
                         "no carousel_repair_* series exported; no "
                         "RepairScheduler has run in this process");
}

std::string reads_status(std::uint16_t port) {
  return render_prefixed(port, "carousel_store_", "store read path",
                         "no carousel_store_* series exported; no "
                         "CarouselStore has run in this process");
}

std::string meta_status(const fs::path& dir) {
  return "metadata inspection of " + dir.string() + ":\n" +
         net::MetaLog::inspect(dir);
}

std::string recover_store(const fs::path& dir) {
  net::PersistentBlockStore store(dir);
  const net::RecoveryReport report = store.recover();
  return "recovery scan of " + dir.string() + ":\n" + report.to_string();
}

namespace {

// Written only from the SIGINT/SIGTERM handlers; polled by serve_store.
volatile std::sig_atomic_t g_serve_stop = 0;

void request_serve_stop(int) { g_serve_stop = 1; }

/// A server port operand of `metrics`, `cluster`, `repairs` or `reads`.
std::uint16_t parse_port(const std::string& arg) {
  const unsigned long port = std::stoul(arg);
  if (port == 0 || port > 65535)
    throw std::invalid_argument("port must be in [1, 65535]");
  return static_cast<std::uint16_t>(port);
}

}  // namespace

int serve_store(std::uint16_t port, const fs::path& data_dir, bool fsync) {
  net::PersistentBlockStore::Options popts;
  popts.fsync = fsync;
  net::BlockServer server(port, data_dir, popts);
  std::fputs(server.recovery_report().to_string().c_str(), stdout);
  std::printf("serving %s on port %u%s (SIGINT/SIGTERM to stop)\n",
              data_dir.string().c_str(), unsigned{server.port()},
              fsync ? "" : " [fsync off]");
  std::fflush(stdout);
  g_serve_stop = 0;
  std::signal(SIGINT, request_serve_stop);
  std::signal(SIGTERM, request_serve_stop);
  while (!g_serve_stop)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  std::printf("stopped\n");
  return 0;
}

int run(const std::vector<std::string>& args) {
  auto usage = [] {
    std::fprintf(
        stderr,
        "usage:\n"
        "  carouselctl encode  <input> <dir> [n k d p] [block_bytes]\n"
        "  carouselctl decode  <dir> <output>\n"
        "  carouselctl repair  <dir> <block-index>\n"
        "  carouselctl info    <dir>\n"
        "  carouselctl metrics <port>\n"
        "  carouselctl cluster <port[:rack]...>\n"
        "  carouselctl repairs <port>\n"
        "  carouselctl reads   <port>\n"
        "  carouselctl recover <data-dir>\n"
        "  carouselctl meta    <meta-dir>\n"
        "  carouselctl serve   <port> [data-dir] [--no-fsync]\n"
        "environment:\n"
        "  CAROUSEL_DATA_DIR       default data-dir for `serve`\n"
        "  CAROUSEL_PERSIST_FSYNC  0 disables fsync (like --no-fsync)\n");
    return 2;
  };
  try {
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "encode") {
      if (args.size() != 3 && args.size() != 7 && args.size() != 8)
        return usage();
      codes::CodeParams params{12, 6, 10, 12};
      std::size_t block_bytes = 1 << 20;
      if (args.size() >= 7)
        params = codes::CodeParams{std::stoul(args[3]), std::stoul(args[4]),
                                   std::stoul(args[5]), std::stoul(args[6])};
      if (args.size() == 8) block_bytes = std::stoul(args[7]);
      encode_file(args[1], args[2], params, block_bytes);
      std::printf("encoded %s into %s with %s\n", args[1].c_str(),
                  args[2].c_str(), params.to_string().c_str());
      return 0;
    }
    if (cmd == "decode") {
      if (args.size() != 3) return usage();
      std::size_t used = decode_file(args[1], args[2]);
      std::printf("decoded %s from %zu block files (checksum OK)\n",
                  args[2].c_str(), used);
      return 0;
    }
    if (cmd == "repair") {
      if (args.size() != 3) return usage();
      auto traffic = repair_block_file(args[1], std::stoul(args[2]));
      std::printf("rebuilt block %s (read %llu bytes from survivors)\n",
                  args[2].c_str(), static_cast<unsigned long long>(traffic));
      return 0;
    }
    if (cmd == "info") {
      if (args.size() != 2) return usage();
      std::fputs(describe(args[1]).c_str(), stdout);
      return 0;
    }
    if (cmd == "metrics") {
      if (args.size() != 2) return usage();
      std::fputs(fetch_metrics(parse_port(args[1])).c_str(), stdout);
      return 0;
    }
    if (cmd == "cluster") {
      // Operands are `port` or `port:rack`.  Any explicit rack label turns
      // on the failure-domain view (rack rollup); unlabeled operands keep
      // the store's default of one rack per server.
      if (args.size() < 2) return usage();
      std::vector<std::uint16_t> ports;
      std::vector<std::size_t> racks;
      bool labeled = false;
      for (std::size_t i = 1; i < args.size(); ++i) {
        std::string spec = args[i];
        std::size_t rack = ports.size();
        const std::size_t colon = spec.find(':');
        if (colon != std::string::npos) {
          rack = std::stoul(spec.substr(colon + 1));
          spec.resize(colon);
          labeled = true;
        }
        ports.push_back(parse_port(spec));
        racks.push_back(rack);
      }
      std::fputs((labeled ? cluster_status(ports, racks)
                          : cluster_status(ports))
                     .c_str(),
                 stdout);
      return 0;
    }
    if (cmd == "repairs") {
      if (args.size() != 2) return usage();
      std::fputs(repairs_status(parse_port(args[1])).c_str(), stdout);
      return 0;
    }
    if (cmd == "reads") {
      if (args.size() != 2) return usage();
      std::fputs(reads_status(parse_port(args[1])).c_str(), stdout);
      return 0;
    }
    if (cmd == "recover") {
      if (args.size() != 2) return usage();
      std::fputs(recover_store(args[1]).c_str(), stdout);
      return 0;
    }
    if (cmd == "meta") {
      if (args.size() != 2) return usage();
      std::fputs(meta_status(args[1]).c_str(), stdout);
      return 0;
    }
    if (cmd == "serve") {
      // carouselctl serve <port> [data-dir] [--no-fsync]; port 0 binds an
      // ephemeral port (printed on startup).  The directory falls back to
      // $CAROUSEL_DATA_DIR; $CAROUSEL_PERSIST_FSYNC=0 acts like --no-fsync.
      if (args.size() < 2 || args.size() > 4) return usage();
      unsigned long port = std::stoul(args[1]);
      if (port > 65535)
        throw std::invalid_argument("port must be in [0, 65535]");
      std::string dir;
      bool fsync = true;
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--no-fsync")
          fsync = false;
        else if (dir.empty())
          dir = args[i];
        else
          return usage();
      }
      if (dir.empty()) {
        const char* env = std::getenv("CAROUSEL_DATA_DIR");
        if (!env || !*env)
          throw std::invalid_argument(
              "no data directory: pass one or set CAROUSEL_DATA_DIR");
        dir = env;
      }
      const char* fsync_env = std::getenv("CAROUSEL_PERSIST_FSYNC");
      if (fsync_env && std::string(fsync_env) == "0") fsync = false;
      return serve_store(static_cast<std::uint16_t>(port), dir, fsync);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace carousel::cli
