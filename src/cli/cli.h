// Command-line tool logic: encode files on disk into per-block files,
// decode them back (tolerating missing blocks), repair lost block files and
// inspect archives.  The `carouselctl` binary in tools/ is a thin wrapper;
// keeping the logic here makes it unit-testable.
//
// Archive layout under <dir>:
//   MANIFEST            key=value text: code parameters, sizes, checksums
//   block_<i>.bin       block i of every stripe, concatenated

#ifndef CAROUSEL_CLI_CLI_H
#define CAROUSEL_CLI_CLI_H

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "codes/params.h"

namespace carousel::cli {

struct Manifest {
  codes::CodeParams params;
  std::uint64_t file_bytes = 0;
  std::uint64_t block_bytes = 0;   // per stripe
  std::uint64_t stripes = 0;
  std::uint32_t checksum = 0;      // CRC-32 of the original file

  std::string serialize() const;
  static Manifest parse(const std::string& text);
};

/// Encodes `input` into `dir` with an (n,k,d,p) Carousel code; block_bytes
/// is rounded up to a multiple of the code's subpacketization.
void encode_file(const std::filesystem::path& input,
                 const std::filesystem::path& dir, codes::CodeParams params,
                 std::size_t block_bytes);

/// Decodes the archive in `dir` into `output` through the code's read
/// planner.  Missing/corrupt block files are tolerated up to the code's
/// limits; the CRC is verified.  Returns the number of block files the plan
/// read from.
std::size_t decode_file(const std::filesystem::path& dir,
                        const std::filesystem::path& output);

/// Rebuilds block file `index` in-place from the surviving blocks through
/// the code's repair planner, at MSR-optimal traffic when >= d survive.
/// Returns repair traffic in bytes.
std::uint64_t repair_block_file(const std::filesystem::path& dir,
                                std::size_t index);

/// Human-readable archive summary (for `carouselctl info`).
std::string describe(const std::filesystem::path& dir);

/// Fetches the Prometheus text dump from a running block server on
/// 127.0.0.1:port (for `carouselctl metrics`).  Throws on connection
/// failure.
std::string fetch_metrics(std::uint16_t port);

/// Probes each server on 127.0.0.1 once (STATS op, short timeout) and
/// renders a cluster health table (for `carouselctl cluster`): per-server
/// alive/dead verdict with held blocks and bytes plus a rack column (each
/// server defaults to its own rack, mirroring CarouselStore), a placement
/// summary (block spread across the reachable servers), and how many
/// servers' blocks are pending re-placement.  Never throws on a dead
/// server — that is the interesting case; the verdict lands in the table
/// instead.
std::string cluster_status(const std::vector<std::uint16_t>& ports);

/// Same probe, but with explicit rack labels (one per port, parsed from
/// `port:rack` operands) and a per-rack rollup section: members,
/// alive count, reachable inventory, and a `[rack down]` marker when every
/// member of a rack is unreachable — the failure-domain view of the fleet.
/// Throws std::invalid_argument when the label vector's size mismatches.
std::string cluster_status(const std::vector<std::uint16_t>& ports,
                           const std::vector<std::size_t>& racks);

/// Fetches the metrics dump from 127.0.0.1:port and renders only the
/// repair-scheduler series — carousel_repair_* counters and gauges — as a
/// compact table (for `carouselctl repairs`).  Throws on connection
/// failure; a server without a scheduler yields an explanatory line.
std::string repairs_status(std::uint16_t port);

/// Fetches the metrics dump from 127.0.0.1:port and renders only the
/// store's read-path series — carousel_store_* counters, gauges and
/// histogram counts, including the hedged-read pair — as a compact table
/// (for `carouselctl reads`).  Throws on connection failure; a server whose
/// process never ran a CarouselStore yields an explanatory line.
std::string reads_status(std::uint16_t port);

/// Offline recovery scan of a persistent block-server data directory (for
/// `carouselctl recover`): classifies and quarantines damaged files exactly
/// as server startup would, and returns the human-readable report.  Safe to
/// run repeatedly; a clean directory is left untouched.
std::string recover_store(const std::filesystem::path& dir);

/// Read-only inspection of a coordinator metadata directory (for
/// `carouselctl meta`): snapshot verdict, journal record counts by kind,
/// torn-tail position if any, and quarantined-tail inventory.  Never
/// truncates or repairs — safe to run against a live coordinator's
/// directory or a post-crash image you are deciding what to do with.
std::string meta_status(const std::filesystem::path& dir);

/// Runs a persistent block server on `port` over `data_dir` until SIGINT or
/// SIGTERM (for `carouselctl serve`).  Prints the recovery report, then
/// blocks.  Returns the process exit code.
int serve_store(std::uint16_t port, const std::filesystem::path& data_dir,
                bool fsync);

/// Entry point used by the binary: returns the process exit code.
int run(const std::vector<std::string>& args);

}  // namespace carousel::cli

#endif  // CAROUSEL_CLI_CLI_H
