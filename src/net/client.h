// Client session to one block server: framed request/response over a single
// TCP connection, with byte counters so tests can assert on-the-wire repair
// traffic (the networked analogue of paper Fig. 7).
//
// Failure handling (net/errors.h gives the taxonomy):
//   - every send/recv runs under the policy's socket timeout, so a dead or
//     stalled server surfaces as TimeoutError instead of a hang;
//   - transport failures (refused, reset, EOF, timeout) reconnect and retry
//     under a RetryPolicy — capped attempts, exponential backoff with
//     jitter, and a per-op deadline across all attempts.  Requests are
//     idempotent, so the retry is safe;
//   - protocol violations and Status::kError answers are never retried;
//   - responses carry CRC-32s end to end: a mismatch on the wire is counted
//     and retried, while Status::kCorrupt (block bad at rest) throws
//     CorruptBlockError so callers can fail over to a parity path.
// The registry's carousel_client_{retries,reconnects,timeouts,
// wire_corruptions,corrupt_blocks}_total series count how often each of
// those happened: one count per event, shared by every client of that
// registry.

#ifndef CAROUSEL_NET_CLIENT_H
#define CAROUSEL_NET_CLIENT_H

#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/errors.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace carousel::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace carousel::obs

namespace carousel::net {

/// How one logical operation survives transport failures.
struct RetryPolicy {
  /// Total tries per operation (first attempt included).
  int max_attempts = 4;
  /// Socket-level send/recv timeout per attempt (zero = block forever).
  std::chrono::milliseconds io_timeout{1000};
  /// Backoff before retry r is base_backoff * 2^r, capped at max_backoff,
  /// then jittered by +/-50%.
  std::chrono::milliseconds base_backoff{5};
  std::chrono::milliseconds max_backoff{200};
  /// Wall-clock budget for the operation across every attempt and backoff
  /// (zero = unbounded).  Exceeding it throws DeadlineError.
  std::chrono::milliseconds op_deadline{5000};
};

/// Health of one remote block, as reported by the VERIFY op.
enum class BlockHealth { kOk, kMissing, kCorrupt };

class Client {
 public:
  /// Remembers the server's port; the connection is established lazily on
  /// the first request (so a client can outlive server restarts and even be
  /// created while its server is down).  Failure counters and per-op latency
  /// histograms go to `registry` (the process-global registry when null);
  /// tests pass their own registry for isolated numbers.
  explicit Client(std::uint16_t port, RetryPolicy policy = {},
                  obs::MetricsRegistry* registry = nullptr);

  void ping();
  /// Stores `bytes` as the block, sent straight from the caller's buffer;
  /// returns the CRC-32 the request carried (the server stores it).
  std::uint32_t put(const BlockKey& key, std::span<const std::uint8_t> bytes);
  /// nullopt when the server does not hold the block.
  std::optional<std::vector<std::uint8_t>> get(const BlockKey& key);
  std::optional<std::vector<std::uint8_t>> get_range(const BlockKey& key,
                                                     std::uint32_t offset,
                                                     std::uint32_t length);
  /// One term: (unit position, GF coefficient); one output per term list.
  using Projection = std::vector<std::vector<std::pair<std::uint32_t,
                                                       std::uint8_t>>>;
  /// nullopt when the block is missing; otherwise outputs*unit_bytes bytes.
  std::optional<std::vector<std::uint8_t>> project(const BlockKey& key,
                                                   std::uint32_t unit_bytes,
                                                   const Projection& outputs);
  /// Returns false when the block was not held.
  bool remove(const BlockKey& key);
  struct Stats {
    std::uint32_t blocks = 0;
    std::uint64_t bytes = 0;
  };
  Stats stats();
  /// Audits a block server-side without transferring it; `crc_out` (if
  /// given) receives the block's actual CRC-32.
  BlockHealth verify(const BlockKey& key, std::uint32_t* crc_out = nullptr);

  /// The server's Prometheus text dump (METRICS op): its own registry
  /// followed by its process-global registry.
  std::string metrics_text();

  const RetryPolicy& policy() const { return policy_; }

  std::uint64_t bytes_sent() const {
    return sent_before_.load(std::memory_order_relaxed) + conn_.bytes_sent();
  }
  std::uint64_t bytes_received() const {
    return received_before_.load(std::memory_order_relaxed) +
           conn_.bytes_received();
  }

 private:
  struct CallOpts {
    bool checksummed = false;       // response = u32 crc, data (verify/strip)
    bool corrupt_retryable = false; // kCorrupt = request mangled (PUT): retry
    bool corrupt_returns = false;   // kCorrupt is a valid answer (VERIFY)
  };
  /// Runs one operation under the retry policy; see the header comment for
  /// the full classification.  The request payload is `header` followed by
  /// `body`, sent as they lie: a PUT's block is never copied into a frame.
  std::pair<Status, std::vector<std::uint8_t>> call(
      Op op, std::span<const std::uint8_t> header, CallOpts opts,
      std::span<const std::uint8_t> body = {});
  std::pair<Status, std::vector<std::uint8_t>> call(
      Op op, std::span<const std::uint8_t> header) {
    return call(op, header, CallOpts{});
  }
  std::pair<Status, std::vector<std::uint8_t>> call_once(
      Op op, std::span<const std::uint8_t> header,
      std::span<const std::uint8_t> body);
  /// Opens the connection if needed.  The connect attempt is bounded by the
  /// per-attempt io_timeout AND the remaining op deadline, whichever is
  /// tighter; throws DeadlineError when the deadline is already spent.
  void ensure_connected(std::chrono::steady_clock::time_point deadline);
  void drop_connection();
  /// Backoff before retry `attempt`; throws DeadlineError when it would
  /// cross `deadline`.
  void backoff(int attempt,
               std::chrono::steady_clock::time_point deadline);

  std::uint16_t port_;
  RetryPolicy policy_;
  TcpConn conn_;
  bool ever_connected_ = false;
  std::minstd_rand jitter_rng_;
  // Byte counts of prior connections: relaxed atomics, so bytes_sent() and
  // bytes_received() are safe to read while an operation is in flight.
  std::atomic<std::uint64_t> sent_before_{0};
  std::atomic<std::uint64_t> received_before_{0};

  // Registry instruments (see constructor): per-op latency plus the failure
  // taxonomy, shared across every client of the registry.
  std::array<obs::Histogram*, kOpCount> op_seconds_{};
  obs::Counter* retries_total_ = nullptr;
  obs::Counter* reconnects_total_ = nullptr;
  obs::Counter* timeouts_total_ = nullptr;
  obs::Counter* wire_corruptions_total_ = nullptr;
  obs::Counter* corrupt_blocks_total_ = nullptr;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_CLIENT_H
