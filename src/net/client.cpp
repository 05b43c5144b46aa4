#include "net/client.h"

#include <algorithm>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"

namespace carousel::net {

namespace {

// Internal signal: the response arrived but its payload failed the checksum.
// The frame boundary is intact, so the attempt is retryable on the same
// connection.
struct WireCorruption {};

std::uint32_t read_le32(const std::vector<std::uint8_t>& b) {
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

Client::Client(std::uint16_t port, RetryPolicy policy,
               obs::MetricsRegistry* registry)
    : port_(port),
      policy_(policy),
      jitter_rng_(0x9e3779b97f4a7c15ull ^ port) {
  auto& reg = registry ? *registry : obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < kOpCount; ++i)
    op_seconds_[i] = &reg.histogram(obs::labeled(
        "carousel_client_op_seconds", "op", op_name(op_from_index(i))));
  retries_total_ = &reg.counter("carousel_client_retries_total");
  reconnects_total_ = &reg.counter("carousel_client_reconnects_total");
  timeouts_total_ = &reg.counter("carousel_client_timeouts_total");
  wire_corruptions_total_ =
      &reg.counter("carousel_client_wire_corruptions_total");
  corrupt_blocks_total_ = &reg.counter("carousel_client_corrupt_blocks_total");
}

void Client::ensure_connected(std::chrono::steady_clock::time_point deadline) {
  if (conn_.valid()) return;
  // The handshake is charged against both budgets: it never outlives the
  // per-attempt io_timeout, and never outlives what remains of the op
  // deadline — a peer that stalls in SYN purgatory used to eat the whole
  // kernel retry cycle without the deadline noticing.
  auto timeout = policy_.io_timeout;
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0)
      throw DeadlineError("op deadline exhausted before connect");
    if (timeout.count() <= 0 || remaining < timeout) timeout = remaining;
  }
  conn_ = TcpConn::connect(port_, timeout);
  conn_.set_io_timeout(policy_.io_timeout);
  if (ever_connected_) reconnects_total_->inc();
  ever_connected_ = true;
}

void Client::drop_connection() {
  // Fold first, reset second: a concurrent bytes_sent() reader may briefly
  // see the folded total plus the old connection's count (a transient
  // over-read) but never loses bytes once the reset lands.
  sent_before_.fetch_add(conn_.bytes_sent(), std::memory_order_relaxed);
  received_before_.fetch_add(conn_.bytes_received(),
                             std::memory_order_relaxed);
  conn_ = TcpConn();
}

void Client::backoff(int attempt,
                     std::chrono::steady_clock::time_point deadline) {
  using namespace std::chrono;
  double ms = static_cast<double>(policy_.base_backoff.count());
  for (int i = 0; i < attempt; ++i) ms *= 2.0;
  ms = std::min(ms, static_cast<double>(policy_.max_backoff.count()));
  const double u =
      std::uniform_real_distribution<double>(-1.0, 1.0)(jitter_rng_);
  ms *= 1.0 + 0.5 * u;  // +/-50% jitter
  auto wait = milliseconds(static_cast<milliseconds::rep>(std::max(ms, 0.0)));
  if (steady_clock::now() + wait > deadline)
    throw DeadlineError("op deadline exhausted while backing off");
  std::this_thread::sleep_for(wait);
}

std::pair<Status, std::vector<std::uint8_t>> Client::call(
    Op op, std::span<const std::uint8_t> header, CallOpts opts,
    std::span<const std::uint8_t> body) {
  using clock = std::chrono::steady_clock;
  obs::ScopedTimer timer(*op_seconds_[static_cast<std::size_t>(op)]);
  const auto deadline = policy_.op_deadline.count() > 0
                            ? clock::now() + policy_.op_deadline
                            : clock::time_point::max();
  std::string last_failure;
  for (int attempt = 0;; ++attempt) {
    // Charge everything — connects, sends, stalls — against the deadline,
    // not just backoff sleeps: a retry loop whose every attempt times out
    // must stop at the deadline even though it never sleeps long.
    if (attempt > 0 && clock::now() >= deadline)
      throw DeadlineError("op deadline exhausted after " +
                          std::to_string(attempt) +
                          " attempts; last: " + last_failure);
    try {
      ensure_connected(deadline);
      auto [status, resp] = call_once(op, header, body);
      if (status == Status::kError)
        throw ServerError("server error: " +
                          std::string(resp.begin(), resp.end()));
      if (status == Status::kBadRequest)
        throw BadRequestError("server rejected request as malformed: " +
                              std::string(resp.begin(), resp.end()));
      if (status == Status::kCorrupt) {
        if (opts.corrupt_retryable) {
          // PUT: our request was mangled in flight; resend it.
          wire_corruptions_total_->inc();
          throw WireCorruption{};
        }
        if (!opts.corrupt_returns) {
          corrupt_blocks_total_->inc();
          throw CorruptBlockError("block failed its checksum at rest");
        }
      }
      if (opts.checksummed && status == Status::kOk) {
        if (resp.size() < 4)
          throw ProtocolError("response missing its checksum");
        std::uint32_t declared = read_le32(resp);
        resp.erase(resp.begin(), resp.begin() + 4);
        if (util::crc32(resp) != declared) {
          wire_corruptions_total_->inc();
          throw WireCorruption{};
        }
      }
      return {status, std::move(resp)};
    } catch (const TimeoutError& e) {
      timeouts_total_->inc();
      last_failure = e.what();
      drop_connection();
    } catch (const TransportError& e) {
      last_failure = e.what();
      drop_connection();
    } catch (const std::system_error& e) {
      last_failure = e.what();
      drop_connection();
    } catch (const WireCorruption&) {
      last_failure = "response failed its checksum in flight";
      // Framing survived; keep the connection.
    }
    // ProtocolError / BadRequestError / ServerError / CorruptBlockError /
    // DeadlineError propagate to the caller: retrying cannot change the
    // answer.
    if (attempt + 1 >= policy_.max_attempts)
      throw TransportError("op failed after " +
                           std::to_string(policy_.max_attempts) +
                           " attempts; last: " + last_failure);
    retries_total_->inc();
    backoff(attempt, deadline);
  }
}

std::pair<Status, std::vector<std::uint8_t>> Client::call_once(
    Op op, std::span<const std::uint8_t> header,
    std::span<const std::uint8_t> body) {
  std::uint8_t op_raw = static_cast<std::uint8_t>(op);
  std::uint32_t len = static_cast<std::uint32_t>(header.size() + body.size());
  conn_.send_all(&op_raw, 1);
  conn_.send_all(&len, 4);
  conn_.send_all(header.data(), header.size());
  conn_.send_all(body.data(), body.size());

  std::uint8_t status_raw;
  if (!conn_.recv_all(&status_raw, 1))
    throw TransportError("server closed the connection");
  std::uint32_t rlen;
  if (!conn_.recv_all(&rlen, 4))
    throw TransportError("server closed mid-response");
  // Check the length prefix against the frame cap *before* sizing the
  // response buffer: a garbage length must not drive an unbounded allocation.
  if (rlen > kMaxFrameBytes) throw ProtocolError("malformed response length");
  std::optional<Status> status = parse_status(status_raw);
  if (!status) throw ProtocolError("unknown response status");
  std::vector<std::uint8_t> resp(rlen);
  if (rlen && !conn_.recv_all(resp.data(), rlen))
    throw TransportError("truncated response");
  return {*status, std::move(resp)};
}

void Client::ping() { call(Op::kPing, {}); }

std::uint32_t Client::put(const BlockKey& key,
                          std::span<const std::uint8_t> bytes) {
  const std::uint32_t crc = util::crc32(bytes);
  Writer w;
  w.key(key);
  w.u32(crc);
  call(Op::kPut, w.data(), {.corrupt_retryable = true}, bytes);
  return crc;
}

std::optional<std::vector<std::uint8_t>> Client::get(const BlockKey& key) {
  Writer w;
  w.key(key);
  auto [status, body] = call(Op::kGet, w.data(), {.checksummed = true});
  if (status == Status::kNotFound) return std::nullopt;
  return std::move(body);
}

std::optional<std::vector<std::uint8_t>> Client::get_range(
    const BlockKey& key, std::uint32_t offset, std::uint32_t length) {
  Writer w;
  w.key(key);
  w.u32(offset);
  w.u32(length);
  auto [status, body] = call(Op::kGetRange, w.data(), {.checksummed = true});
  if (status == Status::kNotFound) return std::nullopt;
  return std::move(body);
}

std::optional<std::vector<std::uint8_t>> Client::project(
    const BlockKey& key, std::uint32_t unit_bytes, const Projection& outputs) {
  Writer w;
  w.key(key);
  w.u32(unit_bytes);
  w.u16(static_cast<std::uint16_t>(outputs.size()));
  for (const auto& terms : outputs) {
    w.u16(static_cast<std::uint16_t>(terms.size()));
    for (auto [pos, coeff] : terms) {
      w.u32(pos);
      w.u8(coeff);
    }
  }
  auto [status, body] = call(Op::kProject, w.data(), {.checksummed = true});
  if (status == Status::kNotFound) return std::nullopt;
  return std::move(body);
}

bool Client::remove(const BlockKey& key) {
  Writer w;
  w.key(key);
  auto [status, body] = call(Op::kDelete, w.data());
  return status == Status::kOk;
}

Client::Stats Client::stats() {
  auto [status, body] = call(Op::kStats, {});
  Reader r(body);
  Stats s;
  s.blocks = r.u32();
  s.bytes = r.u64();
  return s;
}

std::string Client::metrics_text() {
  auto [status, body] = call(Op::kMetrics, {});
  return std::string(body.begin(), body.end());
}

BlockHealth Client::verify(const BlockKey& key, std::uint32_t* crc_out) {
  Writer w;
  w.key(key);
  auto [status, body] = call(Op::kVerify, w.data(), {.corrupt_returns = true});
  if (status == Status::kNotFound) return BlockHealth::kMissing;
  if (crc_out && body.size() >= 4) *crc_out = read_le32(body);
  return status == Status::kCorrupt ? BlockHealth::kCorrupt : BlockHealth::kOk;
}

}  // namespace carousel::net
