// Shared helpers for the test suite.

#ifndef CAROUSEL_TESTS_TEST_UTIL_H
#define CAROUSEL_TESTS_TEST_UTIL_H

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace carousel::test {

/// Deterministic pseudo-random byte buffer.
inline std::vector<std::uint8_t> random_bytes(std::size_t n,
                                              std::uint32_t seed = 42) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Splits a contiguous buffer into `count` equal mutable spans.
inline std::vector<std::span<std::uint8_t>> split_spans(
    std::vector<std::uint8_t>& buf, std::size_t count) {
  std::vector<std::span<std::uint8_t>> out;
  const std::size_t each = buf.size() / count;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(buf.data() + i * each, each);
  return out;
}

/// Const view of the same split.
inline std::vector<std::span<const std::uint8_t>> split_const_spans(
    const std::vector<std::uint8_t>& buf, std::size_t count) {
  std::vector<std::span<const std::uint8_t>> out;
  const std::size_t each = buf.size() / count;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(buf.data() + i * each, each);
  return out;
}

/// Copy of `views` (one span per block) keeping only the blocks in `ids`;
/// every other entry is empty, which decode_stripe reads as unusable.
inline std::vector<std::span<const std::uint8_t>> keep_only(
    const std::vector<std::span<const std::uint8_t>>& views,
    const std::vector<std::size_t>& ids) {
  std::vector<std::span<const std::uint8_t>> out(views.size());
  for (std::size_t id : ids) out[id] = views[id];
  return out;
}

/// All size-r subsets of {0, ..., n-1}.
inline std::vector<std::vector<std::size_t>> subsets(std::size_t n,
                                                     std::size_t r) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> cur;
  auto rec = [&](auto&& self, std::size_t start) -> void {
    if (cur.size() == r) {
      out.push_back(cur);
      return;
    }
    for (std::size_t i = start; i + (r - cur.size()) <= n; ++i) {
      cur.push_back(i);
      self(self, i + 1);
      cur.pop_back();
    }
  };
  rec(rec, 0);
  return out;
}

/// A loopback port that refuses every connection and that no one else can
/// take: the socket is bound to 127.0.0.1 and never listens, and holds the
/// port until destroyed.
class ClosedPort {
 public:
  /// A fresh ephemeral port, bound without SO_REUSEADDR.  A freshly freed
  /// ephemeral port would not do as a "dead server" — a concurrently
  /// running test may bind it again.
  ClosedPort() : ClosedPort(0, /*reuse=*/false) {}

  /// Holds `port`, the port of a server the test just killed, until the
  /// test revives the server there: destroy the holder, then rebind.  In
  /// between, a process that would otherwise take the freed port cannot
  /// answer in the dead server's place.  Binds with SO_REUSEADDR, as
  /// TcpListener::bind does, so the dead server's TIME_WAIT connections do
  /// not block it.
  explicit ClosedPort(std::uint16_t port) : ClosedPort(port, /*reuse=*/true) {}

  ~ClosedPort() { ::close(fd_); }
  ClosedPort(const ClosedPort&) = delete;
  ClosedPort& operator=(const ClosedPort&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  ClosedPort(std::uint16_t port, bool reuse)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("ClosedPort: socket() failed");
    int one = 1;
    if (reuse) ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    socklen_t len = sizeof addr;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd_);
      throw std::runtime_error("ClosedPort: bind() of port " +
                               std::to_string(port) + " failed");
    }
    port_ = ntohs(addr.sin_port);
  }

  int fd_;
  std::uint16_t port_ = 0;
};

}  // namespace carousel::test

#endif  // CAROUSEL_TESTS_TEST_UTIL_H
