// Networked-prototype tests: real block servers on loopback sockets, real
// bytes over the wire.  The repair test asserts the paper's Fig. 7 traffic
// numbers as actually-transferred TCP payloads.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <thread>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/errors.h"
#include "net/fault.h"
#include "net/scrubber.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "storage/erasure_file.h"
#include "util/crc32.h"
#include "test_util.h"

namespace carousel::net {
namespace {

using codes::Byte;
using test::random_bytes;

/// `reg`'s carousel_client_<what>_total: the one count of a client failure
/// event, shared by every client (and store) reporting into `reg`.
std::uint64_t client_count(obs::MetricsRegistry& reg,
                           const std::string& what) {
  return reg.counter("carousel_client_" + what + "_total").value();
}

TEST(Socket, ConnectSendReceive) {
  TcpListener listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  ASSERT_GT(listener.port(), 0);
  std::thread server([&] {
    TcpConn c = listener.accept();
    ASSERT_TRUE(c.valid());
    char buf[5];
    ASSERT_TRUE(c.recv_all(buf, 5));
    c.send_all(buf, 5);  // echo
  });
  TcpConn client = TcpConn::connect(listener.port());
  client.send_all("hello", 5);
  char echo[5];
  ASSERT_TRUE(client.recv_all(echo, 5));
  EXPECT_EQ(std::string(echo, 5), "hello");
  EXPECT_EQ(client.bytes_sent(), 5u);
  EXPECT_EQ(client.bytes_received(), 5u);
  server.join();
}

TEST(Socket, RecvAllReportsCleanEof) {
  TcpListener listener = TcpListener::bind(0);
  std::thread server([&] {
    TcpConn c = listener.accept();
    c.close();
  });
  TcpConn client = TcpConn::connect(listener.port());
  char b;
  EXPECT_FALSE(client.recv_all(&b, 1));
  server.join();
}

TEST(BlockServerTest, PutGetDeleteStats) {
  BlockServer server;
  Client client(server.port());
  client.ping();
  BlockKey key{1, 0, 3};
  auto data = random_bytes(1000);
  client.put(key, data);
  EXPECT_EQ(server.block_count(), 1u);
  EXPECT_EQ(server.stored_bytes(), 1000u);
  auto got = client.get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
  EXPECT_FALSE(client.get(BlockKey{1, 0, 4}).has_value());
  auto range = client.get_range(key, 100, 50);
  ASSERT_TRUE(range.has_value());
  EXPECT_TRUE(std::equal(range->begin(), range->end(), data.begin() + 100));
  auto st = client.stats();
  EXPECT_EQ(st.blocks, 1u);
  EXPECT_EQ(st.bytes, 1000u);
  EXPECT_TRUE(client.remove(key));
  EXPECT_FALSE(client.remove(key));
  EXPECT_EQ(server.block_count(), 0u);
}

TEST(BlockServerTest, OverwriteReplaces) {
  BlockServer server;
  Client client(server.port());
  BlockKey key{2, 1, 0};
  client.put(key, random_bytes(64, 1));
  auto newer = random_bytes(32, 2);
  client.put(key, newer);
  EXPECT_EQ(*client.get(key), newer);
}

TEST(BlockServerTest, ProjectComputesLinearCombos) {
  BlockServer server;
  Client client(server.port());
  BlockKey key{3, 0, 0};
  const std::size_t ub = 128, units = 4;
  auto block = random_bytes(units * ub, 5);
  client.put(key, block);
  // out0 = 3*unit1 + 7*unit3 ; out1 = unit0
  Client::Projection proj = {{{1, 3}, {3, 7}}, {{0, 1}}};
  auto resp = client.project(key, ub, proj);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->size(), 2 * ub);
  for (std::size_t i = 0; i < ub; ++i) {
    Byte expect = gf::mul(3, block[ub + i]) ^ gf::mul(7, block[3 * ub + i]);
    ASSERT_EQ((*resp)[i], expect) << i;
    ASSERT_EQ((*resp)[ub + i], block[i]);
  }
}

TEST(BlockServerTest, ProjectValidatesInput) {
  BlockServer server;
  Client client(server.port());
  BlockKey key{4, 0, 0};
  client.put(key, random_bytes(100));
  EXPECT_THROW(client.project(key, 33, {{{0, 1}}}), std::runtime_error);
  EXPECT_THROW(client.project(key, 50, {{{9, 1}}}), std::runtime_error);
  EXPECT_FALSE(client.project(BlockKey{9, 9, 9}, 10, {}).has_value());
}

TEST(BlockServerTest, RangeValidation) {
  BlockServer server;
  Client client(server.port());
  BlockKey key{5, 0, 0};
  client.put(key, random_bytes(100));
  EXPECT_THROW(client.get_range(key, 90, 20), std::runtime_error);
}

TEST(BlockServerTest, RangeEdgeCases) {
  BlockServer server;
  obs::MetricsRegistry reg;
  Client client(server.port(), {}, &reg);
  BlockKey key{6, 0, 0};
  auto data = random_bytes(100, 6);
  client.put(key, data);
  // Zero-length ranges are valid anywhere in [0, size] — including at the
  // exact end, where [100, 100) is empty but in bounds.
  auto empty = client.get_range(key, 0, 0);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  auto at_end = client.get_range(key, 100, 0);
  ASSERT_TRUE(at_end.has_value());
  EXPECT_TRUE(at_end->empty());
  // A range ending exactly at the block end returns the last bytes.
  auto tail = client.get_range(key, 90, 10);
  ASSERT_TRUE(tail.has_value());
  ASSERT_EQ(tail->size(), 10u);
  EXPECT_TRUE(std::equal(tail->begin(), tail->end(), data.begin() + 90));
  // Off by one past the end — in either operand — is a server-side
  // rejection after exactly one attempt, never retried as if transient.
  EXPECT_THROW(client.get_range(key, 91, 10), ServerError);
  EXPECT_THROW(client.get_range(key, 100, 1), ServerError);
  EXPECT_EQ(client_count(reg, "retries"), 0u);
  // The rejections left the connection frame-aligned: the next request on
  // this same client parses cleanly.
  auto again = client.get_range(key, 0, 100);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, data);
}

TEST(BlockServerTest, ManyConcurrentClients) {
  BlockServer server;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&server, t] {
      Client client(server.port());
      for (std::uint32_t i = 0; i < 20; ++i) {
        BlockKey key{static_cast<std::uint32_t>(t), i, 0};
        auto data = random_bytes(256, t * 100 + i);
        client.put(key, data);
        auto got = client.get(key);
        ASSERT_TRUE(got && *got == data);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(server.block_count(), 8u * 20u);
}

// ---- Full distributed store -----------------------------------------------

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 12; ++i)
      servers_.push_back(std::make_unique<BlockServer>());
    for (const auto& s : servers_) ports_.push_back(s->port());
  }
  std::vector<std::unique_ptr<BlockServer>> servers_;
  std::vector<std::uint16_t> ports_;
};

TEST_F(StoreTest, PutReadRoundTrip) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 256;
  // Block sizes the stripe layout cannot hold are refused up front.
  EXPECT_THROW(CarouselStore(code, ports_, 0), std::invalid_argument);
  EXPECT_THROW(CarouselStore(code, ports_, code.s() * 4 + 1),
               std::invalid_argument);
  CarouselStore store(code, ports_, block);
  // A ragged 3-stripe file, an exact 2-stripe multiple (no padding stripe),
  // and an empty file (one zero-padded stripe).
  const std::vector<std::vector<Byte>> files{
      random_bytes(3 * code.k() * block - 777, 21),
      random_bytes(2 * code.k() * block, 24), {}};
  const std::size_t want_stripes[] = {3, 2, 1};
  for (std::uint32_t id = 0; id < files.size(); ++id) {
    const auto& file = files[id];
    EXPECT_EQ(store.put_file(id, file), want_stripes[id]);
    // Every stored block is ErasureFile's block, byte for byte.
    storage::ErasureFile ef(code, file, block);
    for (std::uint32_t s = 0; s < want_stripes[id]; ++s)
      for (std::uint32_t i = 0; i < code.n(); ++i) {
        Client c(ports_[store.placement_of(id, s, i)]);
        auto got = c.get(BlockKey{id, s, i});
        ASSERT_TRUE(got.has_value());
        const auto want = ef.block(s, i);
        EXPECT_TRUE(
            std::equal(got->begin(), got->end(), want.begin(), want.end()))
            << "file " << id << " stripe " << s << " block " << i;
      }
    EXPECT_EQ(store.read_file(id, file.size()), file);
  }
  // Every server holds one block per stripe.
  for (const auto& s : servers_) EXPECT_EQ(s->block_count(), 3u + 2u + 1u);
}

TEST_F(StoreTest, DegradedReadUsesPatternTraffic) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 512;
  CarouselStore store(code, ports_, block);
  auto file = random_bytes(code.k() * block, 22);  // one stripe
  store.put_file(7, file);

  ASSERT_TRUE(store.drop_block(7, 0, 2));
  ASSERT_TRUE(store.drop_block(7, 0, 6));
  std::uint64_t before = store.bytes_received();
  EXPECT_EQ(store.read_file(7, file.size()), file);
  std::uint64_t wire = store.bytes_received() - before;
  // Each of the p sources ships k/p of a block (plus small frame headers).
  double expected = double(code.k()) * block;
  EXPECT_NEAR(double(wire), expected, expected * 0.05);
}

TEST_F(StoreTest, RepairTrafficOnTheWireIsOptimal) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 512;
  CarouselStore store(code, ports_, block);
  auto file = random_bytes(code.k() * block, 23);
  store.put_file(9, file);

  ASSERT_TRUE(store.drop_block(9, 0, 4));
  std::uint64_t fetched = store.repair_block(9, 0, 4);
  // Fig. 7 on real sockets: d/(d-k+1) = 2 block sizes, not k = 6.
  EXPECT_EQ(fetched, 2u * block);
  EXPECT_EQ(store.read_file(9, file.size()), file);

  // The rebuilt block is bit-identical: drop nothing, fetch it raw.
  Client direct(ports_[4 % ports_.size()]);
  auto rebuilt = direct.get(BlockKey{9, 0, 4});
  ASSERT_TRUE(rebuilt.has_value());
  codes::Carousel verify_code(12, 6, 10, 12);
  storage::ErasureFile ef(verify_code, file, block);
  EXPECT_TRUE(std::equal(rebuilt->begin(), rebuilt->end(),
                         ef.block(0, 4).begin()));
}

TEST_F(StoreTest, RepairFallsBackWhenHelpersAreScarce) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  CarouselStore store(code, ports_, block);
  auto file = random_bytes(code.k() * block, 24);
  store.put_file(11, file);
  for (std::uint32_t i : {1u, 3u, 5u})  // 3 losses: only 9 < d survivors
    ASSERT_TRUE(store.drop_block(11, 0, i));
  std::uint64_t fetched = store.repair_block(11, 0, 1);
  EXPECT_EQ(fetched, std::uint64_t(code.k()) * block);  // whole-block path
  store.repair_block(11, 0, 3);
  store.repair_block(11, 0, 5);
  EXPECT_EQ(store.read_file(11, file.size()), file);
}

TEST_F(StoreTest, ReadFallsBackToWholeBlocksWhenParityGone) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 128;
  CarouselStore store(code, ports_, block);
  auto file = random_bytes(code.k() * block, 25);
  store.put_file(13, file);
  // Lose a data block AND both pure-parity blocks: §VII path impossible,
  // whole-block MDS decode must kick in.
  ASSERT_TRUE(store.drop_block(13, 0, 0));
  ASSERT_TRUE(store.drop_block(13, 0, 10));
  ASSERT_TRUE(store.drop_block(13, 0, 11));
  EXPECT_EQ(store.read_file(13, file.size()), file);
}

TEST_F(StoreTest, UnrecoverableReadThrows) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 64;
  CarouselStore store(code, ports_, block);
  auto file = random_bytes(code.k() * block, 26);
  store.put_file(15, file);
  for (std::uint32_t i = 0; i < 7; ++i) store.drop_block(15, 0, i);
  EXPECT_THROW(store.read_file(15, file.size()), std::runtime_error);
}

TEST(ClientResilience, ReconnectsAfterServerRestart) {
  auto server = std::make_unique<BlockServer>();
  std::uint16_t port = server->port();
  Client client(port);
  BlockKey key{1, 0, 0};
  auto data = random_bytes(64);
  client.put(key, data);
  // Restart the server on the same port: the old connection is dead, the
  // store is empty, but the client must transparently reconnect.
  server->stop();
  server = std::make_unique<BlockServer>(port);
  EXPECT_FALSE(client.get(key).has_value());  // reconnected, block gone
  client.put(key, data);
  EXPECT_EQ(*client.get(key), data);
}

TEST(ClientResilience, CanBeCreatedWhileServerIsDown) {
  // client.h promises the connection is lazy: a client constructed while
  // its server is down is fine, fails with a clean transport error until
  // the server appears, and then just works — no reconstruction needed.
  std::uint16_t port = 0;
  {
    BlockServer throwaway;  // grab an ephemeral port that is then free
    port = throwaway.port();
  }
  Client client(port, RetryPolicy{.max_attempts = 1,
                                  .io_timeout = std::chrono::milliseconds(250),
                                  .op_deadline =
                                      std::chrono::milliseconds(2000)});
  EXPECT_THROW(client.ping(), TransportError);  // nobody listening yet
  BlockServer server(port);
  client.ping();  // the same client object, no intervention
  BlockKey key{8, 0, 0};
  auto data = random_bytes(128, 9);
  client.put(key, data);
  EXPECT_EQ(*client.get(key), data);
}

TEST(ClientResilience, StalledConnectIsChargedAgainstTheOpDeadline) {
  // Regression: the op deadline used to be enforced only in backoff sleeps,
  // so time burned *connecting* — a peer in SYN purgatory, a full accept
  // queue — was free, and a call could outlive its deadline by the kernel's
  // multi-minute connect retry cycle.  Build that exact trap: a listener
  // with a minimal accept queue that is never drained, pre-saturated so the
  // client's handshake stalls, and demand the call dies at the deadline.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 0), 0);  // smallest queue the kernel allows
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  // Saturate the accept queue with connections nobody will ever accept, so
  // the client's SYN gets no room and its handshake hangs.
  std::vector<int> primers;
  for (int i = 0; i < 4; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    primers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  RetryPolicy p;
  p.max_attempts = 100;  // the deadline, not the attempt cap, must stop it
  p.io_timeout = std::chrono::milliseconds(150);
  p.base_backoff = std::chrono::milliseconds(1);
  p.max_backoff = std::chrono::milliseconds(5);
  p.op_deadline = std::chrono::milliseconds(400);
  Client client(port, p);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.ping(), DeadlineError);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Generous bound: well past the 400 ms deadline plus one capped connect,
  // far under the seconds-to-minutes a kernel-paced connect would take.
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
  for (int fd : primers) ::close(fd);
  ::close(lfd);
}

TEST(ProtocolRobustness, GarbageFramesDropConnectionNotServer) {
  BlockServer server;
  {
    // Oversized length field: typed kBadRequest answer, then the server
    // drops this connection only (it cannot resync past unread bytes).
    TcpConn raw = TcpConn::connect(server.port());
    std::uint8_t op = 2;
    std::uint32_t len = 0xFFFFFFFF;
    raw.send_all(&op, 1);
    raw.send_all(&len, 4);
    std::uint8_t status;
    ASSERT_TRUE(raw.recv_all(&status, 1));
    EXPECT_EQ(status, static_cast<std::uint8_t>(Status::kBadRequest));
    std::uint32_t rlen;
    ASSERT_TRUE(raw.recv_all(&rlen, 4));
    std::vector<char> msg(rlen);
    if (rlen) {
      ASSERT_TRUE(raw.recv_all(msg.data(), rlen));
    }
    char b;
    EXPECT_FALSE(raw.recv_all(&b, 1));  // connection closed on us
  }
  {
    // Unknown opcode: polite kBadRequest response, connection stays up.
    TcpConn raw = TcpConn::connect(server.port());
    std::uint8_t op = 99;
    std::uint32_t len = 0;
    raw.send_all(&op, 1);
    raw.send_all(&len, 4);
    std::uint8_t status;
    ASSERT_TRUE(raw.recv_all(&status, 1));
    EXPECT_EQ(status, static_cast<std::uint8_t>(Status::kBadRequest));
  }
  // The server still serves normal clients.
  Client client(server.port());
  client.ping();
  client.put(BlockKey{5, 5, 5}, random_bytes(10));
  EXPECT_TRUE(client.get(BlockKey{5, 5, 5}).has_value());
}

TEST(ProtocolRobustness, TruncatedPayloadHandled) {
  BlockServer server;
  {
    // Claim 100 payload bytes but send 3 and hang up: server must not block
    // forever or crash.
    TcpConn raw = TcpConn::connect(server.port());
    std::uint8_t op = 1;
    std::uint32_t len = 100;
    raw.send_all(&op, 1);
    raw.send_all(&len, 4);
    raw.send_all("abc", 3);
    raw.close();
  }
  Client client(server.port());
  client.ping();  // still alive
}

TEST_F(StoreTest, FewServersRoundRobinPlacement) {
  // 3 servers for 12 blocks: 4 blocks per server, everything still works.
  std::vector<std::uint16_t> three(ports_.begin(), ports_.begin() + 3);
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 64;
  CarouselStore store(code, three, block);
  auto file = random_bytes(code.k() * block, 27);
  store.put_file(17, file);
  EXPECT_EQ(servers_[0]->block_count(), 4u);
  for (std::uint32_t i = 0; i < code.n(); ++i)
    EXPECT_EQ(store.placement_of(17, 0, i), i % 3);
  EXPECT_EQ(store.read_file(17, file.size()), file);
}

// ---- Fault tolerance ------------------------------------------------------

// Snappy retry policy for failure tests: fast backoff, tight socket
// timeouts, bounded deadline — so injected faults resolve in milliseconds.
RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.io_timeout = std::chrono::milliseconds(250);
  p.base_backoff = std::chrono::milliseconds(2);
  p.max_backoff = std::chrono::milliseconds(20);
  p.op_deadline = std::chrono::milliseconds(3000);
  return p;
}

TEST(Checksum, VerifyAuditsWithoutTransfer) {
  BlockServer server;
  Client client(server.port(), fast_policy());
  BlockKey key{1, 0, 0};
  auto data = random_bytes(4096, 31);
  client.put(key, data);
  std::uint64_t before = client.bytes_received();
  std::uint32_t crc = 0;
  EXPECT_EQ(client.verify(key, &crc), BlockHealth::kOk);
  EXPECT_EQ(crc, util::crc32(data));
  // The audit moved only a status frame + u32, never the 4 KiB block.
  EXPECT_LT(client.bytes_received() - before, 64u);
  EXPECT_EQ(client.verify(BlockKey{9, 9, 9}), BlockHealth::kMissing);
}

TEST(Checksum, AtRestCorruptionSurfacesAsCorruptBlockError) {
  BlockServer server;
  obs::MetricsRegistry reg;
  Client client(server.port(), fast_policy(), &reg);
  BlockKey key{2, 0, 0};
  auto data = random_bytes(1024, 32);
  client.put(key, data);
  ASSERT_TRUE(server.corrupt_block(key, 100));
  EXPECT_EQ(client.verify(key), BlockHealth::kCorrupt);
  EXPECT_THROW(client.get(key), CorruptBlockError);
  EXPECT_THROW(client.get_range(key, 0, 10), CorruptBlockError);
  EXPECT_THROW(client.project(key, 256, {{{0, 1}}}), CorruptBlockError);
  EXPECT_GE(client_count(reg, "corrupt_blocks"), 3u);
  // A fresh PUT heals the block.
  client.put(key, data);
  EXPECT_EQ(client.verify(key), BlockHealth::kOk);
  EXPECT_EQ(*client.get(key), data);
}

TEST(FaultInjection, RefusalIsServerErrorNotRetried) {
  BlockServer server;
  auto plan = std::make_shared<FaultPlan>(1);
  plan->add({.action = FaultAction::kRefuse, .op = Op::kPing, .max_hits = 1});
  server.set_fault_plan(plan);
  obs::MetricsRegistry reg;
  Client client(server.port(), fast_policy(), &reg);
  EXPECT_THROW(client.ping(), ServerError);
  EXPECT_EQ(client_count(reg, "retries"), 0u);  // refusals are never retried
  client.ping();  // rule exhausted: server healthy again
  EXPECT_EQ(plan->injected(), 1u);
}

TEST(FaultInjection, DeterministicReplayFromSeed) {
  // The same seeded plan against the same request sequence makes identical
  // decisions — failures found once can be replayed exactly.
  auto run = [](std::uint64_t seed) {
    BlockServer server;
    auto plan = std::make_shared<FaultPlan>(seed);
    plan->add({.action = FaultAction::kRefuse,
               .op = Op::kPing,
               .max_hits = 1000,
               .probability = 0.5});
    server.set_fault_plan(plan);
    Client client(server.port(), fast_policy());
    std::vector<bool> refused;
    for (int i = 0; i < 32; ++i) {
      try {
        client.ping();
        refused.push_back(false);
      } catch (const ServerError&) {
        refused.push_back(true);
      }
    }
    return refused;
  };
  auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // and a different seed actually changes the schedule
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjection, DroppedConnectionIsRetriedTransparently) {
  BlockServer server;
  auto plan = std::make_shared<FaultPlan>(7);
  plan->add({.action = FaultAction::kDropBeforeResponse,
             .op = Op::kPut,
             .max_hits = 1});
  server.set_fault_plan(plan);
  obs::MetricsRegistry reg;
  Client client(server.port(), fast_policy(), &reg);
  BlockKey key{3, 0, 0};
  auto data = random_bytes(512, 33);
  client.put(key, data);  // first attempt dropped unanswered; retry lands
  EXPECT_GE(client_count(reg, "retries"), 1u);
  EXPECT_GE(client_count(reg, "reconnects"), 1u);
  EXPECT_EQ(*client.get(key), data);
}

TEST(FaultInjection, StalledResponseTimesOutAndRetries) {
  BlockServer server;
  auto plan = std::make_shared<FaultPlan>(7);
  plan->add({.action = FaultAction::kDelay,
             .op = Op::kGet,
             .max_hits = 1,
             .delay_ms = 2000});
  server.set_fault_plan(plan);
  RetryPolicy policy = fast_policy();
  policy.io_timeout = std::chrono::milliseconds(60);
  obs::MetricsRegistry reg;
  Client client(server.port(), policy, &reg);
  BlockKey key{4, 0, 0};
  auto data = random_bytes(256, 34);
  client.put(key, data);
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(*client.get(key), data);  // times out once, then succeeds
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(client_count(reg, "timeouts"), 1u);
  EXPECT_GE(client_count(reg, "retries"), 1u);
  // The stall never runs its full 2 s: the timeout cut it off.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
}

TEST(FaultInjection, WireCorruptionDetectedByChecksumAndRetried) {
  BlockServer server;
  auto plan = std::make_shared<FaultPlan>(7);
  plan->add({.action = FaultAction::kCorruptPayload,
             .op = Op::kGet,
             .max_hits = 1,
             .corrupt_offset = 37});
  server.set_fault_plan(plan);
  obs::MetricsRegistry reg;
  Client client(server.port(), fast_policy(), &reg);
  BlockKey key{5, 0, 0};
  auto data = random_bytes(1024, 35);
  client.put(key, data);
  EXPECT_EQ(*client.get(key), data);  // flipped byte caught, clean on retry
  EXPECT_EQ(client_count(reg, "wire_corruptions"), 1u);
}

TEST(ClientErrors, ProtocolViolationsAreNotBlindlyRetried) {
  // A fake server that answers every request with a garbage length field.
  // The old client classified this as retryable and resent the request; the
  // taxonomy says ProtocolError, thrown after exactly one attempt.
  TcpListener listener = TcpListener::bind(0);
  std::atomic<int> requests{0};
  std::thread fake([&] {
    TcpConn c = listener.accept();
    for (;;) {
      std::uint8_t op;
      if (!c.recv_all(&op, 1)) return;
      std::uint32_t len;
      if (!c.recv_all(&len, 4)) return;
      std::vector<std::uint8_t> payload(len);
      if (len && !c.recv_all(payload.data(), len)) return;
      ++requests;
      std::uint8_t status = 0;
      std::uint32_t rlen = 0xFFFFFFFF;  // violates kMaxFrameBytes
      c.send_all(&status, 1);
      c.send_all(&rlen, 4);
    }
  });
  {
    Client client(listener.port(), fast_policy());
    EXPECT_THROW(client.ping(), ProtocolError);
  }
  listener.close();
  fake.join();
  EXPECT_EQ(requests.load(), 1);  // no blind retry of a protocol violation
}

TEST(BlockServerTest, ReapsFinishedConnections) {
  BlockServer server;
  for (int i = 0; i < 24; ++i) {
    Client client(server.port());
    client.ping();
  }  // each session closed here
  // Let the server notice the hangups, then accept once more: the accept
  // loop reaps every finished session before tracking the new one.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Client last(server.port());
  last.ping();
  EXPECT_LE(server.session_count(), 3u);
}

// ---- Store failover and scrubbing -----------------------------------------

TEST_F(StoreTest, ReadFailsOverWhenServerKilledMidRead) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 128;
  obs::MetricsRegistry reg;
  StoreOptions opts{fast_policy(), &reg};
  CarouselStore store(code, ports_, block, opts);
  auto file = random_bytes(2 * code.k() * block, 41);  // two stripes
  store.put_file(21, file);
  EXPECT_EQ(store.read_file(21, file.size()), file);

  // Kill one data-carrying server outright (no drain): reads against it get
  // connection-refused / EOF, and the store re-plans onto the §VII path.
  servers_[3]->stop();
  EXPECT_EQ(store.read_file(21, file.size()), file);
  EXPECT_GE(client_count(reg, "retries"), 1u);
}

TEST_F(StoreTest, ReadFailsOverOnAtRestCorruption) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 128;
  obs::MetricsRegistry reg;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy(), &reg});
  auto file = random_bytes(code.k() * block, 42);
  store.put_file(23, file);
  // Flip a byte of block 1 behind the checksum: the degraded read must treat
  // it as an erasure and still return byte-identical contents.
  ASSERT_TRUE(servers_[1]->corrupt_block(BlockKey{23, 0, 1}, 5));
  EXPECT_EQ(store.read_file(23, file.size()), file);
  EXPECT_GE(client_count(reg, "corrupt_blocks"), 1u);
  EXPECT_EQ(store.verify_block(23, 0, 1), BlockState::kCorrupt);
}

TEST_F(StoreTest, RepairDegradesWhenHelperDiesMidRepair) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  auto file = random_bytes(code.k() * block, 43);
  store.put_file(25, file);
  ASSERT_TRUE(store.drop_block(25, 0, 4));

  // Server 2 answers the VERIFY probe (so it is chosen as an MSR helper)
  // but drops every PROJECT unanswered: the helper dies mid-repair.  Eleven
  // blocks verified, so the re-plan swaps in the eleventh as the d-th helper
  // and the repair still moves only the optimal d/(d-k+1) block sizes.
  auto plan = std::make_shared<FaultPlan>(11);
  plan->add({.action = FaultAction::kDropBeforeResponse,
             .op = Op::kProject,
             .max_hits = 1000});
  servers_[2]->set_fault_plan(plan);

  std::uint64_t fetched = store.repair_block(25, 0, 4);
  EXPECT_GE(plan->injected(), 1u);  // the MSR attempt really was sabotaged
  EXPECT_EQ(fetched, 2u * block);
  servers_[2]->set_fault_plan(nullptr);
  EXPECT_EQ(store.verify_block(25, 0, 4), BlockState::kOk);
  EXPECT_EQ(store.read_file(25, file.size()), file);
}

// Paper §VI after Dimakis et al.: the d helpers ship their chunks at once,
// so a repair costs one helper's transfer, not d in a row.  Every server
// stalls VERIFY and PROJECT by D: the n-1 probes run as one round and the d
// PROJECTs as another, so the repair takes ~3 D (probes, PROJECTs, audit)
// where a serial walk takes 2d + 2 = 22 D — on the same wire traffic.
TEST_F(StoreTest, RepairRoundsRunConcurrently) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  obs::MetricsRegistry reg;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy(), &reg});
  auto file = random_bytes(code.k() * block, 49);
  store.put_file(37, file);
  ASSERT_TRUE(store.drop_block(37, 0, 4));

  const std::chrono::milliseconds stall(150);  // io_timeout is 250 ms
  for (auto& s : servers_) {
    auto plan = std::make_shared<FaultPlan>(17);
    for (Op op : {Op::kVerify, Op::kProject})
      plan->add({.action = FaultAction::kDelay,
                 .op = op,
                 .max_hits = 1000,
                 .delay_ms = static_cast<std::uint32_t>(stall.count())});
    s->set_fault_plan(plan);
  }
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t fetched = store.repair_block(37, 0, 4);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (auto& s : servers_) s->set_fault_plan(nullptr);

  EXPECT_LT(elapsed, 10 * stall);
  EXPECT_EQ(fetched, 2u * block);
  // n-1 probes plus the post-repair audit, and d PROJECTs.
  const obs::Snapshot snap = reg.snapshot();
  auto ops = [&snap](const char* op) {
    return snap.histograms
        .at(obs::labeled("carousel_client_op_seconds", "op", op))
        .count;
  };
  EXPECT_EQ(ops("verify"), 12u);
  EXPECT_EQ(ops("project"), 10u);
  EXPECT_EQ(store.read_file(37, file.size()), file);
}

// A helper lost with exactly d verified survivors: the re-plan has only d-1
// usable blocks, so plan_repair switches to k whole blocks, and the d-1
// chunks already fetched count as spent traffic.
TEST_F(StoreTest, RepairFallsBackToWholeBlocksWhenAHelperIsLostAtD) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  auto file = random_bytes(code.k() * block, 50);
  store.put_file(39, file);
  ASSERT_TRUE(store.drop_block(39, 0, 4));  // the target
  ASSERT_TRUE(store.drop_block(39, 0, 5));  // leaves exactly d survivors

  // Block 0, the first helper, drops every PROJECT unanswered.
  auto plan = std::make_shared<FaultPlan>(19);
  plan->add({.action = FaultAction::kDropBeforeResponse,
             .op = Op::kProject,
             .max_hits = 1000});
  servers_[0]->set_fault_plan(plan);

  const std::uint64_t fetched = store.repair_block(39, 0, 4);
  EXPECT_GE(plan->injected(), 1u);
  EXPECT_EQ(fetched, (code.d() - 1) * block / (code.d() - code.k() + 1) +
                         code.k() * block);
  servers_[0]->set_fault_plan(nullptr);
  EXPECT_EQ(store.verify_block(39, 0, 4), BlockState::kOk);
  EXPECT_EQ(store.read_file(39, file.size()), file);
}

TEST(Checksum, CorruptBlockWrapsOffsetAndRefusesEmptyBlocks) {
  BlockServer server;
  Client client(server.port(), fast_policy());
  BlockKey key{6, 0, 0};
  auto data = random_bytes(100, 32);
  client.put(key, data);

  // Any offset addresses a valid byte: 203 % 100 == 3.  Flipping the same
  // byte again (via offset 3 directly) restores the block exactly.
  ASSERT_TRUE(server.corrupt_block(key, 203));
  EXPECT_EQ(client.verify(key), BlockHealth::kCorrupt);
  ASSERT_TRUE(server.corrupt_block(key, 3));
  EXPECT_EQ(client.verify(key), BlockHealth::kOk);
  EXPECT_EQ(*client.get(key), data);

  // offset == size is the same byte as offset 0 (the documented wrap).
  ASSERT_TRUE(server.corrupt_block(key, data.size()));
  ASSERT_TRUE(server.corrupt_block(key, 0));
  EXPECT_EQ(client.verify(key), BlockHealth::kOk);

  // Unknown keys and empty blocks have no byte to flip: false, never an
  // out-of-range index, and the empty block stays healthy.
  EXPECT_FALSE(server.corrupt_block(BlockKey{9, 9, 9}, 0));
  BlockKey empty{6, 0, 1};
  client.put(empty, std::vector<std::uint8_t>{});
  EXPECT_FALSE(server.corrupt_block(empty, 0));
  EXPECT_FALSE(server.corrupt_block(empty, 17));
  EXPECT_EQ(client.verify(empty), BlockHealth::kOk);
}

TEST_F(StoreTest, ScrubberDetectsAndRepairsCorruption) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  auto file = random_bytes(code.k() * block, 44);
  store.put_file(27, file);

  ASSERT_TRUE(servers_[8]->corrupt_block(BlockKey{27, 0, 8}, 0));
  Scrubber scrubber(store);
  auto sweep = scrubber.run_once();
  const auto healed = scrubber.scheduler().stats();
  EXPECT_EQ(sweep.blocks_checked, std::uint64_t(code.n()));
  EXPECT_EQ(sweep.corrupt_found, 1u);
  EXPECT_EQ(healed.completed, 1u);
  EXPECT_EQ(healed.failed, 0u);
  // All helpers survived, so the heal used the MSR path: d/(d-k+1) = 2
  // block sizes, not k = 6.
  EXPECT_EQ(healed.bytes_moved, 2u * block);
  EXPECT_EQ(store.verify_block(27, 0, 8), BlockState::kOk);
  // A second sweep finds a fully healthy stripe.
  auto again = scrubber.run_once();
  EXPECT_EQ(again.ok, std::uint64_t(code.n()));
  EXPECT_EQ(scrubber.scheduler().stats().completed, healed.completed);
}

TEST_F(StoreTest, BackgroundScrubberHealsWhileRunning) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 64;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  auto file = random_bytes(code.k() * block, 45);
  store.put_file(29, file);
  ASSERT_TRUE(store.drop_block(29, 0, 6));

  Scrubber scrubber(store, Scrubber::Options{std::chrono::milliseconds(10)});
  scrubber.start();
  EXPECT_TRUE(scrubber.running());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrubber.scheduler().stats().completed < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  scrubber.stop();
  EXPECT_FALSE(scrubber.running());
  EXPECT_GE(scrubber.scheduler().stats().completed, 1u);
  EXPECT_EQ(store.verify_block(29, 0, 6), BlockState::kOk);
  EXPECT_EQ(store.read_file(29, file.size()), file);
}

TEST_F(StoreTest, ScrubberRecordsSweepDuration) {
  codes::Carousel code(12, 6, 10, 12);
  obs::MetricsRegistry reg;
  CarouselStore store(code, ports_, code.s() * 64,
                      StoreOptions{fast_policy(), &reg});
  auto file = random_bytes(code.k() * code.s() * 64, 47);
  store.put_file(33, file);

  Scrubber scrubber(store);
  scrubber.run_once();
  scrubber.run_once();
  auto hist = reg.snapshot().histograms.at("carousel_scrub_sweep_seconds");
  EXPECT_EQ(hist.count, 2u);  // one observation per sweep
  EXPECT_GT(hist.sum, 0.0);   // wall time, not zero-cost
}

// A sweep probes each stripe in one round.  Every server stalls VERIFY by
// D, so a sweep over S stripes takes about S D, where probing block by
// block takes S n D.
TEST_F(StoreTest, SweepProbesEachStripeInOneRound) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  const std::size_t stripes = 3;
  auto file = random_bytes(stripes * code.k() * block, 51);
  ASSERT_EQ(store.put_file(41, file), stripes);

  const std::chrono::milliseconds stall(100);  // io_timeout is 250 ms
  for (auto& s : servers_) {
    auto plan = std::make_shared<FaultPlan>(23);
    plan->add({.action = FaultAction::kDelay,
               .op = Op::kVerify,
               .max_hits = 1000,
               .delay_ms = static_cast<std::uint32_t>(stall.count())});
    s->set_fault_plan(plan);
  }
  Scrubber scrubber(store);
  const auto start = std::chrono::steady_clock::now();
  const auto sweep = scrubber.run_once();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (auto& s : servers_) s->set_fault_plan(nullptr);

  EXPECT_LT(elapsed, static_cast<int>(stripes + 1) * stall);
  EXPECT_EQ(sweep.blocks_checked, stripes * code.n());
  EXPECT_EQ(sweep.ok, stripes * code.n());
}

// probe_stripe reports each block's own state, from one VERIFY per block.
TEST_F(StoreTest, ProbeStripeReportsEveryBlockState) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 16;
  obs::MetricsRegistry reg;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy(), &reg});
  auto file = random_bytes(code.k() * block, 52);
  store.put_file(43, file);

  ASSERT_TRUE(store.drop_block(43, 0, 2));
  ASSERT_TRUE(servers_[5]->corrupt_block(BlockKey{43, 0, 5}, 3));
  servers_[9]->stop();
  test::ClosedPort held(ports_[9]);  // no other process answers for it

  auto verifies = [&reg] {
    const obs::Snapshot snap = reg.snapshot();
    auto it = snap.histograms.find(
        obs::labeled("carousel_client_op_seconds", "op", "verify"));
    return it == snap.histograms.end() ? std::uint64_t{0} : it->second.count;
  };
  const std::uint64_t before = verifies();
  const std::vector<BlockState> states = store.probe_stripe(43, 0);
  EXPECT_EQ(verifies() - before, code.n());
  ASSERT_EQ(states.size(), code.n());
  for (std::size_t i = 0; i < code.n(); ++i) {
    BlockState want = BlockState::kOk;
    if (i == 2) want = BlockState::kMissing;
    if (i == 5) want = BlockState::kCorrupt;
    if (i == 9) want = BlockState::kUnreachable;
    EXPECT_EQ(states[i], want) << "block " << i;
  }
}

// put_file PUTs a stripe's n blocks as one round.  Every server stalls its
// PUT answer by D, so a one-stripe put takes about D, where PUTting block
// by block takes n D.
TEST_F(StoreTest, PutRunsAStripeInOneRound) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 16;
  obs::MetricsRegistry reg;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy(), &reg});
  auto file = random_bytes(code.k() * block, 53);

  const std::chrono::milliseconds stall(100);  // io_timeout is 250 ms
  for (auto& s : servers_) {
    auto plan = std::make_shared<FaultPlan>(29);
    plan->add({.action = FaultAction::kDelay,
               .op = Op::kPut,
               .max_hits = 1000,
               .delay_ms = static_cast<std::uint32_t>(stall.count())});
    s->set_fault_plan(plan);
  }
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(store.put_file(45, file), 1u);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (auto& s : servers_) s->set_fault_plan(nullptr);

  EXPECT_LT(elapsed, 2 * stall);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.histograms
                .at(obs::labeled("carousel_client_op_seconds", "op", "put"))
                .count,
            code.n());
  EXPECT_EQ(store.read_file(45, file.size()), file);
}

// A failed PUT round drains before put_file deletes what landed.  Server 0
// refuses its PUT at once while the other 11 store theirs and answer D
// later: the put throws only after D, and no block of the file is left.
TEST_F(StoreTest, FailedPutRoundDrainsBeforeAbort) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  const std::size_t stripes = 2;
  auto file = random_bytes(stripes * code.k() * block, 54);

  const std::chrono::milliseconds stall(100);  // io_timeout is 250 ms
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    FaultRule rule{.action = FaultAction::kDelay,
                   .op = Op::kPut,
                   .max_hits = 1000,
                   .delay_ms = static_cast<std::uint32_t>(stall.count())};
    if (i == 0) rule.action = FaultAction::kRefuse;
    auto plan = std::make_shared<FaultPlan>(31);
    plan->add(rule);
    servers_[i]->set_fault_plan(plan);
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(store.put_file(47, file), ServerError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (auto& s : servers_) s->set_fault_plan(nullptr);

  EXPECT_GE(elapsed, stall);
  EXPECT_TRUE(store.files().empty());
  for (std::uint16_t port : ports_) {
    Client c(port);
    for (std::uint32_t s = 0; s < stripes; ++s)
      for (std::uint32_t i = 0; i < code.n(); ++i)
        EXPECT_EQ(c.verify(BlockKey{47, s, i}), BlockHealth::kMissing)
            << "port " << port << " stripe " << s << " block " << i;
  }
}

// A failed put REMOVEs a stripe's blocks as one round.  Server 0 refuses
// its PUT and every server answers a DELETE D late: the abort waits about
// D, where REMOVEing block by block waits n D.
TEST_F(StoreTest, AbortRemovesAStripeInOneRound) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  auto file = random_bytes(code.k() * block, 55);

  const std::chrono::milliseconds stall(100);  // io_timeout is 250 ms
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    auto plan = std::make_shared<FaultPlan>(37);
    if (i == 0)
      plan->add({.action = FaultAction::kRefuse,
                 .op = Op::kPut,
                 .max_hits = 1000});
    plan->add({.action = FaultAction::kDelay,
               .op = Op::kDelete,
               .max_hits = 1000,
               .delay_ms = static_cast<std::uint32_t>(stall.count())});
    servers_[i]->set_fault_plan(plan);
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(store.put_file(49, file), ServerError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (auto& s : servers_) s->set_fault_plan(nullptr);

  EXPECT_LT(elapsed, 3 * stall);
  EXPECT_TRUE(store.files().empty());
  for (std::uint16_t port : ports_) {
    Client c(port);
    for (std::uint32_t i = 0; i < code.n(); ++i)
      EXPECT_EQ(c.verify(BlockKey{49, 0, i}), BlockHealth::kMissing)
          << "port " << port << " block " << i;
  }
}

// put_file's PUT slots each encode their own block of the stripe's message.
// On the Carousel, RS and MSR points, with a short, padded last stripe:
// every stored block is encode_stripe's, the codec counts each stripe's n
// blocks once, the file reads back, and two puts overlap a read on one
// store.
TEST_F(StoreTest, PutEncodesEachBlockInItsSlot) {
  struct Point {
    std::size_t d, p;
  };
  std::uint32_t next_id = 60;
  for (const Point pt : {Point{10, 10}, Point{6, 6}, Point{10, 6}}) {
    codes::Carousel code(12, 6, pt.d, pt.p);
    SCOPED_TRACE(code.kind());
    const std::size_t block = code.s() * 16;
    CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
    const obs::Counter& encoded = obs::MetricsRegistry::global().counter(
        obs::labeled("carousel_codec_encode_bytes_total", "code", code.kind()));
    const std::size_t stripes = 3;
    const auto file = random_bytes(5 * code.k() * block / 2, next_id);
    const std::uint32_t id = next_id++;

    const std::uint64_t before = encoded.value();
    ASSERT_EQ(store.put_file(id, file), stripes);
    EXPECT_EQ(encoded.value() - before, stripes * code.n() * block);

    std::vector<Byte> scratch(code.n() * block);
    std::vector<std::span<Byte>> blocks;
    for (std::size_t i = 0; i < code.n(); ++i)
      blocks.push_back(std::span(scratch).subspan(i * block, block));
    std::vector<Byte> pad;
    for (std::uint32_t s = 0; s < stripes; ++s) {
      code.encode_stripe(file, s, blocks, pad);
      for (std::uint32_t i = 0; i < code.n(); ++i) {
        Client c(ports_[store.placement_of(id, s, i)]);
        const auto got = c.get(BlockKey{id, s, i});
        ASSERT_TRUE(got.has_value());
        EXPECT_TRUE(std::ranges::equal(*got, blocks[i]))
            << "stripe " << s << " block " << i;
      }
    }
    EXPECT_EQ(store.read_file(id, file.size()), file);

    // Two writers and a reader on one store, each on its own thread; their
    // results (or exceptions) are checked on this one.
    const auto a = random_bytes(2 * code.k() * block + 5, next_id);
    const auto b = random_bytes(code.k() * block / 3, next_id + 1);
    const std::uint32_t id_a = next_id++;
    const std::uint32_t id_b = next_id++;
    auto put_a = std::async(std::launch::async,
                            [&] { return store.put_file(id_a, a); });
    auto put_b = std::async(std::launch::async,
                            [&] { return store.put_file(id_b, b); });
    auto reads = std::async(std::launch::async, [&] {
      int same = 0;
      for (int r = 0; r < 3; ++r)
        same += store.read_file(id, file.size()) == file;
      return same;
    });
    EXPECT_EQ(put_a.get(), 3u);
    EXPECT_EQ(put_b.get(), 1u);
    EXPECT_EQ(reads.get(), 3);
    EXPECT_EQ(store.read_file(id_a, a.size()), a);
    EXPECT_EQ(store.read_file(id_b, b.size()), b);
  }
}

TEST_F(StoreTest, ScrubberRetriesUnreachableServerAfterItReturns) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  auto file = random_bytes(code.k() * block, 48);
  store.put_file(35, file);

  // Server 3 dies with its block.  The sweep records it unreachable and —
  // deliberately — does not repair: a rebuilt block has nowhere to live.
  servers_[3]->stop();
  servers_[3].reset();
  // Held until the server returns: no other process may answer for it.
  std::optional<test::ClosedPort> held(std::in_place, ports_[3]);
  Scrubber scrubber(store);
  auto sweep = scrubber.run_once();
  EXPECT_EQ(sweep.unreachable, 1u);
  EXPECT_EQ(scrubber.scheduler().stats().completed, 0u);
  EXPECT_EQ(scrubber.scheduler().stats().bytes_moved, 0u);

  // The server returns (same port, empty store).  The next sweep sees a
  // plain missing block and heals it at the optimal d/(d-k+1) = 2 blocks.
  held.reset();
  servers_[3] = std::make_unique<BlockServer>(ports_[3]);
  auto next = scrubber.run_once();
  const auto healed = scrubber.scheduler().stats();
  EXPECT_EQ(next.unreachable, 0u);
  EXPECT_EQ(next.missing_found, 1u);
  EXPECT_EQ(healed.completed, 1u);
  EXPECT_EQ(healed.failed, 0u);
  EXPECT_EQ(healed.bytes_moved, 2u * block);
  EXPECT_EQ(store.verify_block(35, 0, 3), BlockState::kOk);
  EXPECT_EQ(store.read_file(35, file.size()), file);
}

// The issue's acceptance scenario end to end: one server killed (not
// drained) AND one block corrupted at rest.  The read must still return
// byte-identical contents within its deadline, and the scrubber must then
// restore both blocks at optimal repair traffic (MSR path: d/(d-k+1) block
// sizes each, well under the k whole blocks of a naive decode).
TEST_F(StoreTest, KilledServerPlusCorruptBlockReadAndScrubRoundTrip) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  // A private registry isolates this store's telemetry from every other
  // client in the binary, so the assertions below are exact.
  obs::MetricsRegistry reg;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy(), &reg});
  auto file = random_bytes(code.k() * block, 46);
  store.put_file(31, file);

  servers_[4]->stop();  // hosts block 4: killed, not drained
  std::optional<test::ClosedPort> held(std::in_place, ports_[4]);
  ASSERT_TRUE(servers_[7]->corrupt_block(BlockKey{31, 0, 7}, 11));

  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(store.read_file(31, file.size()), file);
  // Within the op deadline budget: the dead server fails fast, it does not
  // stall the read until some transport-level timeout minutes later.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(6));

  // The failure handling above is visible in the store's registry: the dead
  // server forced retries, the bad checksum surfaced as a corrupt block, and
  // the stripe went down the degraded path.
  {
    obs::Snapshot snap = reg.snapshot();
    EXPECT_GE(snap.counters.at("carousel_client_retries_total"), 1u);
    EXPECT_GE(snap.counters.at("carousel_client_corrupt_blocks_total"), 1u);
    EXPECT_GE(snap.counters.at("carousel_store_degraded_stripe_reads_total"),
              1u);
    EXPECT_EQ(snap.counters.at("carousel_store_read_bytes_total"),
              file.size());
  }

  // A replacement server comes up on the dead one's port (empty disk).
  held.reset();
  servers_[4] = std::make_unique<BlockServer>(ports_[4]);

  Scrubber scrubber(store);
  auto sweep = scrubber.run_once();
  const auto healed = scrubber.scheduler().stats();
  EXPECT_EQ(sweep.missing_found, 1u);  // block 4 on the replacement server
  EXPECT_EQ(sweep.corrupt_found, 1u);  // block 7 behind its checksum
  EXPECT_EQ(healed.completed, 2u);
  EXPECT_EQ(healed.failed, 0u);
  // Both heals ran the optimal MSR path: 2 block sizes each — repair
  // traffic 4 blocks total, vs 12 for two whole-block decodes.
  EXPECT_EQ(healed.bytes_moved, 2u * 2u * block);

  // The sweep and its heals report into the store's registry: the scrubber
  // counts what it checked, the scheduler and the store count each heal.
  {
    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("carousel_scrubber_sweeps_total"), 1u);
    EXPECT_EQ(snap.counters.at("carousel_scrubber_blocks_checked_total"),
              std::uint64_t(code.n()));
    EXPECT_EQ(snap.counters.at("carousel_repair_completed_total"), 2u);
    EXPECT_EQ(snap.counters.at("carousel_repair_failed_total"), 0u);
    EXPECT_EQ(snap.counters.at("carousel_repair_bytes_moved_total"),
              2u * 2u * block);
    EXPECT_EQ(snap.gauges.at("carousel_scrubber_last_sweep_unhealthy"),
              2.0);
    EXPECT_EQ(snap.counters.at("carousel_store_repairs_total"), 2u);
    EXPECT_EQ(snap.counters.at("carousel_store_repair_bytes_read_total"),
              2u * 2u * block);
  }

  // The fleet is fully healthy again and the data is byte-identical.
  for (std::size_t i = 0; i < code.n(); ++i)
    EXPECT_EQ(store.verify_block(31, 0, static_cast<std::uint32_t>(i)),
              BlockState::kOk)
        << "block " << i;
  EXPECT_EQ(store.read_file(31, file.size()), file);
  codes::Carousel verify_code(12, 6, 10, 12);
  storage::ErasureFile ef(verify_code, file, block);
  Client direct4(ports_[4]), direct7(ports_[7]);
  auto b4 = direct4.get(BlockKey{31, 0, 4});
  auto b7 = direct7.get(BlockKey{31, 0, 7});
  ASSERT_TRUE(b4 && b7);
  EXPECT_TRUE(std::equal(b4->begin(), b4->end(), ef.block(0, 4).begin()));
  EXPECT_TRUE(std::equal(b7->begin(), b7->end(), ef.block(0, 7).begin()));
}

// The issue's acceptance criterion stated on the registry itself: one repair
// through the store moves exactly d/(d-k+1) block sizes, and the counter the
// kMetrics dump exposes says so to the byte.
TEST_F(StoreTest, RepairTrafficCounterMatchesOptimalRatio) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 512;
  obs::MetricsRegistry reg;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy(), &reg});
  auto file = random_bytes(code.k() * block, 51);
  store.put_file(33, file);
  ASSERT_TRUE(store.drop_block(33, 0, 5));
  std::uint64_t fetched = store.repair_block(33, 0, 5);

  obs::Snapshot snap = reg.snapshot();
  std::uint64_t counted =
      snap.counters.at("carousel_store_repair_bytes_read_total");
  EXPECT_EQ(counted, fetched);
  // repair_bytes_read / block_size == d / (d - k + 1), exactly: the audit
  // probes (VERIFY) are checksum-only and never inflate the counter.
  EXPECT_EQ(counted * (code.d() - code.k() + 1),
            std::uint64_t(code.d()) * block);
  EXPECT_EQ(snap.counters.at("carousel_store_repairs_total"), 1u);
  EXPECT_EQ(snap.histograms.at("carousel_store_repair_seconds").count, 1u);
  EXPECT_EQ(store.read_file(33, file.size()), file);
}

TEST_F(StoreTest, StalledServerCountsTimeoutsInRegistry) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 128;
  obs::MetricsRegistry reg;
  RetryPolicy policy = fast_policy();
  policy.io_timeout = std::chrono::milliseconds(60);
  CarouselStore store(code, ports_, block, StoreOptions{policy, &reg});
  auto file = random_bytes(code.k() * block, 52);
  store.put_file(35, file);

  // One GET_RANGE stalls for 2 s; the 60 ms socket timeout cuts it off and
  // the retry lands after the rule is exhausted.
  auto plan = std::make_shared<FaultPlan>(13);
  plan->add({.action = FaultAction::kDelay,
             .op = Op::kGetRange,
             .max_hits = 1,
             .delay_ms = 2000});
  servers_[0]->set_fault_plan(plan);
  EXPECT_EQ(store.read_file(35, file.size()), file);
  servers_[0]->set_fault_plan(nullptr);

  obs::Snapshot snap = reg.snapshot();
  EXPECT_GE(snap.counters.at("carousel_client_timeouts_total"), 1u);
  EXPECT_GE(snap.counters.at("carousel_client_retries_total"), 1u);
}

// ---- Hedged, truly parallel reads -----------------------------------------

TEST_F(StoreTest, HedgedReadWinsOverStraggler) {
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 256;
  obs::MetricsRegistry reg;
  StoreOptions o;
  o.registry = &reg;
  o.policy = fast_policy();
  // Generous socket timeout so the straggling primary eventually *answers*:
  // the loser's response must be drained on its own pooled connection, not
  // cut off by a timeout — that is the double-decode hazard under test.
  o.policy.io_timeout = std::chrono::milliseconds(2000);
  o.hedge.enabled = true;
  o.hedge.floor = std::chrono::milliseconds(5);
  o.hedge.initial = std::chrono::milliseconds(20);
  CarouselStore store(code, ports_, block, o);
  auto file = random_bytes(code.k() * block, 61);
  store.put_file(41, file);

  // One data server stalls its next range-GET far past the hedge budget but
  // inside the per-op timeout: the parity stand-in wins the race while the
  // primary is still talking.
  auto plan = std::make_shared<FaultPlan>(19);
  plan->add({.action = FaultAction::kDelay,
             .op = Op::kGetRange,
             .max_hits = 1,
             .delay_ms = 800});
  servers_[4]->set_fault_plan(plan);

  EXPECT_EQ(store.read_file(41, file.size()), file);
  {
    obs::Snapshot snap = reg.snapshot();
    EXPECT_GE(snap.counters.at("carousel_store_hedged_reads_total"), 1u);
    EXPECT_GE(snap.counters.at("carousel_store_hedge_wins_total"), 1u);
    EXPECT_LE(snap.counters.at("carousel_store_hedge_wins_total"),
              snap.counters.at("carousel_store_hedged_reads_total"));
    // A hedge win is a §VII stand-in read, so it counts as degraded.
    EXPECT_GE(snap.counters.at("carousel_store_degraded_stripe_reads_total"),
              1u);
  }

  // The loser finishes its 800 ms stall in the background; its late frame
  // lands on the connection its lease kept exclusive, so follow-up reads —
  // issued while it may still be draining and again after — are bit-exact
  // and nothing ever tears on the wire.
  EXPECT_EQ(store.read_file(41, file.size()), file);
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  EXPECT_EQ(store.read_file(41, file.size()), file);
  EXPECT_EQ(client_count(reg, "wire_corruptions"), 0u);
}

TEST_F(StoreTest, HedgePolicyTogglesAtRuntime) {
  // set_hedge_policy takes effect on the next read of a store that has just
  // hedged: switched off, a straggler is waited out with no hedge; switched
  // on again, the straggler is raced again.  The hedge counter moves inside
  // read_file, so a loser still draining cannot blur it.
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 256;
  obs::MetricsRegistry reg;
  StoreOptions o;
  o.registry = &reg;
  o.policy = fast_policy();
  o.policy.io_timeout = std::chrono::milliseconds(2000);
  o.hedge.enabled = true;
  o.hedge.floor = std::chrono::milliseconds(5);
  o.hedge.initial = std::chrono::milliseconds(20);
  CarouselStore store(code, ports_, block, o);
  auto file = random_bytes(code.k() * block, 63);
  store.put_file(44, file);

  // Data server 4 answers every range-GET 200 ms late.
  constexpr auto kStall = std::chrono::milliseconds(200);
  auto plan = std::make_shared<FaultPlan>(29);
  plan->add({.action = FaultAction::kDelay,
             .op = Op::kGetRange,
             .max_hits = 1'000'000,
             .delay_ms = static_cast<std::uint32_t>(kStall.count())});
  servers_[4]->set_fault_plan(plan);
  auto hedges = [&reg] {
    return reg.snapshot().counters.at("carousel_store_hedged_reads_total");
  };

  EXPECT_EQ(store.read_file(44, file.size()), file);
  const auto hedged = hedges();
  EXPECT_GE(hedged, 1u);

  store.set_hedge_policy(HedgePolicy{});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(store.read_file(44, file.size()), file);
  EXPECT_GE(std::chrono::steady_clock::now() - start, kStall);
  EXPECT_EQ(hedges(), hedged);

  store.set_hedge_policy(o.hedge);
  EXPECT_EQ(store.read_file(44, file.size()), file);
  EXPECT_GT(hedges(), hedged);
  servers_[4]->set_fault_plan(nullptr);
}

TEST_F(StoreTest, HedgeRacesNeverDoubleDecode) {
  // Straggler on *every* data server: every slot hedges, parity candidates
  // run out after n - p = 2, and whichever side answers first per slot is
  // used exactly once.  Reads stay bit-exact through repeated races.
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 64;
  obs::MetricsRegistry reg;
  StoreOptions o;
  o.registry = &reg;
  o.policy = fast_policy();
  o.policy.io_timeout = std::chrono::milliseconds(2000);
  o.hedge.enabled = true;
  o.hedge.floor = std::chrono::milliseconds(5);
  o.hedge.initial = std::chrono::milliseconds(10);
  CarouselStore store(code, ports_, block, o);
  auto file = random_bytes(code.k() * block, 62);
  store.put_file(43, file);

  for (auto& s : servers_) {
    auto plan = std::make_shared<FaultPlan>(23);
    plan->add({.action = FaultAction::kDelay,
               .op = Op::kGetRange,
               .max_hits = 1'000'000,
               .probability = 0.5,
               .delay_ms = 60});
    s->set_fault_plan(plan);
  }
  for (int round = 0; round < 5; ++round)
    EXPECT_EQ(store.read_file(43, file.size()), file) << round;
  for (auto& s : servers_) s->set_fault_plan(nullptr);

  obs::Snapshot snap = reg.snapshot();
  EXPECT_LE(snap.counters.at("carousel_store_hedge_wins_total"),
            snap.counters.at("carousel_store_hedged_reads_total"));
  EXPECT_LE(snap.counters.at("carousel_store_hedged_reads_total"),
            snap.counters.at("carousel_store_range_gets_total"));
  EXPECT_EQ(client_count(reg, "wire_corruptions"), 0u);
}

TEST_F(StoreTest, HedgeLosersStayReadableWhenTheStripeNeedsThem) {
  // Data servers 0 and 1 straggle past the hedge budget, so parity blocks 10
  // and 11 win their slots; blocks 2-6 are gone.  Five erasures are fewer
  // than n - k = 6: the slow-but-healthy primaries must be read again rather
  // than the stripe declared unrecoverable.
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 64;
  obs::MetricsRegistry reg;
  StoreOptions o;
  o.registry = &reg;
  o.policy = fast_policy();
  o.policy.io_timeout = std::chrono::milliseconds(2000);
  o.hedge.enabled = true;
  o.hedge.floor = std::chrono::milliseconds(5);
  o.hedge.initial = std::chrono::milliseconds(20);
  CarouselStore store(code, ports_, block, o);
  auto file = random_bytes(code.k() * block, 63);
  store.put_file(45, file);
  for (std::uint32_t b = 2; b <= 6; ++b)
    ASSERT_TRUE(store.drop_block(45, 0, b));

  for (std::size_t srv : {0u, 1u}) {
    auto plan = std::make_shared<FaultPlan>(31 + srv);
    plan->add({.action = FaultAction::kDelay,
               .op = Op::kGetRange,
               .max_hits = 1,
               .delay_ms = 600});
    servers_[srv]->set_fault_plan(plan);
  }
  EXPECT_EQ(store.read_file(45, file.size()), file);
  for (auto& s : servers_) s->set_fault_plan(nullptr);

  obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("carousel_store_hedged_reads_total"), 2u);
  EXPECT_EQ(snap.counters.at("carousel_store_hedge_wins_total"), 2u);
  EXPECT_EQ(client_count(reg, "wire_corruptions"), 0u);
}

TEST_F(StoreTest, ConcurrentReadsOverlapInWallClock) {
  // The locking-discipline acceptance test: with every range-GET stalled a
  // fixed delay, two files read back-to-back cost two delays; read from two
  // threads they must overlap and cost about one.  Run under TSan by
  // tools/verify.sh, which also proves the fan-out is data-race-free.
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 64;
  CarouselStore store(code, ports_, block, StoreOptions{fast_policy()});
  auto file_a = random_bytes(code.k() * block, 71);
  auto file_b = random_bytes(code.k() * block, 72);
  store.put_file(51, file_a);
  store.put_file(52, file_b);

  for (auto& s : servers_) {
    auto plan = std::make_shared<FaultPlan>(29);
    plan->add({.action = FaultAction::kDelay,
               .op = Op::kGetRange,
               .max_hits = 1'000'000,
               .delay_ms = 150});
    s->set_fault_plan(plan);
  }

  using clock = std::chrono::steady_clock;
  const auto serial_start = clock::now();
  EXPECT_EQ(store.read_file(51, file_a.size()), file_a);
  EXPECT_EQ(store.read_file(52, file_b.size()), file_b);
  const auto serial = clock::now() - serial_start;
  ASSERT_GE(serial, std::chrono::milliseconds(300));  // two delay rounds

  // gtest assertions are not thread-safe off the main thread: workers only
  // record; the main thread asserts.
  clock::time_point start_a, end_a, start_b, end_b;
  bool ok_a = false, ok_b = false;
  const auto concurrent_start = clock::now();
  std::thread ta([&] {
    start_a = clock::now();
    ok_a = store.read_file(51, file_a.size()) == file_a;
    end_a = clock::now();
  });
  std::thread tb([&] {
    start_b = clock::now();
    ok_b = store.read_file(52, file_b.size()) == file_b;
    end_b = clock::now();
  });
  ta.join();
  tb.join();
  const auto concurrent = clock::now() - concurrent_start;
  for (auto& s : servers_) s->set_fault_plan(nullptr);

  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  // The two calls genuinely overlapped in wall-clock...
  EXPECT_LT(start_a, end_b);
  EXPECT_LT(start_b, end_a);
  // ...and concurrency bought real time: well under the serial cost (which
  // would be ~2 stall rounds), comfortably above-noise at 0.8x.
  EXPECT_LT(concurrent, serial * 8 / 10);
}

// Regression for the read-while-mutated race: the client's failure counts
// (its registry's carousel_client_* series), bytes_sent() and
// bytes_received() must be safe to read from another thread while
// operations (including connection drops, which fold the per-connection byte
// counts) are in flight.  Run under TSan by tools/verify.sh.
TEST(ClientCounters, ReadableWhileOpsAndReconnectsAreInFlight) {
  BlockServer server;
  auto plan = std::make_shared<FaultPlan>(17);
  plan->add({.action = FaultAction::kDropBeforeResponse,
             .op = Op::kPut,
             .max_hits = 1000,
             .probability = 0.2});
  server.set_fault_plan(plan);
  obs::MetricsRegistry reg;
  Client client(server.port(), fast_policy(), &reg);
  const obs::Counter& retries = reg.counter("carousel_client_retries_total");
  const obs::Counter& reconnects =
      reg.counter("carousel_client_reconnects_total");
  auto data = random_bytes(256, 53);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint32_t i = 0; i < 100; ++i) {
      try {
        client.put(BlockKey{6, i, 0}, data);
      } catch (const Error&) {
        // Three drops in a row exhaust the attempts; the race under test
        // is unaffected.
      }
    }
    done = true;
  });
  std::uint64_t last_retries = 0, last_reconnects = 0;
  while (!done.load()) {
    // Counters are monotonic: a torn or racy read would go backwards.
    const std::uint64_t r = retries.value();
    const std::uint64_t c = reconnects.value();
    EXPECT_GE(r, last_retries);
    EXPECT_GE(c, last_reconnects);
    last_retries = r;
    last_reconnects = c;
    (void)client.bytes_sent();
    (void)client.bytes_received();
  }
  writer.join();
  EXPECT_GE(retries.value(), 1u);
  EXPECT_GE(reconnects.value(), 1u);
  EXPECT_GT(client.bytes_sent(), 0u);
}

}  // namespace
}  // namespace carousel::net
