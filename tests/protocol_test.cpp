// Wire-protocol hardening tests: checked opcode/status parsing, the
// kMaxFrameBytes cap, structural request validation, and a table of
// malformed frames sent over real sockets.  The invariant under test is the
// one the paper's prototype needs at production scale: a hostile or buggy
// peer can never crash the server, drive an unbounded allocation, or wedge a
// session — it gets a typed kBadRequest answer and the server keeps serving.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "net/block_server.h"
#include "net/client.h"
#include "net/errors.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "test_util.h"

namespace carousel::net {
namespace {

using test::random_bytes;

// ---------------------------------------------------------------------------
// parse_op / parse_status: the only sanctioned wire-byte conversions.

TEST(ParseOp, AcceptsExactlyTheDefinedOpcodes) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    auto op = parse_op(static_cast<std::uint8_t>(i));
    ASSERT_TRUE(op.has_value()) << "opcode " << i;
    EXPECT_EQ(*op, op_from_index(i));
    EXPECT_STRNE(op_name(*op), "unknown");
  }
  for (int raw = static_cast<int>(kOpCount); raw < 256; ++raw)
    EXPECT_FALSE(parse_op(static_cast<std::uint8_t>(raw)).has_value())
        << "opcode " << raw;
}

TEST(ParseStatus, AcceptsExactlyTheDefinedStatuses) {
  for (std::size_t i = 0; i < kStatusCount; ++i)
    EXPECT_TRUE(parse_status(static_cast<std::uint8_t>(i)).has_value());
  for (int raw = static_cast<int>(kStatusCount); raw < 256; ++raw)
    EXPECT_FALSE(parse_status(static_cast<std::uint8_t>(raw)).has_value())
        << "status " << raw;
}

// ---------------------------------------------------------------------------
// validate_request: pure structural checks, exercised branch by branch.

std::vector<std::uint8_t> project_payload(std::uint32_t unit_bytes,
                                          std::uint16_t outputs,
                                          std::uint16_t terms_each) {
  Writer w;
  w.key(BlockKey{1, 2, 3});
  w.u32(unit_bytes);
  w.u16(outputs);
  for (std::uint16_t o = 0; o < outputs; ++o) {
    w.u16(terms_each);
    for (std::uint16_t t = 0; t < terms_each; ++t) {
      w.u32(t);
      w.u8(1);
    }
  }
  return w.data();
}

TEST(ValidateRequest, WellFormedPayloadsPass) {
  EXPECT_EQ(validate_request(Op::kPing, {}), nullptr);
  EXPECT_EQ(validate_request(Op::kStats, {}), nullptr);
  EXPECT_EQ(validate_request(Op::kMetrics, {}), nullptr);

  Writer key_only;
  key_only.key(BlockKey{1, 2, 3});
  EXPECT_EQ(validate_request(Op::kGet, key_only.data()), nullptr);
  EXPECT_EQ(validate_request(Op::kDelete, key_only.data()), nullptr);
  EXPECT_EQ(validate_request(Op::kVerify, key_only.data()), nullptr);

  Writer put;
  put.key(BlockKey{1, 2, 3});
  put.u32(0xdeadbeef);
  put.bytes(random_bytes(64));
  EXPECT_EQ(validate_request(Op::kPut, put.data()), nullptr);

  Writer range;
  range.key(BlockKey{1, 2, 3});
  range.u32(0);
  range.u32(16);
  EXPECT_EQ(validate_request(Op::kGetRange, range.data()), nullptr);

  EXPECT_EQ(validate_request(Op::kProject, project_payload(256, 3, 4)),
            nullptr);
  EXPECT_EQ(validate_request(Op::kProject, project_payload(1, 0, 0)),
            nullptr);  // zero outputs is pointless but well-formed
}

TEST(ValidateRequest, RejectsEveryStructuralDefect) {
  // Bodyless ops with a body.
  EXPECT_NE(validate_request(Op::kPing, random_bytes(1)), nullptr);
  EXPECT_NE(validate_request(Op::kStats, random_bytes(3)), nullptr);
  // Key-sized ops with the wrong size.
  EXPECT_NE(validate_request(Op::kGet, random_bytes(11)), nullptr);
  EXPECT_NE(validate_request(Op::kGet, random_bytes(13)), nullptr);
  EXPECT_NE(validate_request(Op::kDelete, {}), nullptr);
  // PUT shorter than key+crc.
  EXPECT_NE(validate_request(Op::kPut, random_bytes(15)), nullptr);
  // GET_RANGE with a truncated offset/length pair.
  EXPECT_NE(validate_request(Op::kGetRange, random_bytes(19)), nullptr);

  // PROJECT defects.
  EXPECT_NE(validate_request(Op::kProject, random_bytes(17)), nullptr)
      << "header truncated";
  EXPECT_NE(validate_request(Op::kProject, project_payload(0, 1, 1)), nullptr)
      << "zero unit size";
  {
    // Declared outputs overrun the payload: promise 3, provide 1.
    auto p = project_payload(256, 1, 2);
    p[16] = 3;  // outputs u16 lives right after key (12) + unit_bytes (4)
    EXPECT_NE(validate_request(Op::kProject, p), nullptr);
  }
  {
    // Declared terms overrun the payload: promise 200 terms, provide 2.
    auto p = project_payload(256, 1, 2);
    p[18] = 200;  // terms u16 of the first output
    EXPECT_NE(validate_request(Op::kProject, p), nullptr);
  }
  {
    // Trailing garbage after the last output.
    auto p = project_payload(256, 1, 2);
    p.push_back(0xab);
    EXPECT_NE(validate_request(Op::kProject, p), nullptr);
  }
  // A response that could not fit under the frame cap, declared in a tiny
  // request: 64Ki outputs x 1MiB units = 64GiB.
  EXPECT_NE(validate_request(Op::kProject, project_payload(1u << 20, 0xFFFF, 0)),
            nullptr);
}

// ---------------------------------------------------------------------------
// Malformed frames over real sockets.

// Framed raw connection that speaks the wire format byte by byte, with an
// I/O timeout so a wedged server fails the test instead of hanging it.
struct RawConn {
  TcpConn conn;

  explicit RawConn(std::uint16_t port) : conn(TcpConn::connect(port)) {
    conn.set_io_timeout(std::chrono::milliseconds(2000));
  }

  void send_frame(std::uint8_t op, std::span<const std::uint8_t> payload,
                  std::optional<std::uint32_t> forced_len = std::nullopt) {
    std::uint32_t len = forced_len.value_or(
        static_cast<std::uint32_t>(payload.size()));
    conn.send_all(&op, 1);
    conn.send_all(&len, 4);
    if (!payload.empty()) conn.send_all(payload.data(), payload.size());
  }

  /// nullopt when the server closed the connection at a frame boundary.
  std::optional<std::pair<Status, std::vector<std::uint8_t>>> recv_frame() {
    std::uint8_t status_raw;
    if (!conn.recv_all(&status_raw, 1)) return std::nullopt;
    std::uint32_t len;
    if (!conn.recv_all(&len, 4)) return std::nullopt;
    auto status = parse_status(status_raw);
    EXPECT_TRUE(status.has_value()) << "undefined status byte off the wire";
    EXPECT_LE(len, kMaxFrameBytes);
    std::vector<std::uint8_t> body(len);
    if (len && !conn.recv_all(body.data(), len)) return std::nullopt;
    return std::make_pair(status.value_or(Status::kError), std::move(body));
  }
};

struct MalformedFrame {
  const char* name;
  std::uint8_t op;
  std::vector<std::uint8_t> payload;
};

std::vector<MalformedFrame> malformed_frames() {
  std::vector<MalformedFrame> out;
  out.push_back({"unknown opcode, empty payload",
                 static_cast<std::uint8_t>(kOpCount), {}});
  out.push_back({"unknown opcode 0xFF with payload", 0xFF, random_bytes(8)});
  out.push_back({"ping with a body", 0, random_bytes(4)});
  out.push_back({"get with a truncated key", 2, random_bytes(7)});
  out.push_back({"put shorter than key+crc", 1, random_bytes(10)});
  out.push_back({"get_range missing its length", 3, random_bytes(16)});
  out.push_back({"delete with an oversized key", 5, random_bytes(20)});
  out.push_back({"stats with a body", 6, random_bytes(2)});
  out.push_back({"project header truncated", 4, random_bytes(14)});
  out.push_back({"project zero unit size", 4, project_payload(0, 1, 1)});
  {
    auto p = project_payload(8, 1, 1);
    p[16] = 9;  // declare 9 outputs, provide 1
    out.push_back({"project outputs overrun payload", 4, std::move(p)});
  }
  {
    auto p = project_payload(8, 1, 1);
    p[19] = 0xFF;  // declare 0xFF01 terms, provide 1
    out.push_back({"project terms overrun payload", 4, std::move(p)});
  }
  {
    auto p = project_payload(8, 1, 1);
    p.insert(p.end(), {1, 2, 3});
    out.push_back({"project trailing bytes", 4, std::move(p)});
  }
  out.push_back({"project response over frame cap", 4,
                 project_payload(1u << 20, 0xFFFF, 0)});
  return out;
}

TEST(MalformedFrames, TypedBadRequestAndTheSessionSurvives) {
  BlockServer server;
  RawConn raw(server.port());
  std::uint64_t expected_bad = 0;
  for (const auto& frame : malformed_frames()) {
    SCOPED_TRACE(frame.name);
    raw.send_frame(frame.op, frame.payload);
    auto resp = raw.recv_frame();
    ASSERT_TRUE(resp.has_value()) << "server closed the connection";
    EXPECT_EQ(resp->first, Status::kBadRequest);
    EXPECT_FALSE(resp->second.empty()) << "kBadRequest should carry a reason";
    ++expected_bad;

    // The same session keeps serving well-formed requests.
    raw.send_frame(0, {});
    auto pong = raw.recv_frame();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->first, Status::kOk);
  }
  auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("carousel_server_bad_requests_total"),
            expected_bad);
}

TEST(MalformedFrames, OverCapLengthAnswersBadRequestBeforeClosing) {
  BlockServer server;
  {
    RawConn raw(server.port());
    // Length prefix just past the cap, no payload following: the server must
    // answer without attempting the 4GiB-1 allocation, then hang up.
    raw.send_frame(2, {}, /*forced_len=*/0xFFFFFFFF);
    auto resp = raw.recv_frame();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->first, Status::kBadRequest);
    std::uint8_t b;
    EXPECT_FALSE(raw.conn.recv_all(&b, 1));  // then the connection closes
  }
  {
    RawConn raw(server.port());
    raw.send_frame(2, {}, /*forced_len=*/kMaxFrameBytes + 1);
    auto resp = raw.recv_frame();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->first, Status::kBadRequest);
  }
  // The server is unscathed.
  Client client(server.port());
  client.ping();
}

TEST(MalformedFrames, BoundaryLengthIsNotRejected) {
  // kMaxFrameBytes itself is legal; one byte more is not.  Use a small
  // declared length with a matching body to keep the test cheap, and only
  // probe the boundary arithmetic with the headers.
  BlockServer server;
  RawConn raw(server.port());
  // A declared length of exactly kMaxFrameBytes passes the cap check; we
  // cannot cheaply send 256MiB, so close after the header and let the
  // server's truncated-payload path drop the session quietly.
  raw.send_frame(1, {}, /*forced_len=*/kMaxFrameBytes);
  raw.conn.close();
  Client client(server.port());
  client.ping();  // server alive: the cap check did not fire, the read path
                  // handled the truncation
}

TEST(MalformedFrames, ClientSurfacesBadRequestAsTypedError) {
  BlockServer server;
  obs::MetricsRegistry reg;
  Client client(server.port(), {}, &reg);
  // A PROJECT whose promised response breaks the frame cap is rejected
  // structurally by the server; the client must see BadRequestError (not a
  // retry storm, not ServerError).
  Client::Projection outputs(8, {{0, 1}});
  EXPECT_THROW(client.project(BlockKey{1, 1, 1}, 1u << 29, outputs),
               BadRequestError);
  auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("carousel_server_bad_requests_total"), 1u);
  // Still one attempt only.
  EXPECT_EQ(reg.snapshot().counters.at("carousel_client_retries_total"), 0u);
}

TEST(MalformedFrames, SemanticErrorsStayServerError) {
  // Well-formed frames whose *content* is wrong keep the kError taxonomy:
  // retrying cannot change the answer, but it is not a protocol violation.
  BlockServer server;
  Client client(server.port());
  auto data = random_bytes(256);
  client.put(BlockKey{1, 1, 1}, data);
  // Unit size does not divide the block.
  EXPECT_THROW(client.project(BlockKey{1, 1, 1}, 100, {{{0, 1}}}),
               ServerError);
  // Unit position out of range for the stored block.
  EXPECT_THROW(client.project(BlockKey{1, 1, 1}, 128, {{{7, 1}}}),
               ServerError);
  // Range past the end of the block.
  EXPECT_THROW(client.get_range(BlockKey{1, 1, 1}, 250, 100), ServerError);
  EXPECT_EQ(server.metrics().snapshot().counters.at(
                "carousel_server_bad_requests_total"),
            0u);
}

TEST(MalformedFrames, PutGetStillRoundTripsAfterAbuse) {
  // End-to-end sanity after a barrage of malformed frames: data written
  // before and after the abuse is intact and checksummed.
  BlockServer server;
  Client client(server.port());
  auto before = random_bytes(512, 7);
  client.put(BlockKey{9, 0, 0}, before);

  {
    RawConn raw(server.port());
    for (const auto& frame : malformed_frames())
      raw.send_frame(frame.op, frame.payload);
    for (std::size_t i = 0; i < malformed_frames().size(); ++i) {
      auto resp = raw.recv_frame();
      ASSERT_TRUE(resp.has_value());
      EXPECT_EQ(resp->first, Status::kBadRequest);
    }
  }

  auto after = random_bytes(512, 8);
  client.put(BlockKey{9, 0, 1}, after);
  EXPECT_EQ(*client.get(BlockKey{9, 0, 0}), before);
  EXPECT_EQ(*client.get(BlockKey{9, 0, 1}), after);
}

}  // namespace
}  // namespace carousel::net
