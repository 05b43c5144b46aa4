#include "net/block_server.h"

#include <chrono>
#include <cstring>

#include "gf/vect.h"
#include "obs/trace.h"
#include "util/crc32.h"

namespace carousel::net {

namespace {

const char* fault_name(FaultAction a) {
  switch (a) {
    case FaultAction::kDropBeforeResponse: return "drop_before_response";
    case FaultAction::kDropAfterResponse: return "drop_after_response";
    case FaultAction::kDelay: return "delay";
    case FaultAction::kCorruptPayload: return "corrupt_payload";
    case FaultAction::kRefuse: return "refuse";
    case FaultAction::kCrash: return "crash";
  }
  return "unknown";
}

void append_text(Writer& resp, const char* text) {
  resp.bytes({reinterpret_cast<const std::uint8_t*>(text),
              std::strlen(text)});
}

}  // namespace

void BlockServer::init_instruments() {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const char* op = op_name(op_from_index(i));
    op_requests_[i] = &metrics_.counter(
        obs::labeled("carousel_server_requests_total", "op", op));
    op_seconds_[i] = &metrics_.histogram(
        obs::labeled("carousel_server_op_seconds", "op", op));
  }
  for (std::size_t i = 0; i < fault_hits_.size(); ++i)
    fault_hits_[i] = &metrics_.counter(
        obs::labeled("carousel_server_fault_injections_total", "action",
                     fault_name(static_cast<FaultAction>(i))));
  bad_requests_ = &metrics_.counter("carousel_server_bad_requests_total");
  blocks_gauge_ = &metrics_.gauge("carousel_server_blocks");
  stored_bytes_gauge_ = &metrics_.gauge("carousel_server_stored_bytes");
}

BlockServer::BlockServer(std::uint16_t port)
    : listener_(TcpListener::bind(port)), port_(listener_.port()) {
  init_instruments();
  acceptor_ = std::thread([this] { accept_loop(); });
}

BlockServer::BlockServer(std::uint16_t port,
                         const std::filesystem::path& data_dir,
                         PersistentBlockStore::Options persist)
    : listener_(TcpListener::bind(port)), port_(listener_.port()) {
  init_instruments();
  if (!persist.registry) persist.registry = &metrics_;
  persist_ = std::make_unique<PersistentBlockStore>(data_dir, persist);
  // Recovery runs before the accept loop starts: the first client request
  // already sees the post-crash truth (intact blocks served, damaged keys
  // answering kCorrupt).  No lock needed — no other thread exists yet.
  std::vector<PersistentBlockStore::RecoveredBlock> intact;
  recovery_ = persist_->recover(&intact);
  std::uint64_t total = 0;
  for (auto& b : intact) {
    total += b.bytes.size();
    blocks_[b.key] = StoredBlock{std::move(b.bytes), b.crc};
  }
  quarantined_.insert(recovery_.damaged.begin(), recovery_.damaged.end());
  blocks_gauge_->set(static_cast<double>(blocks_.size()));
  stored_bytes_gauge_->set(static_cast<double>(total));
  acceptor_ = std::thread([this] { accept_loop(); });
}

BlockServer::~BlockServer() { stop(); }

void BlockServer::stop() { shut_down(/*graceful=*/false); }

void BlockServer::drain() {
  // Final durability barrier: every acknowledged PUT is now on disk.
  if (shut_down(/*graceful=*/true) && persist_) persist_->flush();
}

bool BlockServer::shut_down(bool graceful) {
  // stop() and drain() claim the same flag, so the two are mutually
  // idempotent: whichever runs first wins, the other no-ops.
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return false;
  listener_.close();  // no new connections; wakes the blocked accept()
  if (acceptor_.joinable()) acceptor_.join();
  // Collect the sessions under the lock (std::list: stable addresses), then
  // join without it — workers may still need mu_ to finish their last
  // request.  The acceptor is gone, so nobody grows the list anymore.
  std::vector<Session*> to_join;
  {
    util::MutexLock lock(mu_);
    for (auto& s : sessions_) {
      // A drain half-closes the receive side only: a worker blocked waiting
      // for the *next* request wakes with EOF, but a response being sent
      // still flushes.  A stop wakes every blocked worker.
      if (graceful)
        s.conn.shutdown_read();
      else
        s.conn.shutdown_both();
      to_join.push_back(&s);
    }
  }
  for (Session* s : to_join)
    if (s->worker.joinable()) s->worker.join();
  util::MutexLock lock(mu_);
  sessions_.clear();
  return true;
}

void BlockServer::set_fault_plan(std::shared_ptr<FaultPlan> plan) {
  util::MutexLock lock(mu_);
  faults_ = std::move(plan);
}

bool BlockServer::corrupt_block(const BlockKey& key, std::size_t offset) {
  util::MutexLock lock(mu_);
  auto it = blocks_.find(key);
  // An empty block has no byte to flip: refuse rather than divide by zero.
  if (it == blocks_.end() || it->second.bytes.empty()) return false;
  const std::size_t pos = offset % it->second.bytes.size();
  it->second.bytes[pos] ^= 0x01;
  // Rot the same byte at rest, so the corruption survives a restart and the
  // next recovery scan quarantines the block instead of reloading it.
  if (persist_) persist_->corrupt_at_rest(key, pos);
  return true;
}

std::size_t BlockServer::block_count() const {
  util::MutexLock lock(mu_);
  return blocks_.size();
}

std::size_t BlockServer::session_count() const {
  util::MutexLock lock(mu_);
  return sessions_.size();
}

std::uint64_t BlockServer::stored_bytes() const {
  util::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, block] : blocks_) total += block.bytes.size();
  return total;
}

void BlockServer::accept_loop() {
  for (;;) {
    TcpConn conn = listener_.accept();
    if (!conn.valid()) return;  // listener closed: shutting down
    util::MutexLock lock(mu_);
    if (stopping_.load()) return;
    reap_finished_locked();
    sessions_.emplace_back();
    Session* s = &sessions_.back();
    s->conn = std::move(conn);
    s->worker = std::thread([this, s] { serve(*s); });
  }
}

void BlockServer::reap_finished_locked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->done.load()) {
      it->worker.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void BlockServer::injected_sleep(std::uint32_t ms) {
  // Sliced so stop() never waits behind an injected stall.
  auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!stopping_.load() && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

void BlockServer::serve(Session& session) {
  TcpConn& conn = session.conn;
  // Whatever ends this session — clean EOF, a garbage frame, an I/O error —
  // the peer must see the connection go down; the fd itself stays owned by
  // the session until reaped so shutdown here cannot race a reused
  // descriptor.  `done` flags the session for the accept loop to reap.
  struct Hangup {
    Session& s;
    ~Hangup() {
      s.conn.shutdown_both();
      s.done.store(true);
    }
  } hangup{session};
  try {
    for (;;) {
      std::uint8_t op_raw;
      if (!conn.recv_all(&op_raw, 1)) return;  // client hung up
      std::uint32_t len;
      if (!conn.recv_all(&len, 4)) return;

      Writer resp;
      Status status = Status::kOk;
      bool close_after = false;
      std::optional<Op> op;
      std::optional<FaultRule> fault;
      std::vector<std::uint8_t> payload;

      if (len > kMaxFrameBytes) {
        // A hostile or garbage length prefix: reject it *before* allocating
        // anything.  We cannot resync past bytes we refuse to read, so the
        // typed answer goes out and then the connection closes.
        status = Status::kBadRequest;
        append_text(resp, "frame length exceeds kMaxFrameBytes");
        close_after = true;
      } else {
        payload.resize(len);
        if (len && !conn.recv_all(payload.data(), len)) return;
        op = parse_op(op_raw);
        const char* defect =
            op ? validate_request(*op, payload) : "unknown opcode";
        if (defect) {
          // The frame boundary held (we read exactly `len` bytes), so the
          // session survives a malformed request.
          status = Status::kBadRequest;
          append_text(resp, defect);
        }
      }
      if (status == Status::kBadRequest) bad_requests_->inc();

      if (op && status == Status::kOk) {
        std::shared_ptr<FaultPlan> faults;
        {
          util::MutexLock lock(mu_);
          faults = faults_;
        }
        if (faults) fault = faults->decide(*op);
        if (fault)
          fault_hits_[static_cast<std::size_t>(fault->action)]->inc();

        if (fault && fault->action == FaultAction::kRefuse) {
          status = Status::kError;
          append_text(resp, "injected fault: refused");
        } else {
          // A crash fault's cut kills the request before the in-memory
          // update (RAM dies too), and the dead server never answers.
          const bool armed =
              fault && fault->action == FaultAction::kCrash && persist_;
          if (armed) {
            util::MutexLock lock(mu_);
            persist_->syncer().arm(fault->crash);
          }
          bool crashed = false;
          const auto idx = static_cast<std::size_t>(*op);
          try {
            Reader req(payload);
            op_requests_[idx]->inc();
            obs::ScopedTimer timer(*op_seconds_[idx]);
            handle(*op, req, resp, status);
          } catch (const durable::Crash&) {
            crashed = true;
          } catch (const MalformedPayload& e) {
            status = Status::kBadRequest;
            bad_requests_->inc();
            resp = Writer();
            append_text(resp, e.what());
          } catch (const std::exception& e) {
            status = Status::kError;
            resp = Writer();
            append_text(resp, e.what());
          }
          if (armed) {
            util::MutexLock lock(mu_);
            persist_->syncer().disarm();
          }
          if (crashed) return;
        }
      }

      if (fault) {
        switch (fault->action) {
          case FaultAction::kDropBeforeResponse:
            return;  // Hangup severs the connection, response unsent
          case FaultAction::kCrash:
            if (!persist_) return;
            break;
          case FaultAction::kDelay:
            injected_sleep(fault->delay_ms);
            break;
          case FaultAction::kCorruptPayload:
            if (!resp.data().empty()) {
              auto& buf = resp.data();
              buf[fault->corrupt_offset % buf.size()] ^= 0x01;
            }
            break;
          default:
            break;
        }
      }

      std::uint8_t st = static_cast<std::uint8_t>(status);
      std::uint32_t rlen = static_cast<std::uint32_t>(resp.data().size());
      conn.send_all(&st, 1);
      conn.send_all(&rlen, 4);
      if (rlen) conn.send_all(resp.data().data(), rlen);

      if (close_after) return;
      if (fault && fault->action == FaultAction::kDropAfterResponse) return;
    }
  } catch (const std::exception&) {
    // Connection-level failure: drop the session; the store stays intact.
  }
}

const BlockServer::StoredBlock* BlockServer::servable_locked(
    const BlockKey& key, Writer& resp, Status& status,
    const std::function<void(std::size_t)>& check) {
  if (quarantined_.contains(key)) {
    // Recovery moved this block's files aside: the block is known but its
    // payload is gone.  kCorrupt (no CRC known) tells the client and
    // scrubber to repair it, not to treat it as never written.
    status = Status::kCorrupt;
    return nullptr;
  }
  auto it = blocks_.find(key);
  if (it == blocks_.end()) {
    status = Status::kNotFound;
    return nullptr;
  }
  if (check) check(it->second.bytes.size());
  const std::uint32_t actual = util::crc32(it->second.bytes);
  if (actual != it->second.crc) {
    status = Status::kCorrupt;
    resp.u32(actual);
    return nullptr;
  }
  return &it->second;
}

void BlockServer::handle(Op op, Reader& req, Writer& resp, Status& status) {
  switch (op) {
    case Op::kPing:
      return;
    case Op::kPut: {
      BlockKey key = req.key();
      std::uint32_t declared = req.u32();
      auto bytes = req.rest();
      std::uint32_t actual = util::crc32(bytes);
      if (actual != declared) {
        // The request payload was mangled in flight; refuse to store it.
        status = Status::kCorrupt;
        resp.u32(actual);
        return;
      }
      util::MutexLock lock(mu_);
      // Durability before acknowledgement: the block must survive a power
      // cut the instant after the response is sent.
      if (persist_) persist_->put(key, bytes, declared);
      quarantined_.erase(key);
      auto& block = blocks_[key];
      const double old_bytes = static_cast<double>(block.bytes.size());
      block.bytes.assign(bytes.begin(), bytes.end());
      block.crc = declared;
      blocks_gauge_->set(static_cast<double>(blocks_.size()));
      stored_bytes_gauge_->add(static_cast<double>(block.bytes.size()) -
                               old_bytes);
      return;
    }
    case Op::kGet:
    case Op::kGetRange: {
      // GET is GET_RANGE's whole-block case.
      const BlockKey key = req.key();
      const bool whole = op == Op::kGet;
      const std::uint32_t off = whole ? 0 : req.u32();
      const std::uint32_t len = whole ? 0 : req.u32();
      util::MutexLock lock(mu_);
      const StoredBlock* block = servable_locked(
          key, resp, status, [whole, off, len](std::size_t size) {
            if (!whole && std::size_t(off) + len > size)
              throw std::runtime_error("range out of bounds");
          });
      if (!block) return;
      const std::span<const std::uint8_t> range =
          whole ? std::span(block->bytes)
                : std::span(block->bytes).subspan(off, len);
      // A whole-block range was just checked against the stored CRC.
      resp.u32(range.size() == block->bytes.size() ? block->crc
                                                   : util::crc32(range));
      resp.bytes(range);
      return;
    }
    case Op::kProject: {
      BlockKey key = req.key();
      std::uint32_t unit_bytes = req.u32();
      std::uint16_t outputs = req.u16();
      util::MutexLock lock(mu_);
      const StoredBlock* stored = servable_locked(
          key, resp, status, [unit_bytes](std::size_t size) {
            if (unit_bytes == 0 || size % unit_bytes != 0)
              throw std::runtime_error("unit size does not divide the block");
          });
      if (!stored) return;
      const auto& block = stored->bytes;
      const std::size_t units = block.size() / unit_bytes;
      std::vector<std::uint8_t> out(unit_bytes);
      std::vector<std::uint8_t> body;
      body.reserve(std::size_t(outputs) * unit_bytes);
      for (std::uint16_t o = 0; o < outputs; ++o) {
        std::uint16_t terms = req.u16();
        gf::zero_region(out.data(), out.size());
        for (std::uint16_t t = 0; t < terms; ++t) {
          std::uint32_t pos = req.u32();
          std::uint8_t coeff = req.u8();
          if (pos >= units) throw std::runtime_error("unit out of range");
          gf::mul_add_region(coeff, block.data() + std::size_t(pos) * unit_bytes,
                             out.data(), unit_bytes);
        }
        body.insert(body.end(), out.begin(), out.end());
      }
      resp.u32(util::crc32(body));
      resp.bytes(body);
      return;
    }
    case Op::kDelete: {
      BlockKey key = req.key();
      util::MutexLock lock(mu_);
      // Deleting a quarantined block clears the damage mark (its files
      // already sit in quarantine/, nothing on the main path to remove).
      const bool was_quarantined = quarantined_.erase(key) > 0;
      auto it = blocks_.find(key);
      if (it == blocks_.end()) {
        if (!was_quarantined) status = Status::kNotFound;
        return;
      }
      if (persist_) persist_->erase(key);
      stored_bytes_gauge_->add(-static_cast<double>(it->second.bytes.size()));
      blocks_.erase(it);
      blocks_gauge_->set(static_cast<double>(blocks_.size()));
      return;
    }
    case Op::kStats: {
      util::MutexLock lock(mu_);
      resp.u32(static_cast<std::uint32_t>(blocks_.size()));
      std::uint64_t total = 0;
      for (const auto& [key, block] : blocks_) total += block.bytes.size();
      resp.u64(total);
      return;
    }
    case Op::kVerify: {
      BlockKey key = req.key();
      util::MutexLock lock(mu_);
      // A servable block's actual CRC is its stored one.
      if (const StoredBlock* block = servable_locked(key, resp, status))
        resp.u32(block->crc);
      return;
    }
    case Op::kMetrics: {
      // This server's registry first, then the process-global one (codec,
      // GF-kernel and thread-pool metrics) — one Prometheus text document.
      std::string text = metrics_.render_prometheus();
      text += obs::MetricsRegistry::global().render_prometheus();
      resp.bytes({reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()});
      return;
    }
  }
  throw std::runtime_error("unknown opcode");
}

}  // namespace carousel::net
