// Crash-consistency tests: real directories, real fsyncs, real restarts.
//
// Each test builds an on-disk state — through the crash-atomic write path,
// through the durable layer's crash injector, or by vandalising files
// directly — then proves the recovery scan classifies it exactly as
// DESIGN.md "Durability & crash consistency" promises: intact blocks
// reload, everything else is quarantined (moved, never deleted) and
// reported so the scrubber heals it at the code's optimal repair traffic.
// "Crash" here is destroy-and-reconstruct on the same directory: the
// BlockServer object dies with all its RAM state, the directory is all that
// survives — the same contract a SIGKILL leaves, minus the fork/exec
// plumbing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/errors.h"
#include "net/fault.h"
#include "net/persistence.h"
#include "net/scrubber.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/crc32.h"

namespace carousel::net {
namespace {

namespace fs = std::filesystem;
using test::random_bytes;

// One-shot policy for crash-injection tests: a retry would re-PUT over the
// injected torn state and mask it.
RetryPolicy one_shot() {
  RetryPolicy p;
  p.max_attempts = 1;
  p.io_timeout = std::chrono::milliseconds(500);
  p.op_deadline = std::chrono::milliseconds(3000);
  return p;
}

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.io_timeout = std::chrono::milliseconds(250);
  p.base_backoff = std::chrono::milliseconds(2);
  p.max_backoff = std::chrono::milliseconds(20);
  p.op_deadline = std::chrono::milliseconds(3000);
  return p;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("carousel_persist_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::size_t entries(const fs::path& p) {
    if (!fs::exists(p)) return 0;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(p)) {
      (void)e;
      ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(PersistenceTest, StemRoundTripsAndRejectsNonCanonical) {
  BlockKey key{7, 300, 11};
  EXPECT_EQ(PersistentBlockStore::stem_of(key), "b7_300_11");
  EXPECT_EQ(PersistentBlockStore::parse_stem("b7_300_11"), key);
  EXPECT_FALSE(PersistentBlockStore::parse_stem("b7_300").has_value());
  EXPECT_FALSE(PersistentBlockStore::parse_stem("b07_300_11").has_value());
  EXPECT_FALSE(PersistentBlockStore::parse_stem("x7_300_11").has_value());
  EXPECT_FALSE(PersistentBlockStore::parse_stem("b7_300_11x").has_value());
}

TEST_F(PersistenceTest, RecoveryOfEmptyDirectoryIsClean) {
  BlockServer server(0, dir_);
  const RecoveryReport& rec = server.recovery_report();
  EXPECT_EQ(rec.recovered, 0u);
  EXPECT_EQ(rec.quarantined_files, 0u);
  EXPECT_TRUE(rec.damaged.empty());
  EXPECT_TRUE(server.persistent());
  EXPECT_EQ(server.block_count(), 0u);
}

TEST_F(PersistenceTest, BlocksSurviveRestartBitExactly) {
  BlockKey a{1, 0, 0};
  BlockKey b{1, 0, 5};
  auto bytes_a = random_bytes(4096, 1);
  auto bytes_b = random_bytes(100, 2);
  std::uint16_t port = 0;
  {
    BlockServer server(0, dir_);
    port = server.port();
    Client client(port);
    client.put(a, bytes_a);
    client.put(b, bytes_b);
    client.put(b, bytes_b);  // overwrite of an existing key is clean too
  }  // "crash": the object (and every in-memory block) is gone

  BlockServer revived(port, dir_);
  EXPECT_EQ(revived.recovery_report().recovered, 2u);
  EXPECT_EQ(revived.recovery_report().quarantined_files, 0u);
  EXPECT_EQ(revived.block_count(), 2u);
  Client client(port);
  EXPECT_EQ(*client.get(a), bytes_a);
  EXPECT_EQ(*client.get(b), bytes_b);
}

TEST_F(PersistenceTest, DeleteIsDurable) {
  BlockKey key{3, 0, 0};
  {
    BlockServer server(0, dir_);
    Client client(server.port());
    client.put(key, random_bytes(256, 3));
    EXPECT_TRUE(client.remove(key));
  }
  BlockServer revived(0, dir_);
  EXPECT_EQ(revived.recovery_report().recovered, 0u);
  Client client(revived.port());
  EXPECT_EQ(client.verify(key), BlockHealth::kMissing);
}

TEST_F(PersistenceTest, CrashPointsLeaveExactlyTheirTornState) {
  const BlockKey key{2, 1, 4};
  auto bytes = random_bytes(1024, 4);
  const std::uint32_t crc = util::crc32(bytes);

  {
    // Crash mid-write (step 1 torn, then dead): only a stale (partial) temp
    // file survives; the block as named was never touched.
    PersistentBlockStore store(dir_ / "before_fsync");
    store.syncer().arm({.cut_after = 1, .tear = 1});
    EXPECT_THROW(store.put(key, bytes, crc), durable::Crash);
    PersistentBlockStore again(dir_ / "before_fsync");
    RecoveryReport rec = again.recover();
    EXPECT_EQ(rec.stale_temps, 1u);
    EXPECT_EQ(rec.quarantined_files, 1u);
    EXPECT_EQ(rec.recovered, 0u);
    EXPECT_TRUE(rec.damaged.empty());  // nothing committed, nothing damaged
  }
  {
    // Crash after the flush (step 2), before the rename: same
    // classification — a temp file is uncommitted by construction.
    PersistentBlockStore store(dir_ / "before_rename");
    store.syncer().arm({.cut_after = 2});
    EXPECT_THROW(store.put(key, bytes, crc), durable::Crash);
    PersistentBlockStore again(dir_ / "before_rename");
    RecoveryReport rec = again.recover();
    EXPECT_EQ(rec.stale_temps, 1u);
    EXPECT_EQ(rec.recovered, 0u);
  }
  {
    // Torn write: step 1 lands half, every later step "succeeds", so a
    // truncated payload is published under a full-length commit record.
    // The pair is quarantined and the key reported damaged.
    PersistentBlockStore store(dir_ / "torn");
    store.syncer().arm({.cut_after = 7, .tear = 1});
    EXPECT_THROW(store.put(key, bytes, crc), durable::Crash);
    std::vector<PersistentBlockStore::RecoveredBlock> out;
    PersistentBlockStore again(dir_ / "torn");
    RecoveryReport rec = again.recover(&out);
    EXPECT_EQ(rec.torn_payloads, 1u);
    EXPECT_EQ(rec.quarantined_files, 2u);
    EXPECT_EQ(rec.recovered, 0u);
    EXPECT_TRUE(out.empty());
    ASSERT_EQ(rec.damaged.size(), 1u);
    EXPECT_EQ(rec.damaged[0], key);
  }
}

TEST_F(PersistenceTest, RecoveryQuarantinesCrcMismatch) {
  const BlockKey key{5, 0, 2};
  auto bytes = random_bytes(512, 5);
  PersistentBlockStore store(dir_);
  ASSERT_NO_THROW(store.put(key, bytes, util::crc32(bytes)));
  ASSERT_TRUE(store.corrupt_at_rest(key, 100));

  PersistentBlockStore again(dir_);
  RecoveryReport rec = again.recover();
  EXPECT_EQ(rec.crc_mismatches, 1u);
  EXPECT_EQ(rec.quarantined_files, 2u);
  EXPECT_EQ(rec.recovered, 0u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], key);
  // Quarantined, not deleted: both files moved aside as evidence.
  EXPECT_EQ(entries(again.quarantine_dir()), 2u);
}

TEST_F(PersistenceTest, RecorruptedBlockQuarantinesBesideTheFirstCopy) {
  // The same key rots, is re-put, and rots again: the second recovery must
  // keep the first recovery's evidence and file the new pair under `.1`.
  const BlockKey key{5, 0, 2};
  const std::string stem = PersistentBlockStore::stem_of(key);
  for (std::size_t size : {512u, 256u}) {
    auto bytes = random_bytes(size, 15);
    PersistentBlockStore store(dir_);
    ASSERT_NO_THROW(store.put(key, bytes, util::crc32(bytes)));
    ASSERT_TRUE(store.corrupt_at_rest(key, 100));
    RecoveryReport rec = PersistentBlockStore(dir_).recover();
    EXPECT_EQ(rec.crc_mismatches, 1u);
    EXPECT_EQ(rec.quarantined_files, 2u);
  }
  const fs::path q = dir_ / "quarantine";
  EXPECT_EQ(entries(q), 4u);
  EXPECT_EQ(fs::file_size(q / (stem + ".blk")), 512u);
  EXPECT_EQ(fs::file_size(q / (stem + ".blk.1")), 256u);
  EXPECT_TRUE(fs::exists(q / (stem + ".meta")));
  EXPECT_TRUE(fs::exists(q / (stem + ".meta.1")));
}

TEST_F(PersistenceTest, RecoveryQuarantinesOrphanedCommitRecord) {
  // The "manifest points at a deleted file" case: the record survives, the
  // payload is gone.
  const BlockKey key{6, 0, 0};
  auto bytes = random_bytes(64, 6);
  PersistentBlockStore store(dir_);
  ASSERT_NO_THROW(store.put(key, bytes, util::crc32(bytes)));
  fs::remove(dir_ / (PersistentBlockStore::stem_of(key) + ".blk"));

  RecoveryReport rec = PersistentBlockStore(dir_).recover();
  EXPECT_EQ(rec.orphaned_metas, 1u);
  EXPECT_EQ(rec.quarantined_files, 1u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], key);
}

TEST_F(PersistenceTest, RecoveryQuarantinesOrphanedPayload) {
  // Payload without its commit record (interrupted erase, or a crash
  // between the two publishes): untrusted, quarantined, reported.
  const BlockKey key{6, 1, 0};
  auto bytes = random_bytes(64, 7);
  PersistentBlockStore store(dir_);
  ASSERT_NO_THROW(store.put(key, bytes, util::crc32(bytes)));
  fs::remove(dir_ / (PersistentBlockStore::stem_of(key) + ".meta"));

  RecoveryReport rec = PersistentBlockStore(dir_).recover();
  EXPECT_EQ(rec.orphaned_payloads, 1u);
  EXPECT_EQ(rec.quarantined_files, 1u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], key);
}

TEST_F(PersistenceTest, RecoveryQuarantinesDuplicateClaimsOnOneKey) {
  const BlockKey key{1, 0, 0};
  auto bytes = random_bytes(128, 8);
  PersistentBlockStore store(dir_);
  ASSERT_NO_THROW(store.put(key, bytes, util::crc32(bytes)));
  // A stray copy of the pair under another (valid) stem claims the same
  // key; the lexicographically first intact pair must win.
  fs::copy_file(dir_ / "b1_0_0.blk", dir_ / "b9_9_9.blk");
  fs::copy_file(dir_ / "b1_0_0.meta", dir_ / "b9_9_9.meta");

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
  EXPECT_EQ(rec.recovered, 1u);
  EXPECT_EQ(rec.duplicates, 1u);
  EXPECT_EQ(rec.quarantined_files, 2u);
  EXPECT_TRUE(rec.damaged.empty());  // the key itself loaded intact
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, key);
  EXPECT_EQ(out[0].bytes, bytes);
}

TEST_F(PersistenceTest, RecoveryQuarantinesZeroLengthTempFile) {
  const BlockKey key{4, 0, 0};
  auto bytes = random_bytes(128, 9);
  PersistentBlockStore store(dir_);
  ASSERT_NO_THROW(store.put(key, bytes, util::crc32(bytes)));
  { std::ofstream(dir_ / "b4_0_1.blk.tmp"); }  // crash before any write()

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  RecoveryReport rec = PersistentBlockStore(dir_).recover(&out);
  EXPECT_EQ(rec.stale_temps, 1u);
  EXPECT_EQ(rec.quarantined_files, 1u);
  EXPECT_EQ(rec.recovered, 1u);  // the intact neighbour still loads
  EXPECT_TRUE(rec.damaged.empty());
}

TEST_F(PersistenceTest, QuarantinedKeyAnswersCorruptUntilRePut) {
  const BlockKey key{11, 0, 3};
  auto bytes = random_bytes(2048, 10);
  {
    PersistentBlockStore store(dir_);
    store.syncer().arm({.cut_after = 7, .tear = 1});
    ASSERT_THROW(store.put(key, bytes, util::crc32(bytes)), durable::Crash);
  }
  BlockServer server(0, dir_);
  ASSERT_EQ(server.recovery_report().damaged.size(), 1u);
  Client client(server.port(), fast_policy());
  // kCorrupt — not kNotFound — so the scrubber repairs instead of ignoring,
  // and on every op that serves the block's bytes.
  EXPECT_EQ(client.verify(key), BlockHealth::kCorrupt);
  EXPECT_THROW(client.get(key), CorruptBlockError);
  EXPECT_THROW(client.get_range(key, 0, 16), CorruptBlockError);
  EXPECT_THROW(client.project(key, 16, {{{0, 1}}}), CorruptBlockError);
  // A fresh PUT (what repair_block issues) clears the quarantine mark...
  client.put(key, bytes);
  EXPECT_EQ(client.verify(key), BlockHealth::kOk);
  EXPECT_EQ(*client.get(key), bytes);
  // ...durably: the healed copy survives the next restart.
  std::uint16_t port = server.port();
  server.stop();
  BlockServer revived(port, dir_);
  EXPECT_EQ(revived.recovery_report().recovered, 1u);
  Client again(port, fast_policy());
  EXPECT_EQ(*again.get(key), bytes);
}

TEST_F(PersistenceTest, AtRestCorruptionSurvivesRestartIntoQuarantine) {
  const BlockKey key{12, 0, 0};
  auto bytes = random_bytes(1024, 11);
  std::uint16_t port = 0;
  {
    BlockServer server(0, dir_);
    port = server.port();
    Client client(port);
    client.put(key, bytes);
    // corrupt_block writes through to disk, so the rot is durable.
    ASSERT_TRUE(server.corrupt_block(key, 37));
  }
  BlockServer revived(port, dir_);
  EXPECT_EQ(revived.recovery_report().crc_mismatches, 1u);
  Client client(port, fast_policy());
  EXPECT_EQ(client.verify(key), BlockHealth::kCorrupt);
}

TEST_F(PersistenceTest, CrashFaultInjectionEndToEnd) {
  const BlockKey intact{20, 0, 0};
  const BlockKey torn{20, 0, 1};
  auto bytes = random_bytes(4096, 12);
  std::uint16_t port = 0;
  {
    BlockServer server(0, dir_);
    port = server.port();
    Client client(port, fast_policy());
    client.put(intact, bytes);

    auto plan = std::make_shared<FaultPlan>(1);
    plan->add({.action = FaultAction::kCrash,
               .op = Op::kPut,
               .crash = {.cut_after = 7, .tear = 1}});
    server.set_fault_plan(plan);
    // The "dying" server severs the connection unanswered; a one-shot
    // client surfaces that as a transport failure (a retry would just
    // overwrite the torn state and mask the crash).
    Client victim(port, one_shot());
    EXPECT_THROW(victim.put(torn, bytes), TransportError);
    EXPECT_EQ(plan->injected(), 1u);
    // The in-memory copy was deliberately not updated: RAM dies anyway.
    EXPECT_EQ(server.block_count(), 1u);
  }
  BlockServer revived(port, dir_);
  const RecoveryReport& rec = revived.recovery_report();
  EXPECT_EQ(rec.recovered, 1u);
  EXPECT_EQ(rec.torn_payloads, 1u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], torn);
  Client client(port, fast_policy());
  EXPECT_EQ(*client.get(intact), bytes);
  EXPECT_EQ(client.verify(torn), BlockHealth::kCorrupt);
}

// Every crash plan of an op with `steps` durable steps whose writes are
// `writes`: a cut after each N in 0..steps, with renames kept and undone,
// and each write torn at every cut from its own step on (a torn write
// before the cut is a disk that acknowledged unwritten sectors).
std::vector<durable::CrashPlan> every_cut(std::uint32_t steps,
                                          std::vector<std::uint32_t> writes) {
  std::vector<durable::CrashPlan> plans;
  for (const bool undo : {false, true})
    for (std::uint32_t n = 0; n <= steps; ++n) {
      plans.push_back({.cut_after = n, .undo_renames = undo});
      for (const std::uint32_t t : writes)
        if (t <= n)
          plans.push_back({.cut_after = n, .tear = t, .undo_renames = undo});
    }
  return plans;
}

std::string describe(const durable::CrashPlan& plan) {
  return "cut after " + std::to_string(*plan.cut_after) + ", tear " +
         std::to_string(plan.tear) +
         (plan.undo_renames ? ", renames undone" : ", renames kept");
}

// A PUT (payload write/fsync/rename, record write/fsync/rename, directory
// fsync) and an erase (two unlinks, directory fsync), cut at every step.
// After each cut a recovery scan must find the key as its old bytes, its
// new bytes, damaged (kCorrupt) or absent (kMissing) — never other bytes —
// the bystander intact, no temp file, every file it did not load in
// quarantine/ byte for byte, and nothing left for a second scan.
TEST_F(PersistenceTest, EveryCutOfEveryBlockOpRecoversToOldOrNew) {
  const BlockKey key{7, 0, 3};
  const BlockKey bystander{7, 0, 4};
  const auto old_bytes = random_bytes(1000, 40);
  const auto new_bytes = random_bytes(1500, 41);
  const auto other = random_bytes(700, 42);
  using Bytes = std::vector<std::uint8_t>;
  struct BlockOp {
    const char* name;
    std::optional<Bytes> before;  // the key's committed bytes
    std::optional<Bytes> after;   // nullopt: the op erases it
    std::uint32_t steps;
    std::vector<std::uint32_t> writes;
  };
  const BlockOp ops[] = {
      {"fresh put", std::nullopt, new_bytes, 7, {1, 4}},
      {"overwriting put", old_bytes, new_bytes, 7, {1, 4}},
      {"erase", old_bytes, std::nullopt, 3, {}},
  };
  int cases = 0;
  for (const BlockOp& op : ops) {
    for (const durable::CrashPlan& plan : every_cut(op.steps, op.writes)) {
      SCOPED_TRACE(std::string(op.name) + ": " + describe(plan));
      const fs::path d = dir_ / ("case" + std::to_string(cases++));
      {
        PersistentBlockStore store(d);
        ASSERT_NO_THROW(store.put(bystander, other, util::crc32(other)));
        if (op.before) {
          ASSERT_NO_THROW(store.put(key, *op.before, util::crc32(*op.before)));
        }
        store.syncer().arm(plan);
        if (op.after) {
          EXPECT_THROW(store.put(key, *op.after, util::crc32(*op.after)),
                       durable::Crash);
        } else {
          EXPECT_THROW(store.erase(key), durable::Crash);
        }
      }
      std::map<std::string, Bytes> files;  // the crash state, pre-scan
      for (const auto& e : fs::directory_iterator(d))
        if (e.is_regular_file())
          files[e.path().filename().string()] = *durable::read_file(e.path());

      std::vector<PersistentBlockStore::RecoveredBlock> out;
      PersistentBlockStore again(d);
      const RecoveryReport rec = again.recover(&out);
      bool bystander_ok = false;
      for (const auto& b : out) {
        if (b.key == bystander) bystander_ok = b.bytes == other;
        if (b.key == key) {
          EXPECT_TRUE(b.bytes == op.before || b.bytes == op.after)
              << "the key recovered as bytes it never held";
        }
      }
      EXPECT_TRUE(bystander_ok);
      std::vector<Bytes> quarantined;
      if (fs::exists(again.quarantine_dir()))
        for (const auto& e : fs::directory_iterator(again.quarantine_dir()))
          quarantined.push_back(*durable::read_file(e.path()));
      for (const auto& [name, bytes] : files) {
        if (!fs::exists(d / name)) {
          EXPECT_NE(std::find(quarantined.begin(), quarantined.end(), bytes),
                    quarantined.end())
              << name << " left the directory without reaching quarantine/";
        }
      }
      for (const auto& e : fs::directory_iterator(d))
        EXPECT_NE(e.path().extension(), ".tmp") << e.path();
      EXPECT_EQ(PersistentBlockStore(d).recover().quarantined_files, 0u);
    }
  }
  EXPECT_EQ(cases, 2 * 2 * (8 + 7 + 4) + 2 * 4);
}

// erase() reads only a missing file as absent: a commit-record unlink that
// fails must answer the DELETE with kError and keep the block, in memory
// and on disk.
TEST_F(PersistenceTest, FailedUnlinkAnswersErrorAndKeepsTheBlock) {
  const BlockKey key{21, 0, 0};
  const auto bytes = random_bytes(2048, 43);
  std::uint16_t port = 0;
  {
    BlockServer server(0, dir_);
    port = server.port();
    Client client(port, fast_policy());
    client.put(key, bytes);
    auto plan = std::make_shared<FaultPlan>(3);
    plan->add({.action = FaultAction::kCrash,
               .op = Op::kDelete,
               .crash = {.fail = 1}});  // step 1: unlink of the .meta
    server.set_fault_plan(plan);
    EXPECT_THROW(client.remove(key), ServerError);
    EXPECT_EQ(plan->injected(), 1u);
    EXPECT_EQ(*client.get(key), bytes);
  }
  BlockServer revived(port, dir_);
  EXPECT_EQ(revived.recovery_report().recovered, 1u);
  EXPECT_EQ(revived.recovery_report().quarantined_files, 0u);
  Client client(port, fast_policy());
  EXPECT_EQ(*client.get(key), bytes);
}

TEST_F(PersistenceTest, PersistMetricsFlowThroughServerRegistry) {
  const BlockKey key{30, 0, 0};
  auto bytes = random_bytes(512, 13);
  {
    BlockServer server(0, dir_);
    Client client(server.port());
    client.put(key, bytes);
    obs::Snapshot snap = server.metrics().snapshot();
    EXPECT_EQ(snap.counters.at("carousel_persist_commits_total"), 1u);
    EXPECT_GE(snap.counters.at("carousel_persist_fsyncs_total"), 3u);
    EXPECT_EQ(snap.counters.at("carousel_persist_bytes_written_total"),
              bytes.size());
  }
  BlockServer revived(0, dir_);
  obs::Snapshot snap = revived.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("carousel_persist_recovered_blocks_total"), 1u);
  EXPECT_EQ(snap.counters.at("carousel_persist_quarantined_files_total"), 0u);
  EXPECT_EQ(snap.histograms.at("carousel_persist_recovery_seconds").count,
            1u);
  // The wire METRICS op exposes the same instruments.
  Client client(revived.port());
  EXPECT_NE(client.metrics_text().find("carousel_persist_recovered_blocks"),
            std::string::npos);
}

TEST_F(PersistenceTest, FsyncOffKeepsTheWritePathShape) {
  PersistentBlockStore::Options opts;
  opts.fsync = false;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  const BlockKey key{40, 0, 0};
  auto bytes = random_bytes(256, 14);
  PersistentBlockStore store(dir_, opts);
  ASSERT_NO_THROW(store.put(key, bytes, util::crc32(bytes)));
  EXPECT_EQ(reg.snapshot().counters.at("carousel_persist_fsyncs_total"), 0u);

  std::vector<PersistentBlockStore::RecoveredBlock> out;
  PersistentBlockStore again(dir_, opts);
  RecoveryReport rec = again.recover(&out);
  EXPECT_EQ(rec.recovered, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bytes, bytes);
}

// The ISSUE's acceptance scenario: a fleet of persistent servers, a torn
// final write, a kill, a restart on the same directories — recovery must
// quarantine exactly the torn block, reads stay bit-exact, and one scrub
// sweep heals the loss at the paper's d/(d-k+1) repair traffic.
TEST_F(PersistenceTest, KillAndRestartWithTornWriteHealsAtOptimalTraffic) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 128;
  std::vector<std::unique_ptr<BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < code.n(); ++i) {
    servers.push_back(std::make_unique<BlockServer>(
        0, dir_ / ("s" + std::to_string(i))));
    ports.push_back(servers.back()->port());
  }
  obs::MetricsRegistry reg;
  CarouselStore store(code, ports, block, StoreOptions{fast_policy(), &reg});
  auto file = random_bytes(2 * code.k() * block, 77);  // two stripes
  ASSERT_EQ(store.put_file(5, file), 2u);

  // Mid-workload crash on server 4: its final write — an overwrite of
  // block (5,1,4) — tears, taking the previously-good copy with it.
  const BlockKey victim_key{5, 1, 4};
  auto plan = std::make_shared<FaultPlan>(2);
  plan->add({.action = FaultAction::kCrash,
             .op = Op::kPut,
             .crash = {.cut_after = 7, .tear = 1}});
  servers[4]->set_fault_plan(plan);
  Client writer(ports[4], one_shot());
  EXPECT_THROW(writer.put(victim_key, random_bytes(block, 78)),
               TransportError);

  // Kill it (object death == SIGKILL minus the fork plumbing: every byte of
  // RAM state is gone) and restart on the same port and directory.
  servers[4]->stop();
  servers[4].reset();
  servers[4] = std::make_unique<BlockServer>(ports[4], dir_ / "s4");

  // (a) recovery quarantined only the torn block.
  const RecoveryReport& rec = servers[4]->recovery_report();
  EXPECT_EQ(rec.recovered, 1u);  // the stripe-0 block reloaded intact
  EXPECT_EQ(rec.torn_payloads, 1u);
  ASSERT_EQ(rec.damaged.size(), 1u);
  EXPECT_EQ(rec.damaged[0], victim_key);

  // (b) the file reads back bit-exactly through the degraded path — and
  // the store's long-lived clients survived the restart (client.h promise).
  EXPECT_EQ(store.read_file(5, file.size()), file);

  // (c) one scrubber sweep heals the quarantined block at optimal traffic:
  // d/(d-k+1) = 2 block sizes for (12,6,10), not k = 6.
  Scrubber scrubber(store);
  auto sweep = scrubber.run_once();
  const auto healed = scrubber.scheduler().stats();
  EXPECT_EQ(sweep.corrupt_found, 1u);
  EXPECT_EQ(sweep.missing_found, 0u);
  EXPECT_EQ(healed.completed, 1u);
  EXPECT_EQ(healed.failed, 0u);
  EXPECT_EQ(healed.bytes_moved, 2u * block);

  // The heal is durable: restart the same server once more and everything
  // verifies clean, no quarantine, bit-exact read.
  servers[4]->stop();
  servers[4].reset();
  servers[4] = std::make_unique<BlockServer>(ports[4], dir_ / "s4");
  EXPECT_EQ(servers[4]->recovery_report().recovered, 2u);
  EXPECT_EQ(servers[4]->recovery_report().quarantined_files, 0u);
  for (std::uint32_t s = 0; s < 2; ++s)
    for (std::uint32_t i = 0; i < code.n(); ++i)
      EXPECT_EQ(store.verify_block(5, s, i), BlockState::kOk)
          << "stripe " << s << " block " << i;
  EXPECT_EQ(store.read_file(5, file.size()), file);
}

}  // namespace
}  // namespace carousel::net
