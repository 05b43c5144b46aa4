// Crash-durability tests for the coordinator metadata journal (net/meta_log)
// and its CarouselStore integration.
//
// The discipline mirrors persistence_test.cpp: real directories, real
// fsyncs, real restarts.  "Crash" is destroy-and-reconstruct on the same
// directory — the MetaLog (or the whole store) dies with all its RAM state
// and the directory is all that survives, the same contract a SIGKILL
// leaves.  The torn-tail sweep additionally vandalises the journal at every
// byte boundary of its final record, because a real power cut does not
// respect record framing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/errors.h"
#include "net/meta_log.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace carousel::net {
namespace {

namespace fs = std::filesystem;
using test::random_bytes;

std::vector<std::uint8_t> read_bytes(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

class MetaLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("carousel_meta_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Every test gets its own registry so carousel_meta_* counters never
  // bleed between tests through the process-global registry.
  MetaLog::Options opts(bool fsync = true, std::size_t snapshot_every = 64) {
    MetaLog::Options o;
    o.fsync = fsync;
    o.snapshot_every = snapshot_every;
    o.registry = &registry_;
    return o;
  }

  static std::size_t quarantined(const fs::path& dir) {
    const fs::path q = dir / "quarantine";
    if (!fs::exists(q)) return 0;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(q))
      if (e.is_regular_file()) ++n;
    return n;
  }

  fs::path dir_;
  obs::MetricsRegistry registry_;
  static constexpr std::uint32_t kConfig = 0xC0FFEE01;
};

// One put's worth of plausible metadata.
MetaLog::FileRecord sample_file(std::uint32_t stripes = 2,
                                std::uint32_t width = 4) {
  MetaLog::FileRecord rec;
  rec.file_bytes = 4096;
  rec.stripes = stripes;
  for (std::uint32_t s = 0; s < stripes; ++s) {
    rec.placement.emplace_back();
    for (std::uint32_t i = 0; i < width; ++i)
      rec.placement.back().push_back((s + i) % width);
  }
  return rec;
}

TEST_F(MetaLogTest, WalRoundtripSurvivesRestart) {
  const auto f7 = sample_file();
  const auto f9 = sample_file(1, 4);
  {
    MetaLog log(dir_, kConfig, opts());
    log.put_intent(7, f7.file_bytes, f7.stripes, f7.placement);
    log.put_commit(7);
    log.put_intent(9, f9.file_bytes, f9.stripes, f9.placement);  // stays pending
    log.rehome_intent(7, 1, 2, 3);
    log.rehome_commit(7, 1, 2, 3);
    log.rehome_intent(7, 0, 0, 2);  // stays pending
    log.add_server(41234, 5, true);
    HedgePolicy h;
    h.enabled = true;
    h.percentile = 0.99;
    log.set_hedge(h);
  }  // destroyed: RAM state gone, directory is all that survives

  MetaLog log(dir_, kConfig, opts());
  ASSERT_EQ(log.state().manifest.size(), 1u);
  auto committed = log.state().manifest.at(7);
  auto expect = f7;
  expect.placement[1][2] = 3;  // the committed rehome
  EXPECT_EQ(committed.placement, expect.placement);
  EXPECT_EQ(committed.file_bytes, f7.file_bytes);
  ASSERT_EQ(log.state().pending_puts.size(), 1u);
  EXPECT_EQ(log.state().pending_puts.at(9).placement, f9.placement);
  ASSERT_EQ(log.state().pending_rehomes.size(), 1u);
  EXPECT_EQ(log.state().pending_rehomes[0],
            (MetaLog::RehomeIntent{7, 0, 0, 2}));
  ASSERT_EQ(log.state().spares.size(), 1u);
  EXPECT_EQ(log.state().spares[0].port, 41234);
  EXPECT_EQ(log.state().spares[0].domain, 5u);
  EXPECT_TRUE(log.state().spares[0].labeled);
  ASSERT_TRUE(log.state().hedge.has_value());
  EXPECT_TRUE(log.state().hedge->enabled);
  EXPECT_DOUBLE_EQ(log.state().hedge->percentile, 0.99);
  EXPECT_FALSE(log.replay_report().snapshot_loaded);
  EXPECT_FALSE(log.replay_report().torn_tail);
}

TEST_F(MetaLogTest, SnapshotCompactsAndTailReplays) {
  {
    MetaLog log(dir_, kConfig, opts(true, 4));  // compact every 4 records
    for (std::uint32_t f = 0; f < 6; ++f) {
      const auto rec = sample_file();
      log.put_intent(f, rec.file_bytes, rec.stripes, rec.placement);
      log.put_commit(f);
    }
  }
  EXPECT_TRUE(fs::exists(dir_ / "snapshot"));
  // The journal was reset at the last compaction: far fewer than the 13
  // records (config + 6 intent/commit pairs) this history minted.
  MetaLog log(dir_, kConfig, opts(true, 4));
  EXPECT_TRUE(log.replay_report().snapshot_loaded);
  EXPECT_EQ(log.state().manifest.size(), 6u);
  EXPECT_TRUE(log.state().pending_puts.empty());
}

TEST_F(MetaLogTest, EmptyJournalIsAFreshStart) {
  {
    MetaLog log(dir_, kConfig, opts());
  }
  // Truncate the journal to zero bytes: the directory exists but records
  // nothing.  Reopen must treat it exactly like a fresh directory.
  {
    std::ofstream(dir_ / "journal", std::ios::trunc).close();
  }
  MetaLog log(dir_, kConfig, opts());
  EXPECT_TRUE(log.state().manifest.empty());
  EXPECT_FALSE(log.replay_report().torn_tail);
  EXPECT_EQ(log.replay_report().journal_records, 0u);
  // ... and it is writable: a put roundtrips.
  const auto rec = sample_file();
  log.put_intent(1, rec.file_bytes, rec.stripes, rec.placement);
  log.put_commit(1);
  EXPECT_EQ(log.state().manifest.size(), 1u);
}

TEST_F(MetaLogTest, FsyncDisabledStillRecoversAfterCleanRestart) {
  // fsync=false trades the power-cut guarantee for speed, but a clean
  // close-and-reopen (page cache intact) must still replay everything.
  {
    MetaLog log(dir_, kConfig, opts(/*fsync=*/false));
    const auto rec = sample_file();
    log.put_intent(3, rec.file_bytes, rec.stripes, rec.placement);
    log.put_commit(3);
  }
  MetaLog log(dir_, kConfig, opts(/*fsync=*/false));
  ASSERT_EQ(log.state().manifest.size(), 1u);
  EXPECT_EQ(log.state().manifest.at(3).stripes, 2u);
}

TEST_F(MetaLogTest, TornFinalRecordTruncatedAtEveryByteBoundary) {
  // Build a journal of config + intent + commit + intent, then cut the
  // final record at EVERY byte length from "entirely missing" to "one byte
  // short".  Each cut must replay to the exact pre-final-record state, mark
  // a torn tail (when any torn bytes exist), quarantine the fragment, and
  // truncate the journal so the NEXT open is clean.
  std::size_t boundary = 0;  // journal size before the final record
  {
    MetaLog log(dir_, kConfig, opts());
    const auto rec = sample_file();
    log.put_intent(11, rec.file_bytes, rec.stripes, rec.placement);
    log.put_commit(11);
    boundary = fs::file_size(dir_ / "journal");
    log.put_intent(12, rec.file_bytes, rec.stripes, rec.placement);
  }
  const auto full = read_bytes(dir_ / "journal");
  ASSERT_GT(full.size(), boundary);

  for (std::size_t cut = boundary; cut < full.size(); ++cut) {
    const fs::path d = dir_ / ("cut_" + std::to_string(cut));
    fs::create_directories(d);
    std::ofstream out(d / "journal", std::ios::binary);
    out.write(reinterpret_cast<const char*>(full.data()),
              static_cast<std::streamsize>(cut));
    out.close();

    {
      MetaLog log(d, kConfig, opts());
      ASSERT_EQ(log.state().manifest.size(), 1u) << "cut at byte " << cut;
      EXPECT_TRUE(log.state().pending_puts.empty()) << "cut at byte " << cut;
      if (cut == boundary) {
        EXPECT_FALSE(log.replay_report().torn_tail) << "clean boundary";
      } else {
        EXPECT_TRUE(log.replay_report().torn_tail) << "cut at byte " << cut;
        EXPECT_EQ(log.replay_report().torn_bytes, cut - boundary);
        EXPECT_EQ(quarantined(d), 1u) << "cut at byte " << cut;
      }
    }
    // The replay truncated the tail, so the next open is torn-free.
    MetaLog again(d, kConfig, opts());
    EXPECT_FALSE(again.replay_report().torn_tail) << "cut at byte " << cut;
    EXPECT_EQ(again.state().manifest.size(), 1u);
  }
}

TEST_F(MetaLogTest, CrashPointsLeaveExactlyTheStateARealCrashWould) {
  const auto rec = sample_file();
  // Cut after the append's write (step 1): the record never reached the
  // platter — replay must not see the intent at all.
  {
    {
      MetaLog log(dir_, kConfig, opts());
      log.syncer().arm({.cut_after = 1});
      EXPECT_THROW(
          log.put_intent(5, rec.file_bytes, rec.stripes, rec.placement),
          durable::Crash);
    }
    MetaLog log(dir_, kConfig, opts());
    EXPECT_TRUE(log.state().pending_puts.empty());
    EXPECT_FALSE(log.replay_report().torn_tail);
  }
  // Cut after its fsync (step 2): the record is durable but was never
  // applied in memory — replay must recover the pending intent.
  {
    {
      MetaLog log(dir_, kConfig, opts());
      log.syncer().arm({.cut_after = 2});
      EXPECT_THROW(
          log.put_intent(5, rec.file_bytes, rec.stripes, rec.placement),
          durable::Crash);
      // The crash fired before apply: this instance never saw the intent.
      EXPECT_TRUE(log.state().pending_puts.empty());
    }
    MetaLog log(dir_, kConfig, opts());
    ASSERT_EQ(log.state().pending_puts.size(), 1u);
    EXPECT_EQ(log.state().pending_puts.at(5).placement, rec.placement);
  }
  // Its write torn, then dead: half the bytes are durable — replay
  // quarantines the fragment and recovers the pre-append state.
  {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    {
      MetaLog log(dir_, kConfig, opts());
      log.syncer().arm({.cut_after = 1, .tear = 1});
      EXPECT_THROW(
          log.put_intent(5, rec.file_bytes, rec.stripes, rec.placement),
          durable::Crash);
    }
    MetaLog log(dir_, kConfig, opts());
    EXPECT_TRUE(log.state().pending_puts.empty());
    EXPECT_TRUE(log.replay_report().torn_tail);
    EXPECT_EQ(quarantined(dir_), 1u);
  }
}

TEST_F(MetaLogTest, SecondTornTailQuarantinesBesideTheFirst) {
  // Two torn appends, each found by the next open: the second fragment
  // must not overwrite the first one's evidence.
  const auto rec = sample_file();
  {
    MetaLog log(dir_, kConfig, opts());
    log.syncer().arm({.cut_after = 1, .tear = 1});
    EXPECT_THROW(
        log.put_intent(5, rec.file_bytes, rec.stripes, rec.placement),
        durable::Crash);
  }
  std::uint64_t first = 0;
  {
    MetaLog log(dir_, kConfig, opts());
    ASSERT_TRUE(log.replay_report().torn_tail);
    first = log.replay_report().torn_bytes;
    log.put_intent(5, rec.file_bytes, rec.stripes, rec.placement);
    log.syncer().arm({.cut_after = 1, .tear = 1});
    EXPECT_THROW(log.put_commit(5), durable::Crash);
  }
  MetaLog log(dir_, kConfig, opts());
  ASSERT_TRUE(log.replay_report().torn_tail);
  const std::uint64_t second = log.replay_report().torn_bytes;
  ASSERT_NE(first, second);
  EXPECT_EQ(quarantined(dir_), 2u);
  EXPECT_EQ(fs::file_size(dir_ / "quarantine" / "journal.tail"), first);
  EXPECT_EQ(fs::file_size(dir_ / "quarantine" / "journal.tail.1"), second);
  EXPECT_EQ(log.state().pending_puts.size(), 1u);
}

TEST_F(MetaLogTest, CountdownArmsALaterAppend) {
  const auto rec = sample_file();
  {
    MetaLog log(dir_, kConfig, opts());
    // Cut after step 3: the intent (append 1, steps 1-2) lands durably,
    // the commit (append 2) is lost before its fsync (step 4) — the classic
    // crash-mid-put.
    log.syncer().arm({.cut_after = 3});
    log.put_intent(8, rec.file_bytes, rec.stripes, rec.placement);
    EXPECT_THROW(log.put_commit(8), durable::Crash);
  }
  MetaLog log(dir_, kConfig, opts());
  EXPECT_TRUE(log.state().manifest.empty());
  ASSERT_EQ(log.state().pending_puts.size(), 1u);
  EXPECT_TRUE(log.state().pending_puts.contains(8));
}

// Every crash plan of a journal op with `steps` steps whose writes are
// `writes`: a cut after each N in 0..steps, with renames kept and undone,
// and each write torn, then dead.  (A write torn and then fsynced on, by a
// disk that lied, would publish a torn snapshot, which the open refuses
// loudly by design.)
std::vector<durable::CrashPlan> every_cut(
    std::uint32_t steps, const std::vector<std::uint32_t>& writes) {
  std::vector<durable::CrashPlan> plans;
  for (const bool undo : {false, true}) {
    for (std::uint32_t n = 0; n <= steps; ++n)
      plans.push_back({.cut_after = n, .undo_renames = undo});
    for (const std::uint32_t t : writes)
      plans.push_back({.cut_after = t, .tear = t, .undo_renames = undo});
  }
  return plans;
}

std::string describe(const durable::CrashPlan& plan) {
  return "cut after " + std::to_string(*plan.cut_after) + ", tear " +
         std::to_string(plan.tear) +
         (plan.undo_renames ? ", renames undone" : ", renames kept");
}

bool quarantine_holds(const fs::path& dir,
                      const std::vector<std::uint8_t>& bytes) {
  const fs::path q = dir / "quarantine";
  if (!fs::exists(q)) return false;
  for (const auto& e : fs::directory_iterator(q))
    if (read_bytes(e.path()) == bytes) return true;
  return false;
}

// A put intent and commit, a rehome intent and commit, and an append that
// compacts (its write and fsync, then the snapshot's write, fsync, rename
// and directory fsync, the journal truncate, and the config record's write
// and fsync), cut at every step.  A reopen must replay the state before or
// after the op, leave no snapshot.tmp, and hold every torn fragment or
// stale temp the crash left in quarantine/ byte for byte.
TEST_F(MetaLogTest, EveryCutOfEveryJournalOpReplaysBeforeOrAfter) {
  const auto rec = sample_file();
  using Script = std::function<void(MetaLog&)>;
  auto intent = [&rec](std::uint32_t f) -> Script {
    return [&rec, f](MetaLog& l) {
      l.put_intent(f, rec.file_bytes, rec.stripes, rec.placement);
    };
  };
  auto commit = [](std::uint32_t f) -> Script {
    return [f](MetaLog& l) { l.put_commit(f); };
  };
  auto all = [](std::vector<Script> steps) -> Script {
    return [steps](MetaLog& l) {
      for (const Script& s : steps) s(l);
    };
  };
  const Script rehome_intent = [](MetaLog& l) { l.rehome_intent(5, 1, 2, 3); };
  const Script rehome_commit = [](MetaLog& l) { l.rehome_commit(5, 1, 2, 3); };
  struct JournalOp {
    const char* name;
    std::size_t snapshot_every;
    Script setup;
    Script op;
    std::uint32_t steps;
    std::vector<std::uint32_t> writes;
  };
  // Compacting every 3 appends, the config record, intent 5 and commit 5
  // compact once in the setup, so the op's snapshot replaces an older one.
  const JournalOp ops[] = {
      {"put intent", 64, all({}), intent(5), 2, {1}},
      {"put commit", 64, intent(5), commit(5), 2, {1}},
      {"rehome intent", 64, all({intent(5), commit(5)}), rehome_intent, 2,
       {1}},
      {"rehome commit", 64, all({intent(5), commit(5), rehome_intent}),
       rehome_commit, 2, {1}},
      {"compacting append", 3,
       all({intent(5), commit(5), intent(6), commit(6)}), intent(7), 9,
       {1, 3, 8}},
  };
  int cases = 0;
  for (const JournalOp& op : ops) {
    MetaLog::State before;
    MetaLog::State after;
    {
      MetaLog log(dir_ / ("reference" + std::to_string(cases)), kConfig,
                  opts(true, op.snapshot_every));
      op.setup(log);
      before = log.state();
      op.op(log);
      after = log.state();
    }
    for (const durable::CrashPlan& plan : every_cut(op.steps, op.writes)) {
      SCOPED_TRACE(std::string(op.name) + ": " + describe(plan));
      const fs::path d = dir_ / ("case" + std::to_string(cases++));
      {
        MetaLog log(d, kConfig, opts(true, op.snapshot_every));
        op.setup(log);
        log.syncer().arm(plan);
        EXPECT_THROW(op.op(log), durable::Crash);
      }
      const auto journal = read_bytes(d / "journal");
      const bool had_tmp = fs::exists(d / "snapshot.tmp");
      const auto tmp = read_bytes(d / "snapshot.tmp");
      MetaLog::State replayed;
      {
        MetaLog log(d, kConfig, opts(true, op.snapshot_every));
        replayed = log.state();
        EXPECT_TRUE(replayed == before || replayed == after);
        EXPECT_FALSE(fs::exists(d / "snapshot.tmp"));
        if (had_tmp) {
          EXPECT_TRUE(quarantine_holds(d, tmp));
        }
        const auto torn = log.replay_report().torn_bytes;
        if (log.replay_report().torn_tail) {
          EXPECT_TRUE(quarantine_holds(
              d, std::vector<std::uint8_t>(journal.end() - torn,
                                           journal.end())));
        }
      }
      MetaLog again(d, kConfig, opts(true, op.snapshot_every));
      EXPECT_FALSE(again.replay_report().torn_tail);
      EXPECT_TRUE(again.state() == replayed);
    }
  }
  EXPECT_EQ(cases, 4 * 2 * (3 + 1) + 2 * (10 + 3));
}

// The steps of an open that finds a torn tail, then one append: the
// fragment's write (1), fsync (2) and directory fsync (3) in quarantine/,
// the journal truncate (4), the append's write (5) and fsync (6).  After
// every cut the fragment is in quarantine/ or still in the journal.
TEST_F(MetaLogTest, TornTailReachesQuarantineBeforeTheJournalShrinks) {
  const auto rec = sample_file();
  int cases = 0;
  for (const durable::CrashPlan& plan : every_cut(6, {1, 5})) {
    SCOPED_TRACE(describe(plan));
    const fs::path d = dir_ / ("case" + std::to_string(cases++));
    std::size_t boundary = 0;
    {
      MetaLog log(d, kConfig, opts());
      log.put_intent(5, rec.file_bytes, rec.stripes, rec.placement);
      boundary = fs::file_size(d / "journal");
      log.syncer().arm({.cut_after = 1, .tear = 1});
      EXPECT_THROW(log.put_commit(5), durable::Crash);
    }
    const auto journal = read_bytes(d / "journal");
    ASSERT_GT(journal.size(), boundary);
    const std::vector<std::uint8_t> fragment(journal.begin() + boundary,
                                             journal.end());
    durable::Syncer::arm_next(plan);
    EXPECT_THROW(
        {
          MetaLog log(d, kConfig, opts());
          log.put_intent(6, rec.file_bytes, rec.stripes, rec.placement);
        },
        durable::Crash);
    const auto now = read_bytes(d / "journal");
    const bool in_journal =
        now.size() >= journal.size() &&
        std::equal(fragment.begin(), fragment.end(), now.begin() + boundary);
    EXPECT_TRUE(in_journal || quarantine_holds(d, fragment));
    MetaLog log(d, kConfig, opts());
    EXPECT_TRUE(quarantine_holds(d, fragment));
    EXPECT_TRUE(log.state().pending_puts.contains(5));
  }
  EXPECT_EQ(cases, 2 * (7 + 2));
}

// The steps of a fresh open and its first intent: the config record's write
// (1) and fsync (2), the directory fsync that makes the journal's creation
// durable (3), and the intent's write (4) and fsync (5).  After every cut
// the reopen replays the state before or after the intent, and once the
// intent's fsync has returned, the state after: an acknowledged record is
// never lost with the journal that held it.
TEST_F(MetaLogTest, FreshJournalSurvivesEveryCutOfItsFirstAppend) {
  const auto rec = sample_file();
  MetaLog::State before;
  MetaLog::State after;
  {
    MetaLog log(dir_ / "reference", kConfig, opts());
    before = log.state();
    log.put_intent(5, rec.file_bytes, rec.stripes, rec.placement);
    after = log.state();
  }
  int cases = 0;
  for (const durable::CrashPlan& plan : every_cut(5, {1, 4})) {
    SCOPED_TRACE(describe(plan));
    const fs::path d = dir_ / ("case" + std::to_string(cases++));
    durable::Syncer::arm_next(plan);
    EXPECT_THROW(
        {
          MetaLog log(d, kConfig, opts());
          log.put_intent(5, rec.file_bytes, rec.stripes, rec.placement);
        },
        durable::Crash);
    MetaLog log(d, kConfig, opts());
    if (plan.cut_after.value_or(0) >= 5) {
      EXPECT_TRUE(log.state() == after);
    } else {
      EXPECT_TRUE(log.state() == before || log.state() == after);
    }
  }
  EXPECT_EQ(cases, 2 * (6 + 2));
}

// A compaction step that fails (each of the 7 in turn) neither fails the
// append that triggered it nor lets the journal shrink before the
// snapshot's rename is durable: the next append's fsync is then cut with
// renames undone, and the reopen still replays every durable record.
TEST_F(MetaLogTest, FailedCompactionKeepsItsAppendAndTheJournal) {
  const auto rec = sample_file();
  auto script = [&rec](MetaLog& log) {
    for (std::uint32_t f : {5u, 6u}) {
      log.put_intent(f, rec.file_bytes, rec.stripes, rec.placement);
      log.put_commit(f);
    }
  };
  MetaLog::State committed;  // the script, then intent 7 and commit 7
  {
    MetaLog log(dir_ / "reference", kConfig, opts(true, 3));
    script(log);
    log.put_intent(7, rec.file_bytes, rec.stripes, rec.placement);
    log.put_commit(7);
    committed = log.state();
  }
  // Compacting every 3 appends, intent 7 compacts: its write (1) and fsync
  // (2), then the compaction's steps 3..9.
  for (std::uint32_t fail = 3; fail <= 9; ++fail) {
    SCOPED_TRACE("fail step " + std::to_string(fail));
    const fs::path d = dir_ / ("fail" + std::to_string(fail));
    obs::MetricsRegistry reg;
    MetaLog::Options o = opts(true, 3);
    o.registry = &reg;
    const obs::Counter& snapshots =
        reg.counter("carousel_meta_snapshots_total");
    const obs::Counter& failures =
        reg.counter("carousel_meta_snapshot_failures_total");
    {
      MetaLog log(d, kConfig, o);
      script(log);
      log.syncer().arm(
          {.cut_after = fail + 2, .fail = fail, .undo_renames = true});
      log.put_intent(7, rec.file_bytes, rec.stripes, rec.placement);
      EXPECT_TRUE(log.state().pending_puts.contains(7));
      EXPECT_EQ(failures.value(), 1u);
      EXPECT_THROW(log.put_commit(7), durable::Crash);
    }
    MetaLog log(d, kConfig, o);
    EXPECT_TRUE(log.state() == committed);
    const std::uint64_t snapshots_before = snapshots.value();
    for (std::uint32_t f : {8u, 9u}) {
      log.put_intent(f, rec.file_bytes, rec.stripes, rec.placement);
      log.put_commit(f);
    }
    EXPECT_EQ(snapshots.value(), snapshots_before + 1);
    EXPECT_EQ(failures.value(), 1u);
    MetaLog again(d, kConfig, o);
    EXPECT_TRUE(again.state() == log.state());
  }
}

TEST_F(MetaLogTest, ConfigFingerprintMismatchRefusesReplay) {
  {
    MetaLog log(dir_, kConfig, opts());
    const auto rec = sample_file();
    log.put_intent(2, rec.file_bytes, rec.stripes, rec.placement);
  }
  // Journal-borne fingerprint (the kRecConfig record).
  EXPECT_THROW(MetaLog(dir_, kConfig + 1, opts()), MetaReplayError);
  // Snapshot-borne fingerprint.
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  {
    MetaLog log(dir_, kConfig, opts(true, 1));  // snapshot after every record
    const auto rec = sample_file();
    log.put_intent(2, rec.file_bytes, rec.stripes, rec.placement);
  }
  ASSERT_TRUE(fs::exists(dir_ / "snapshot"));
  EXPECT_THROW(MetaLog(dir_, kConfig + 1, opts()), MetaReplayError);
}

TEST_F(MetaLogTest, CorruptSnapshotQuarantinedAndLoud) {
  {
    MetaLog log(dir_, kConfig, opts(true, 1));
    const auto rec = sample_file();
    log.put_intent(2, rec.file_bytes, rec.stripes, rec.placement);
    log.put_commit(2);
  }
  ASSERT_TRUE(fs::exists(dir_ / "snapshot"));
  {
    // Flip bytes in the middle of the snapshot: CRC fails.
    std::fstream f(dir_ / "snapshot",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);
    f.write("\xde\xad\xbe\xef", 4);
  }
  EXPECT_THROW(MetaLog(dir_, kConfig, opts()), MetaReplayError);
  EXPECT_FALSE(fs::exists(dir_ / "snapshot"));  // moved, not deleted
  EXPECT_EQ(quarantined(dir_), 1u);
}

TEST_F(MetaLogTest, DuplicatePutIntentThrowsTyped) {
  MetaLog log(dir_, kConfig, opts());
  const auto rec = sample_file();
  log.put_intent(4, rec.file_bytes, rec.stripes, rec.placement);
  // Duplicate against a pending intent...
  EXPECT_THROW(log.put_intent(4, rec.file_bytes, rec.stripes, rec.placement),
               DuplicateFileError);
  log.put_commit(4);
  // ... and against a committed manifest entry.
  EXPECT_THROW(log.put_intent(4, rec.file_bytes, rec.stripes, rec.placement),
               DuplicateFileError);
}

TEST_F(MetaLogTest, InspectReportsWithoutRepairing) {
  {
    MetaLog log(dir_, kConfig, opts());
    const auto rec = sample_file();
    log.put_intent(6, rec.file_bytes, rec.stripes, rec.placement);
    log.put_commit(6);
  }
  // Vandalise: append garbage so the journal has a torn tail.
  {
    std::ofstream f(dir_ / "journal", std::ios::binary | std::ios::app);
    f.write("garbage-bytes", 13);
  }
  const auto before = fs::file_size(dir_ / "journal");
  const std::string report = MetaLog::inspect(dir_);
  EXPECT_NE(report.find("put_intent: 1"), std::string::npos) << report;
  EXPECT_NE(report.find("put_commit: 1"), std::string::npos) << report;
  EXPECT_NE(report.find("TORN TAIL"), std::string::npos) << report;
  // Read-only: same size, nothing quarantined, nothing truncated.
  EXPECT_EQ(fs::file_size(dir_ / "journal"), before);
  EXPECT_EQ(quarantined(dir_), 0u);
}

TEST_F(MetaLogTest, MetricsCountTheWork) {
  {
    MetaLog log(dir_, kConfig, opts());
    const auto rec = sample_file();
    log.put_intent(1, rec.file_bytes, rec.stripes, rec.placement);
    log.put_commit(1);
  }
  EXPECT_GE(registry_.counter("carousel_meta_appends_total").value(), 3u);
  EXPECT_GE(registry_.counter("carousel_meta_fsyncs_total").value(), 3u);
  MetaLog log(dir_, kConfig, opts());
  EXPECT_GE(registry_.counter("carousel_meta_replay_records_total").value(),
            3u);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// CMJ1 and CMS1 are on-disk formats: a refactor of the writer must not move
// a byte.  The script mints every record kind, compacts once (the snapshot
// then holds a manifest entry, a pending put, two pending rehomes, two
// spares and a hedge), and journals every kind again after the reset.
TEST_F(MetaLogTest, JournalAndSnapshotBytesArePinned) {
  {
    MetaLog log(dir_, kConfig, opts(/*fsync=*/false, /*snapshot_every=*/9));
    log.add_server(9001, 3, true);
    log.add_server(9002, 0, false);
    HedgePolicy hedge;
    hedge.enabled = true;
    hedge.percentile = 0.99;
    hedge.floor = std::chrono::milliseconds(7);
    hedge.initial = std::chrono::milliseconds(40);
    hedge.min_samples = 16;
    log.set_hedge(hedge);
    log.put_intent(1, 1000, 2, {{0, 1, 2}, {3, 4, 5}});
    log.put_commit(1);
    log.put_intent(2, 50, 1, {{6, 7, 8}});
    log.rehome_intent(1, 0, 1, 9);
    log.rehome_intent(1, 1, 2, 10);  // ninth record: compaction at lsn 9
    log.rehome_commit(1, 0, 1, 9);
    log.rehome_abort(1, 1, 2);
    log.put_abort(2);
    log.add_server(9003, 5, true);
    hedge.enabled = false;
    hedge.percentile = 0.5;
    log.set_hedge(hedge);
    log.put_intent(3, 77, 1, {{11, 10, 9}});
    log.put_commit(3);
    log.rehome_intent(3, 0, 2, 12);
  }
  EXPECT_EQ(hex(read_bytes(dir_ / "journal")),
            "434d4a31000a000000000000000400000001eeffc06c188182434d4a31060b0000"
            "00000000001000000001000000000000000100000009000000b25b244f434d4a31"
            "070c000000000000000c000000010000000100000002000000e43983ef434d4a31"
            "040d00000000000000040000000200000050aaf9b5434d4a31010e000000000000"
            "000b0000002b2305000000000000000145f5d3c7434d4a31080f00000000000000"
            "2100000000000000000000e03f0700000000000000280000000000000010000000"
            "000000006f5dd85c434d4a3102100000000000000020000000030000004d000000"
            "0000000001000000030000000b0000000a000000090000000d669c0f434d4a3103"
            "11000000000000000400000003000000285cd26c434d4a31051200000000000000"
            "100000000300000000000000020000000c000000492698c3");
  EXPECT_EQ(hex(read_bytes(dir_ / "snapshot")),
            "434d533101eeffc009000000000000000100000001000000e80300000000000002"
            "000000030000000000000001000000020000000300000004000000050000000100"
            "0000020000003200000000000000010000000300000006000000070000000800"
            "000002000000010000000000000001000000090000000100000001000000020000"
            "000a0000000200000029230300000000000000012a230000000000000000000101"
            "ae47e17a14aeef3f070000000000000028000000000000001000000000000000db"
            "936cad");

  MetaLog log(dir_, kConfig, opts(false, 9));
  EXPECT_EQ(log.lsn(), 18u);
  EXPECT_EQ(log.state().manifest.size(), 2u);
  EXPECT_EQ(log.state().manifest.at(1).placement[0][1], 9u);
  EXPECT_TRUE(log.state().pending_puts.empty());
  ASSERT_EQ(log.state().pending_rehomes.size(), 1u);
  EXPECT_EQ(log.state().pending_rehomes[0],
            (MetaLog::RehomeIntent{3, 0, 2, 12}));
  ASSERT_EQ(log.state().spares.size(), 3u);
  EXPECT_EQ(log.state().spares[2].port, 9003);
  ASSERT_TRUE(log.state().hedge.has_value());
  EXPECT_DOUBLE_EQ(log.state().hedge->percentile, 0.5);
}

// ---- CarouselStore integration --------------------------------------------

class MetaStoreTest : public MetaLogTest {
 protected:
  void SetUp() override {
    MetaLogTest::SetUp();
    for (int i = 0; i < 6; ++i) {
      servers_.push_back(std::make_unique<BlockServer>());
      ports_.push_back(servers_.back()->port());
    }
  }

  StoreOptions meta_options() {
    StoreOptions o;
    o.meta_dir = dir_;
    o.registry = &registry_;
    return o;
  }

  std::vector<std::unique_ptr<BlockServer>> servers_;
  std::vector<std::uint16_t> ports_;
  codes::Carousel code_{12, 6, 10, 12};
};

TEST_F(MetaStoreTest, ManifestSurvivesCoordinatorRestart) {
  const std::size_t block = code_.s() * 64;
  const auto file = random_bytes(2 * code_.k() * block, 123);
  {
    CarouselStore store(code_, ports_, block, meta_options());
    ASSERT_TRUE(store.durable_meta());
    store.put_file(42, file);
    ASSERT_EQ(store.read_file(42, file.size()), file);
  }  // the coordinator dies; the servers and the meta dir survive
  CarouselStore store(code_, ports_, block, meta_options());
  EXPECT_EQ(store.read_file(42, file.size()), file);  // bit-exact, no re-put
  EXPECT_EQ(store.files().size(), 1u);
}

TEST_F(MetaStoreTest, DuplicatePutFileRejectedTyped) {
  const std::size_t block = code_.s() * 64;
  const auto file = random_bytes(code_.k() * block, 77);
  // With durable metadata...
  {
    CarouselStore store(code_, ports_, block, meta_options());
    store.put_file(1, file);
    EXPECT_THROW(store.put_file(1, file), DuplicateFileError);
    // The failed duplicate must not damage the original.
    EXPECT_EQ(store.read_file(1, file.size()), file);
  }
  // ... and equally on a plain in-memory store.
  CarouselStore mem(code_, ports_, block);
  mem.put_file(9, file);
  EXPECT_THROW(mem.put_file(9, file), DuplicateFileError);
}

TEST_F(MetaStoreTest, CrashBetweenUploadAndCommitReconcilesByAdoption) {
  const std::size_t block = code_.s() * 64;
  const auto file = random_bytes(code_.k() * block, 99);
  {
    CarouselStore store(code_, ports_, block, meta_options());
    // Append 1 (steps 1-2) is the put intent, append 2 (steps 3-4) the
    // commit: the commit record never reaches the platter, but every block
    // was uploaded — the acked-data-is-on-disk crash.
    store.set_meta_crash_point({.cut_after = 3});
    EXPECT_THROW(store.put_file(3, file), durable::Crash);
    EXPECT_TRUE(store.files().empty());  // never published in memory
  }
  CarouselStore store(code_, ports_, block, meta_options());
  EXPECT_TRUE(store.files().empty());  // pending, not committed
  const auto report = store.reconcile();
  EXPECT_EQ(report.pending_puts, 1u);
  EXPECT_EQ(report.puts_adopted, 1u);  // every block verifies: adopt
  EXPECT_EQ(report.orphans_deleted, 0u);
  EXPECT_EQ(store.read_file(3, file.size()), file);  // bit-exact
  // A second reconcile is a no-op.
  EXPECT_EQ(store.reconcile().pending_puts, 0u);
}

TEST_F(MetaStoreTest, DurableCommitNeedsNoReconciliation) {
  // The dual of the adoption test: when the crash lands AFTER the commit
  // record's fsync (but before the in-memory publish), replay alone
  // commits the put — the manifest entry is there before any reconcile.
  const std::size_t block = code_.s() * 64;
  const auto file = random_bytes(code_.k() * block, 98);
  {
    CarouselStore store(code_, ports_, block, meta_options());
    store.set_meta_crash_point({.cut_after = 4});
    EXPECT_THROW(store.put_file(3, file), durable::Crash);
    EXPECT_TRUE(store.files().empty());  // crash preceded the publish
  }
  CarouselStore store(code_, ports_, block, meta_options());
  EXPECT_EQ(store.files().size(), 1u);  // replay committed it
  EXPECT_EQ(store.reconcile().pending_puts, 0u);
  EXPECT_EQ(store.read_file(3, file.size()), file);
}

TEST_F(MetaStoreTest, CrashMidUploadReconcilesByDeletion) {
  const std::size_t block = code_.s() * 64;
  const auto file = random_bytes(code_.k() * block, 55);
  {
    CarouselStore store(code_, ports_, block, meta_options());
    store.put_file(1, file);  // an innocent bystander
    // Lose the SECOND put's commit before its fsync, then kill a block so
    // the recovered intent cannot verify completely: reconciliation must
    // delete the orphans and keep the bystander intact.
    store.set_meta_crash_point({.cut_after = 3});
    EXPECT_THROW(store.put_file(2, random_bytes(code_.k() * block, 56)),
                 durable::Crash);
  }
  {
    // Remove one of file 2's landed blocks out-of-band.
    Client c(ports_[0]);
    c.remove(BlockKey{2, 0, 0});
  }
  CarouselStore store(code_, ports_, block, meta_options());
  const auto report = store.reconcile();
  EXPECT_EQ(report.pending_puts, 1u);
  EXPECT_EQ(report.puts_aborted, 1u);
  EXPECT_GT(report.orphans_deleted, 0u);  // the stragglers are swept
  EXPECT_EQ(store.files().size(), 1u);    // the bystander
  EXPECT_EQ(store.read_file(1, file.size()), file);
  // The orphan blocks of file 2 are gone from every server.
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    Client c(ports_[i]);
    for (std::uint32_t idx = 0; idx < code_.n(); ++idx)
      EXPECT_EQ(c.verify(BlockKey{2, 0, idx}), BlockHealth::kMissing);
  }
}

TEST_F(MetaStoreTest, ReconcileDeletesOrphansWithoutBlockingMutations) {
  // Each orphan DELETE may take a full op deadline on a slow server, so
  // reconcile() must issue them with no store lock held: an add_server
  // (which journals under the metadata lock) must not wait behind one.
  const std::size_t block = code_.s() * 64;
  {
    CarouselStore store(code_, ports_, block, meta_options());
    store.put_file(1, random_bytes(code_.k() * block, 57));
    store.set_meta_crash_point({.cut_after = 3});
    EXPECT_THROW(store.put_file(2, random_bytes(code_.k() * block, 58)),
                 durable::Crash);
  }
  {
    Client c(ports_[0]);
    c.remove(BlockKey{2, 0, 0});
  }
  // Server 1's first DELETE answers 800 ms late: inside the default 1 s
  // io_timeout, so nothing retries.
  auto plan = std::make_shared<FaultPlan>(1);
  plan->add({.action = FaultAction::kDelay,
             .op = Op::kDelete,
             .max_hits = 1,
             .delay_ms = 800});
  servers_[1]->set_fault_plan(plan);
  const obs::Counter& delays = servers_[1]->metrics().counter(
      obs::labeled("carousel_server_fault_injections_total", "action",
                   "delay"));

  BlockServer spare;
  CarouselStore store(code_, ports_, block, meta_options());
  CarouselStore::ReconcileReport report;
  std::jthread reconciler([&store, &report] { report = store.reconcile(); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (delays.value() < 1 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(delays.value(), 1u);  // the DELETE is stalled right now
  const auto t0 = std::chrono::steady_clock::now();
  store.add_server(spare.port());
  const auto waited = std::chrono::steady_clock::now() - t0;
  reconciler.join();
  EXPECT_LT(waited, std::chrono::milliseconds(200));

  EXPECT_EQ(report.puts_aborted, 1u);
  for (std::uint16_t port : ports_) {
    Client c(port);
    for (std::uint32_t idx = 0; idx < code_.n(); ++idx)
      EXPECT_EQ(c.verify(BlockKey{2, 0, idx}), BlockHealth::kMissing);
  }
}

// reconcile() probes a recovered rehome's target and old home as one round.
// The rehome's commit is cut before its fsync, the old home's copy is
// dropped, and every server answers a VERIFY D late: the move is adopted
// after about D, where probing the two copies one after the other takes 2 D.
TEST_F(MetaStoreTest, ReconcileProbesARehomeInOneRound) {
  const std::size_t block = code_.s() * 64;
  const auto file = random_bytes(code_.k() * block, 59);
  BlockServer spare;
  std::size_t spare_id = 0;
  std::size_t old_home = 0;
  {
    CarouselStore store(code_, ports_, block, meta_options());
    spare_id = store.add_server(spare.port());
    store.put_file(6, file);
    old_home = store.placement_of(6, 0, 3);
    // Append 1 (steps 1-2) is the rehome intent, append 2 (steps 3-4) the
    // commit: the block lands on the spare, but its move is never durable.
    store.set_meta_crash_point({.cut_after = 3});
    EXPECT_THROW(store.rehome_block(6, 0, 3), durable::Crash);
  }
  ASSERT_EQ(spare.block_count(), 1u);
  ASSERT_TRUE(Client(ports_[old_home]).remove(BlockKey{6, 0, 3}));

  const std::chrono::milliseconds stall(150);  // io_timeout is 1 s
  std::vector<BlockServer*> fleet{&spare};
  for (auto& s : servers_) fleet.push_back(s.get());
  for (BlockServer* s : fleet) {
    auto plan = std::make_shared<FaultPlan>(41);
    plan->add({.action = FaultAction::kDelay,
               .op = Op::kVerify,
               .max_hits = 1000,
               .delay_ms = static_cast<std::uint32_t>(stall.count())});
    s->set_fault_plan(plan);
  }
  CarouselStore store(code_, ports_, block, meta_options());
  const auto start = std::chrono::steady_clock::now();
  const auto report = store.reconcile();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (BlockServer* s : fleet) s->set_fault_plan(nullptr);

  EXPECT_LT(elapsed, 3 * stall / 2);
  EXPECT_EQ(report.pending_rehomes, 1u);
  EXPECT_EQ(report.rehomes_adopted, 1u);
  EXPECT_EQ(store.placement_of(6, 0, 3), spare_id);
  EXPECT_EQ(store.read_file(6, file.size()), file);
}

TEST_F(MetaStoreTest, PutFailingMidStreamCleansUp) {
  // Twelve servers, so each one holds exactly one block per stripe.
  for (int i = 0; i < 6; ++i) {
    servers_.push_back(std::make_unique<BlockServer>());
    ports_.push_back(servers_.back()->port());
  }
  const std::size_t block = code_.s() * 64;
  const auto file = random_bytes(3 * code_.k() * block - 100, 61);
  // Server 4 refuses its third PUT: stripes 0 and 1 have landed and
  // stripe 2 is part-way up when the put fails.
  auto plan = std::make_shared<FaultPlan>(1);
  plan->add({.action = FaultAction::kRefuse,
             .op = Op::kPut,
             .skip = 2,
             .max_hits = 1000});
  servers_[4]->set_fault_plan(plan);
  {
    CarouselStore store(code_, ports_, block, meta_options());
    EXPECT_THROW(store.put_file(5, file), ServerError);
    EXPECT_TRUE(store.files().empty());
  }
  EXPECT_EQ(plan->injected(), 1u);
  // Every block that landed was deleted again.
  for (std::uint16_t port : ports_) {
    Client c(port);
    for (std::uint32_t s = 0; s < 3; ++s)
      for (std::uint32_t idx = 0; idx < code_.n(); ++idx)
        EXPECT_EQ(c.verify(BlockKey{5, s, idx}), BlockHealth::kMissing)
            << "port " << port << " stripe " << s << " block " << idx;
  }
  // The journal recorded the abort: nothing is left pending.
  CarouselStore store(code_, ports_, block, meta_options());
  EXPECT_TRUE(store.files().empty());
  EXPECT_EQ(store.reconcile().pending_puts, 0u);
  // The id is free again once the fault clears.
  servers_[4]->set_fault_plan(nullptr);
  EXPECT_EQ(store.put_file(5, file), 3u);
  EXPECT_EQ(store.read_file(5, file.size()), file);
}

// A failed abort record does not mask the upload's own error: put_file
// throws the refused PUT's ServerError, the intent stays pending in the
// journal, and a reopened store's reconcile() resolves it.
TEST_F(MetaStoreTest, FailedAbortRecordKeepsTheUploadsError) {
  // Twelve servers, so each one holds exactly one block per stripe.
  for (int i = 0; i < 6; ++i) {
    servers_.push_back(std::make_unique<BlockServer>());
    ports_.push_back(servers_.back()->port());
  }
  const std::size_t block = code_.s() * 64;
  const auto file = random_bytes(2 * code_.k() * block, 63);
  auto plan = std::make_shared<FaultPlan>(3);
  plan->add({.action = FaultAction::kRefuse, .op = Op::kPut, .max_hits = 1000});
  servers_[4]->set_fault_plan(plan);
  {
    CarouselStore store(code_, ports_, block, meta_options());
    // Steps 1-2 are the intent's write and fsync, step 3 the abort
    // record's write.
    store.set_meta_crash_point({.fail = 3});
    EXPECT_THROW(store.put_file(5, file), ServerError);
    EXPECT_TRUE(store.files().empty());
  }
  servers_[4]->set_fault_plan(nullptr);
  CarouselStore store(code_, ports_, block, meta_options());
  const auto report = store.reconcile();
  EXPECT_EQ(report.pending_puts, 1u);
  EXPECT_EQ(report.puts_aborted, 1u);
  for (std::uint16_t port : ports_) {
    Client c(port);
    for (std::uint32_t s = 0; s < 2; ++s)
      for (std::uint32_t idx = 0; idx < code_.n(); ++idx)
        EXPECT_EQ(c.verify(BlockKey{5, s, idx}), BlockHealth::kMissing)
            << "port " << port << " stripe " << s << " block " << idx;
  }
  EXPECT_EQ(store.put_file(5, file), 2u);
  EXPECT_EQ(store.read_file(5, file.size()), file);
}

TEST_F(MetaStoreTest, ReplayReportIsExposed) {
  const std::size_t block = code_.s() * 64;
  {
    CarouselStore store(code_, ports_, block, meta_options());
    store.put_file(1, random_bytes(code_.k() * block, 5));
  }
  CarouselStore store(code_, ports_, block, meta_options());
  const auto report = store.meta_replay_report();
  EXPECT_GE(report.journal_records, 3u);  // config + intent + commit
  EXPECT_FALSE(report.torn_tail);
  // An in-memory store reports an empty replay.
  CarouselStore mem(code_, ports_, block);
  EXPECT_FALSE(mem.durable_meta());
  EXPECT_EQ(mem.meta_replay_report().journal_records, 0u);
}

}  // namespace
}  // namespace carousel::net
