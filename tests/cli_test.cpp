// End-to-end tests of the carouselctl archive format: encode to disk,
// destroy block files, decode and repair — the full operator workflow.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "cli/cli.h"
#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/meta_log.h"
#include "net/persistence.h"
#include "net/repair_scheduler.h"
#include "net/store.h"
#include "test_util.h"
#include "util/crc32.h"

namespace carousel::cli {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("carousel_cli_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write_input(std::size_t bytes, std::uint32_t seed = 7) {
    auto data = test::random_bytes(bytes, seed);
    fs::path p = dir_ / "input.bin";
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    return p;
  }

  static std::vector<std::uint8_t> slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  fs::path dir_;
};

TEST_F(CliTest, EncodeDecodeRoundTrip) {
  auto input = write_input(100'000);
  encode_file(input, dir_ / "arc", {12, 6, 10, 12}, 4096);
  std::size_t used = decode_file(dir_ / "arc", dir_ / "out.bin");
  EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(input));
  EXPECT_LE(used, 12u);
}

TEST_F(CliTest, DecodeSurvivesNMinusKLosses) {
  auto input = write_input(50'000, 9);
  encode_file(input, dir_ / "arc", {12, 6, 10, 10}, 2048);
  for (int i : {1, 4, 7, 9, 10, 11})  // 6 = n-k block files gone
    fs::remove(dir_ / "arc" / ("block_" + std::string(i < 10 ? "00" : "0") +
                               std::to_string(i) + ".bin"));
  decode_file(dir_ / "arc", dir_ / "out.bin");
  EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(input));
}

TEST_F(CliTest, DecodeFailsBeyondTolerance) {
  auto input = write_input(10'000, 3);
  encode_file(input, dir_ / "arc", {6, 3, 4, 6}, 1024);
  for (int i = 0; i < 4; ++i)
    fs::remove(dir_ / "arc" / ("block_00" + std::to_string(i) + ".bin"));
  EXPECT_THROW(decode_file(dir_ / "arc", dir_ / "out.bin"),
               std::runtime_error);
}

TEST_F(CliTest, TruncatedBlockFileTreatedAsLost) {
  auto input = write_input(10'000, 5);
  encode_file(input, dir_ / "arc", {6, 3, 4, 6}, 1024);
  // Truncate one block file: decoder must ignore it and still succeed.
  fs::resize_file(dir_ / "arc" / "block_002.bin", 10);
  decode_file(dir_ / "arc", dir_ / "out.bin");
  EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(input));
}

TEST_F(CliTest, RepairRestoresIdenticalBlockFile) {
  auto input = write_input(60'000, 11);
  encode_file(input, dir_ / "arc", {12, 6, 10, 12}, 2048);
  auto original = slurp(dir_ / "arc" / "block_005.bin");
  fs::remove(dir_ / "arc" / "block_005.bin");
  auto traffic = repair_block_file(dir_ / "arc", 5);
  EXPECT_EQ(slurp(dir_ / "arc" / "block_005.bin"), original);
  // MSR-optimal: 2 block-files' worth, not 6.
  EXPECT_EQ(traffic, 2 * original.size());
  decode_file(dir_ / "arc", dir_ / "out.bin");
  EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(input));
}

TEST_F(CliTest, RepairFallsBackUnderManyLosses) {
  auto input = write_input(30'000, 13);
  encode_file(input, dir_ / "arc", {12, 6, 10, 12}, 2048);
  auto original = slurp(dir_ / "arc" / "block_000.bin");
  for (int i : {0, 2, 8})  // 3 losses: fewer than d=10 survivors
    fs::remove(dir_ / "arc" / ("block_00" + std::to_string(i) + ".bin"));
  repair_block_file(dir_ / "arc", 0);
  EXPECT_EQ(slurp(dir_ / "arc" / "block_000.bin"), original);
}

TEST_F(CliTest, ChecksumGuardsCorruption) {
  auto input = write_input(20'000, 17);
  encode_file(input, dir_ / "arc", {6, 3, 3, 6}, 1024);
  // Flip one byte in a DATA-carrying region of every copy-path block: the
  // decode output changes, so the CRC must reject it.
  {
    std::fstream f(dir_ / "arc" / "block_001.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(3);
    char c;
    f.seekg(3);
    f.get(c);
    c = static_cast<char>(c ^ 0x1);
    f.seekp(3);
    f.put(c);
  }
  EXPECT_THROW(decode_file(dir_ / "arc", dir_ / "out.bin"),
               std::runtime_error);
}

TEST_F(CliTest, ArchiveBytesArePinned) {
  // The archive format, byte for byte: three (6,3,4,6) stripes of 1 KiB
  // blocks, the last stripe short.  A change to the MANIFEST text or to any
  // block file's layout (block i of every stripe, back to back) moves a CRC.
  auto input = write_input(2 * 3 * 1024 + 1000, 29);
  encode_file(input, dir_ / "arc", {6, 3, 4, 6}, 1024);
  const std::pair<const char*, std::uint32_t> pinned[] = {
      {"MANIFEST", 0x0c036be2u},      {"block_000.bin", 0xe0ab032du},
      {"block_001.bin", 0x55706435u}, {"block_002.bin", 0xe44b3b94u},
      {"block_003.bin", 0xed1809a2u}, {"block_004.bin", 0x6353a717u},
      {"block_005.bin", 0xd525d8cfu}};
  for (const auto& [name, crc] : pinned) {
    const auto bytes = slurp(dir_ / "arc" / name);
    EXPECT_EQ(bytes.size(), name[0] == 'M' ? 101u : 3 * 1024u) << name;
    EXPECT_EQ(util::crc32(bytes), crc) << name;
  }
}

TEST_F(CliTest, ManifestRoundTrip) {
  Manifest m;
  m.params = {12, 6, 10, 8};
  m.file_bytes = 12345;
  m.block_bytes = 4096;
  m.stripes = 3;
  m.checksum = 0xDEADBEEF;
  auto parsed = Manifest::parse(m.serialize());
  EXPECT_EQ(parsed.params, m.params);
  EXPECT_EQ(parsed.file_bytes, m.file_bytes);
  EXPECT_EQ(parsed.block_bytes, m.block_bytes);
  EXPECT_EQ(parsed.stripes, m.stripes);
  EXPECT_EQ(parsed.checksum, m.checksum);
  EXPECT_THROW(Manifest::parse("format=unknown\n"), std::runtime_error);
  EXPECT_THROW(Manifest::parse("format=carousel-archive-v1\nn=3\n"),
               std::runtime_error);
}

TEST_F(CliTest, InfoDescribesArchive) {
  auto input = write_input(10'000, 19);
  encode_file(input, dir_ / "arc", {12, 6, 10, 10}, 2048);
  fs::remove(dir_ / "arc" / "block_003.bin");
  auto text = describe(dir_ / "arc");
  EXPECT_NE(text.find("(12,6,10,10)"), std::string::npos);
  EXPECT_NE(text.find("11/12 present"), std::string::npos);
}

TEST_F(CliTest, RunDispatchesAndValidates) {
  auto input = write_input(5'000, 23);
  EXPECT_EQ(run({}), 2);
  EXPECT_EQ(run({"bogus"}), 2);
  EXPECT_EQ(run({"encode", input.string(), (dir_ / "arc").string(), "6", "3",
                 "4", "6", "1024"}),
            0);
  EXPECT_EQ(run({"info", (dir_ / "arc").string()}), 0);
  EXPECT_EQ(run({"decode", (dir_ / "arc").string(),
                 (dir_ / "out.bin").string()}),
            0);
  EXPECT_EQ(slurp(dir_ / "out.bin"), slurp(input));
  EXPECT_EQ(run({"repair", (dir_ / "arc").string(), "2"}), 0);
  EXPECT_EQ(run({"decode", "/nonexistent/dir", "x"}), 1);
}

TEST_F(CliTest, RecoverCommandScansAndQuarantines) {
  // Build a block-server data directory by hand: one intact block, one torn
  // write (truncated payload under a full-length commit record).
  namespace cnet = carousel::net;
  fs::path store_dir = dir_ / "store";
  {
    cnet::PersistentBlockStore store(store_dir);
    auto good = test::random_bytes(512, 3);
    auto torn = test::random_bytes(512, 4);
    ASSERT_NO_THROW(store.put(cnet::BlockKey{1, 0, 0}, good,
                              carousel::util::crc32(good)));
    store.syncer().arm({.cut_after = 7, .tear = 1});
    ASSERT_THROW(store.put(cnet::BlockKey{1, 0, 1}, torn,
                           carousel::util::crc32(torn)),
                 cnet::durable::Crash);
  }
  std::string report = recover_store(store_dir);
  EXPECT_NE(report.find("recovered 1 intact block(s)"), std::string::npos);
  EXPECT_NE(report.find("quarantined 2 file(s)"), std::string::npos);
  EXPECT_NE(report.find("torn payloads:      1"), std::string::npos);

  // The command is idempotent: a second scan finds a clean directory.
  EXPECT_EQ(run({"recover", store_dir.string()}), 0);
  std::string again = recover_store(store_dir);
  EXPECT_NE(again.find("recovered 1 intact block(s)"), std::string::npos);
  EXPECT_NE(again.find("quarantined 0 file(s)"), std::string::npos);

  // Argument validation: both commands demand their operands.
  EXPECT_EQ(run({"recover"}), 2);
  EXPECT_EQ(run({"serve"}), 2);
}

TEST_F(CliTest, MetaCommandInspectsCoordinatorJournal) {
  namespace cnet = carousel::net;
  fs::path meta_dir = dir_ / "meta";
  {
    cnet::MetaLog log(meta_dir, 0xC0FFEE01, {});
    log.put_intent(7, 64, 1, {{0, 1, 2, 3, 4, 5}});
    log.put_commit(7);
  }
  std::string report = meta_status(meta_dir);
  EXPECT_NE(report.find("snapshot: none"), std::string::npos);
  EXPECT_NE(report.find("put_intent: 1"), std::string::npos);
  EXPECT_NE(report.find("put_commit: 1"), std::string::npos);

  // Inspection is read-only: the journal is byte-identical afterwards,
  // even with a deliberately torn tail appended.
  std::ofstream(meta_dir / "journal",
                std::ios::binary | std::ios::app)
      << "torn";
  const auto before = fs::file_size(meta_dir / "journal");
  report = meta_status(meta_dir);
  EXPECT_NE(report.find("TORN TAIL"), std::string::npos);
  EXPECT_EQ(fs::file_size(meta_dir / "journal"), before);

  EXPECT_EQ(run({"meta", meta_dir.string()}), 0);
  EXPECT_EQ(run({"meta"}), 2);
}

TEST_F(CliTest, ClusterCommandRendersAliveAndDeadServers) {
  namespace cnet = carousel::net;
  // Two live servers (one holding a block) and one port that refuses every
  // connection: the table must show both verdicts and count only reachable
  // inventory.
  cnet::BlockServer alive0;
  cnet::BlockServer alive1;
  test::ClosedPort dead;
  const std::uint16_t dead_port = dead.port();
  auto data = test::random_bytes(768, 21);
  cnet::Client writer(alive0.port());
  writer.put(cnet::BlockKey{9, 0, 0}, data);

  std::string table =
      cluster_status({alive0.port(), alive1.port(), dead_port});
  EXPECT_NE(table.find("cluster of 3 servers:"), std::string::npos);
  EXPECT_NE(table.find("alive  1 blocks  768 bytes"), std::string::npos);
  EXPECT_NE(table.find("alive  0 blocks  0 bytes"), std::string::npos);
  EXPECT_NE(table.find("dead   (unreachable)"), std::string::npos);
  EXPECT_NE(table.find("summary: 2/3 alive, 1 blocks / 768 bytes"),
            std::string::npos);
  EXPECT_NE(table.find("placement: 0..1 blocks per reachable server"),
            std::string::npos);
  EXPECT_NE(table.find("pending re-placement: blocks of 1 dead server "
                       "await re-homing"),
            std::string::npos);

  // A fully-reachable cluster reports nothing pending.
  std::string healthy = cluster_status({alive0.port(), alive1.port()});
  EXPECT_NE(healthy.find("summary: 2/2 alive"), std::string::npos);
  EXPECT_NE(healthy.find("pending re-placement: none"), std::string::npos);

  // run() dispatch: operands demanded, ports validated, happy path exits 0.
  EXPECT_EQ(run({"cluster"}), 2);
  EXPECT_EQ(run({"cluster", "0"}), 1);
  EXPECT_EQ(run({"cluster", "70000"}), 1);
  EXPECT_EQ(run({"cluster", std::to_string(alive0.port()),
                 std::to_string(dead_port)}),
            0);
}

TEST_F(CliTest, ClusterCommandRendersRackColumnAndRollup) {
  namespace cnet = carousel::net;
  // Two racks: servers {a, b} in rack 0, {c, dead} in rack 1.  The table
  // must show the rack column per server and a per-rack rollup.
  cnet::BlockServer a;
  cnet::BlockServer b;
  cnet::BlockServer c;
  test::ClosedPort dead;
  const std::uint16_t dead_port = dead.port();
  auto data = test::random_bytes(512, 33);
  cnet::Client writer(a.port());
  writer.put(cnet::BlockKey{4, 0, 0}, data);

  std::string table = cluster_status({a.port(), b.port(), c.port(), dead_port},
                                     {0, 0, 1, 1});
  EXPECT_NE(table.find("rack 0  alive"), std::string::npos);
  EXPECT_NE(table.find("rack 1  dead"), std::string::npos);
  EXPECT_NE(table.find("rack rollup:"), std::string::npos);
  EXPECT_NE(table.find("rack 0  2 servers  2 alive  1 blocks  512 bytes"),
            std::string::npos);
  EXPECT_NE(table.find("rack 1  2 servers  1 alive  0 blocks  0 bytes"),
            std::string::npos);
  EXPECT_EQ(table.find("[rack down]"), std::string::npos);

  // A rack whose every member is unreachable gets the down marker — the
  // verdict the failure-domain invariant exists to make survivable.
  std::string down = cluster_status({a.port(), dead_port}, {0, 1});
  EXPECT_NE(down.find("rack 1  1 server  0 alive  0 blocks  0 bytes"
                      "  [rack down]"),
            std::string::npos);

  // One label per port, no more, no fewer.
  EXPECT_THROW(cluster_status({a.port()}, {0, 1}), std::invalid_argument);

  // Unlabeled fleets keep the store's one-rack-per-server default and skip
  // the rollup (it would just repeat the table).
  std::string plain = cluster_status({a.port(), b.port()});
  EXPECT_NE(plain.find("server 0  port"), std::string::npos);
  EXPECT_NE(plain.find("rack 1  alive"), std::string::npos);
  EXPECT_EQ(plain.find("rack rollup:"), std::string::npos);

  // run() parses port:rack suffixes; a dangling colon is an error, not a
  // silent default.
  EXPECT_EQ(run({"cluster", std::to_string(a.port()) + ":0",
                 std::to_string(dead_port) + ":0"}),
            0);
  EXPECT_EQ(run({"cluster", std::to_string(a.port()) + ":"}), 1);
}

TEST_F(CliTest, ReadsCommandRendersStoreSeries) {
  namespace cnet = carousel::net;
  // Before any CarouselStore runs in this process the global registry holds
  // no store series; the command says so instead of going quiet.
  cnet::BlockServer observer;
  std::string empty = reads_status(observer.port());
  EXPECT_NE(empty.find("no carousel_store_* series"), std::string::npos);

  codes::Carousel code(6, 4, 4, 6);
  std::vector<std::unique_ptr<cnet::BlockServer>> fleet;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 6; ++i) {
    fleet.push_back(std::make_unique<cnet::BlockServer>());
    ports.push_back(fleet.back()->port());
  }
  cnet::CarouselStore store(code, ports, code.s() * 4);
  auto data = test::random_bytes(4 * code.s() * 4, 32);
  store.put_file(1, data);
  EXPECT_EQ(store.read_file(1, data.size()), data);

  std::string table = reads_status(observer.port());
  EXPECT_NE(table.find("store read path on port"), std::string::npos);
  EXPECT_NE(table.find("carousel_store_range_gets_total"), std::string::npos);
  EXPECT_NE(table.find("carousel_store_hedged_reads_total"),
            std::string::npos);
  EXPECT_NE(table.find("carousel_store_hedge_wins_total"), std::string::npos);
  EXPECT_EQ(table.find("carousel_repair_"), std::string::npos);

  // run() dispatch: operand demanded, port validated, happy path exits 0.
  EXPECT_EQ(run({"reads"}), 2);
  EXPECT_EQ(run({"reads", "0"}), 1);
  EXPECT_EQ(run({"reads", std::to_string(observer.port())}), 0);
}

TEST_F(CliTest, RepairsCommandRendersSchedulerSeries) {
  namespace cnet = carousel::net;
  // The metrics endpoint of any in-process server also renders the global
  // registry, which is where a scheduler without an explicit registry
  // lands; before one exists the command says so instead of going quiet.
  cnet::BlockServer observer;
  std::string empty = repairs_status(observer.port());
  EXPECT_NE(empty.find("no carousel_repair_* series"), std::string::npos);

  codes::Carousel code(6, 4, 4, 6);
  std::vector<std::unique_ptr<cnet::BlockServer>> fleet;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 6; ++i) {
    fleet.push_back(std::make_unique<cnet::BlockServer>());
    ports.push_back(fleet.back()->port());
  }
  cnet::CarouselStore store(code, ports, code.s() * 4);
  auto data = test::random_bytes(4 * code.s() * 4, 31);
  store.put_file(1, data);
  cnet::RepairScheduler sched(store);
  ASSERT_TRUE(store.drop_block(1, 0, 2));
  sched.enqueue({1, 0, 2}, cnet::RepairScheduler::Kind::kRepair, 1);
  EXPECT_EQ(sched.step(), cnet::RepairScheduler::StepResult::kDispatched);

  std::string table = repairs_status(observer.port());
  EXPECT_NE(table.find("repair scheduler on port"), std::string::npos);
  EXPECT_NE(table.find("carousel_repair_enqueued_total"), std::string::npos);
  EXPECT_NE(table.find("carousel_repair_completed_total"), std::string::npos);
  EXPECT_NE(table.find("carousel_repair_allowed_concurrency"),
            std::string::npos);
  EXPECT_EQ(table.find("carousel_store_"), std::string::npos);

  // run() dispatch: operand demanded, port validated, happy path exits 0.
  EXPECT_EQ(run({"repairs"}), 2);
  EXPECT_EQ(run({"repairs", "0"}), 1);
  EXPECT_EQ(run({"repairs", std::to_string(observer.port())}), 0);
}

}  // namespace
}  // namespace carousel::cli
