#include "net/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "util/crc32.h"

namespace carousel::net {

namespace fs = std::filesystem;

namespace {

// Commit-record layout (little-endian, written with the wire Writer):
//   u32 magic, key (3 x u32), u64 payload length, u32 payload CRC-32,
//   u32 CRC-32 of the preceding 28 bytes.
constexpr std::uint32_t kMetaMagic = 0x314D4243;  // "CBM1"
constexpr std::size_t kMetaBytes = 32;

struct MetaRecord {
  BlockKey key;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

std::vector<std::uint8_t> serialize_meta(const BlockKey& key,
                                         std::uint64_t payload_len,
                                         std::uint32_t payload_crc) {
  Writer w;
  w.u32(kMetaMagic);
  w.key(key);
  w.u64(payload_len);
  w.u32(payload_crc);
  w.u32(util::crc32(w.data()));
  return w.data();
}

std::optional<MetaRecord> parse_meta(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kMetaBytes) return std::nullopt;
  if (util::crc32(bytes.first(kMetaBytes - 4)) !=
      Reader(bytes.subspan(kMetaBytes - 4)).u32())
    return std::nullopt;
  Reader r(bytes);
  if (r.u32() != kMetaMagic) return std::nullopt;
  MetaRecord rec;
  rec.key = r.key();
  rec.payload_len = r.u64();
  rec.payload_crc = r.u32();
  return rec;
}

obs::MetricsRegistry& registry_or_global(obs::MetricsRegistry* registry) {
  return registry ? *registry : obs::MetricsRegistry::global();
}

}  // namespace

std::string RecoveryReport::to_string() const {
  std::ostringstream out;
  out << "recovered " << recovered << " intact block(s), quarantined "
      << quarantined_files << " file(s) in " << seconds << " s\n";
  out << "  torn payloads:      " << torn_payloads << "\n";
  out << "  crc mismatches:     " << crc_mismatches << "\n";
  out << "  orphaned records:   " << orphaned_metas << "\n";
  out << "  orphaned payloads:  " << orphaned_payloads << "\n";
  out << "  duplicate files:    " << duplicates << "\n";
  out << "  stale temp files:   " << stale_temps << "\n";
  out << "  damaged keys:      ";
  if (damaged.empty()) out << " none";
  for (const BlockKey& k : damaged)
    out << " " << k.file << "/" << k.stripe << "/" << k.index;
  out << "\n";
  return out.str();
}

std::string PersistentBlockStore::stem_of(const BlockKey& key) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "b%" PRIu32 "_%" PRIu32 "_%" PRIu32, key.file,
                key.stripe, key.index);
  return buf;
}

std::optional<BlockKey> PersistentBlockStore::parse_stem(
    const std::string& stem) {
  BlockKey key;
  char trailing = 0;
  if (std::sscanf(stem.c_str(), "b%" SCNu32 "_%" SCNu32 "_%" SCNu32 "%c",
                  &key.file, &key.stripe, &key.index, &trailing) != 3)
    return std::nullopt;
  // Reject non-canonical spellings (leading zeros, signs, whitespace) so
  // stem_of() and parse_stem() stay exact inverses.
  if (stem_of(key) != stem) return std::nullopt;
  return key;
}

PersistentBlockStore::PersistentBlockStore(fs::path dir)
    : PersistentBlockStore(std::move(dir), Options{}) {}

PersistentBlockStore::PersistentBlockStore(fs::path dir, Options options)
    : dir_(std::move(dir)),
      sync_(options.fsync, registry_or_global(options.registry)
                               .counter("carousel_persist_fsyncs_total")) {
  fs::create_directories(dir_);
  auto& reg = registry_or_global(options.registry);
  commits_ = &reg.counter("carousel_persist_commits_total");
  bytes_written_ = &reg.counter("carousel_persist_bytes_written_total");
  recovered_total_ = &reg.counter("carousel_persist_recovered_blocks_total");
  quarantined_total_ = &reg.counter("carousel_persist_quarantined_files_total");
  recovery_seconds_ = &reg.histogram("carousel_persist_recovery_seconds");
}

void PersistentBlockStore::put(const BlockKey& key,
                               std::span<const std::uint8_t> bytes,
                               std::uint32_t crc) {
  const std::string stem = stem_of(key);
  const fs::path blk = dir_ / (stem + ".blk");
  const fs::path meta = dir_ / (stem + ".meta");
  const fs::path blk_tmp = dir_ / (stem + ".blk.tmp");
  const fs::path meta_tmp = dir_ / (stem + ".meta.tmp");

  // Payload first, commit record second: a crash between the two leaves an
  // orphaned payload (quarantined, not trusted), never a record that
  // promises bytes which were lost.
  sync_.write(blk_tmp, bytes);
  sync_.publish(blk_tmp, blk);
  sync_.write(meta_tmp, serialize_meta(key, bytes.size(), crc));
  sync_.publish(meta_tmp, meta);
  sync_.sync_dir(dir_);
  commits_->inc();
  bytes_written_->inc(bytes.size());
}

bool PersistentBlockStore::erase(const BlockKey& key) {
  const std::string stem = stem_of(key);
  // Commit record first: an erase interrupted between the two unlinks
  // leaves an orphaned payload, which recovery quarantines — never a
  // record claiming a block that is half-deleted.
  const bool had_meta = sync_.unlink(dir_ / (stem + ".meta"));
  const bool had_blk = sync_.unlink(dir_ / (stem + ".blk"));
  if (had_meta || had_blk) sync_.sync_dir(dir_);
  return had_meta || had_blk;
}

bool PersistentBlockStore::corrupt_at_rest(const BlockKey& key,
                                           std::size_t offset) {
  const fs::path blk = dir_ / (stem_of(key) + ".blk");
  int fd = ::open(blk.c_str(), O_RDWR | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) return false;
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size <= 0) {
    ::close(fd);
    return false;
  }
  const off_t pos =
      static_cast<off_t>(offset % static_cast<std::size_t>(size));
  std::uint8_t byte = 0;
  bool ok = ::pread(fd, &byte, 1, pos) == 1;
  byte ^= 0x01;
  ok = ok && ::pwrite(fd, &byte, 1, pos) == 1;
  ::close(fd);
  return ok;
}

void PersistentBlockStore::quarantine(const fs::path& path,
                                      RecoveryReport& report) {
  sync_.quarantine(path, quarantine_dir());
  ++report.quarantined_files;
  quarantined_total_->inc();
}

RecoveryReport PersistentBlockStore::recover(std::vector<RecoveredBlock>* out) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryReport report;

  // Classify directory entries.  std::set iteration gives a deterministic
  // (lexicographic) processing order, so duplicate claims on one key always
  // resolve the same way: the first intact pair wins.
  std::vector<fs::path> temps;
  std::set<std::string> meta_stems;
  std::set<std::string> blk_stems;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".tmp")
      temps.push_back(p);
    else if (p.extension() == ".meta")
      meta_stems.insert(p.stem().string());
    else if (p.extension() == ".blk")
      blk_stems.insert(p.stem().string());
    // Anything else in the directory is not ours; leave it alone.
  }

  // A temp file is an uncommitted write by construction (the rename that
  // would have published it never happened): always quarantine.  This
  // covers both crash-before-fsync and crash-before-rename, including the
  // zero-length temp an early crash leaves.
  for (const fs::path& t : temps) {
    quarantine(t, report);
    ++report.stale_temps;
  }

  std::set<BlockKey> loaded;
  auto mark_damaged = [&report](const std::optional<BlockKey>& key) {
    if (key) report.damaged.push_back(*key);
  };

  for (const std::string& stem : meta_stems) {
    const fs::path meta_p = dir_ / (stem + ".meta");
    const fs::path blk_p = dir_ / (stem + ".blk");
    const bool have_blk = blk_stems.erase(stem) > 0;

    auto meta_bytes = durable::read_file(meta_p);
    const std::optional<MetaRecord> rec =
        meta_bytes ? parse_meta(*meta_bytes) : std::nullopt;
    if (!rec) {
      // The commit record itself is torn or unreadable; without it the
      // payload cannot be trusted either.
      ++report.torn_payloads;
      mark_damaged(parse_stem(stem));
      quarantine(meta_p, report);
      if (have_blk) quarantine(blk_p, report);
      continue;
    }
    if (!have_blk) {
      // A record naming a payload that is gone — the "manifest points at a
      // deleted file" case.
      ++report.orphaned_metas;
      report.damaged.push_back(rec->key);
      quarantine(meta_p, report);
      continue;
    }
    auto payload = durable::read_file(blk_p);
    const bool intact = payload && payload->size() == rec->payload_len &&
                        util::crc32(*payload) == rec->payload_crc;
    if (!intact) {
      if (payload && payload->size() != rec->payload_len)
        ++report.torn_payloads;
      else
        ++report.crc_mismatches;
      report.damaged.push_back(rec->key);
      quarantine(blk_p, report);
      quarantine(meta_p, report);
      continue;
    }
    if (!loaded.insert(rec->key).second) {
      // A second intact pair claiming an already-loaded key (a stray copy):
      // the lexicographically first one won; move this one aside.
      ++report.duplicates;
      quarantine(blk_p, report);
      quarantine(meta_p, report);
      continue;
    }
    ++report.recovered;
    if (out) out->push_back({rec->key, std::move(*payload), rec->payload_crc});
  }

  // Payloads without a commit record: the write never committed (or an
  // erase was interrupted after the record was removed).  Untrusted.
  for (const std::string& stem : blk_stems) {
    ++report.orphaned_payloads;
    mark_damaged(parse_stem(stem));
    quarantine(dir_ / (stem + ".blk"), report);
  }

  if (report.quarantined_files > 0) sync_.sync_dir(dir_);

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  recovered_total_->inc(report.recovered);
  recovery_seconds_->observe(report.seconds);
  return report;
}

}  // namespace carousel::net
