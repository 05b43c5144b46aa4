#include "net/meta_log.h"

#include <bit>
#include <chrono>
#include <sstream>
#include <utility>

#include "net/errors.h"
#include "net/protocol.h"
#include "util/crc32.h"

namespace carousel::net {

namespace fs = std::filesystem;

namespace {

// Journal record framing (little-endian, written with the wire Writer):
//   u32 magic "CMJ1", u8 kind, u64 lsn, u32 payload length, payload,
//   u32 CRC-32 of everything preceding.
// A record is trusted only when its CRC verifies; the first byte position
// that fails any structural check marks the torn tail.
constexpr std::uint32_t kJournalMagic = 0x314A4D43;  // "CMJ1"
constexpr std::size_t kRecordHeaderBytes = 4 + 1 + 8 + 4;
constexpr std::size_t kRecordTrailerBytes = 4;
// A put intent for a huge file is still only its placement table; anything
// past this is garbage bytes, not a record.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

// Snapshot layout: u32 magic "CMS1", u32 config fingerprint, u64 lsn,
// serialized State, u32 CRC-32 of everything preceding.
constexpr std::uint32_t kSnapshotMagic = 0x31534D43;  // "CMS1"

// Record kinds.  Values are on-disk format — append only, never renumber.
enum : std::uint8_t {
  kRecConfig = 0,      // u32 config fingerprint (first record of a journal)
  kRecAddServer = 1,   // u16 port, u64 domain, u8 labeled
  kRecPutIntent = 2,   // u32 file, u64 bytes, u32 stripes, u32 width, rows
  kRecPutCommit = 3,   // u32 file
  kRecPutAbort = 4,    // u32 file
  kRecRehomeIntent = 5,  // u32 file, u32 stripe, u32 index, u32 target
  kRecRehomeCommit = 6,  // u32 file, u32 stripe, u32 index, u32 server
  kRecRehomeAbort = 7,   // u32 file, u32 stripe, u32 index
  kRecHedge = 8,  // u8 enabled, u64 pct bits, u64 floor, u64 initial, u64 min
  kRecKindCount = 9,
};

const char* kind_name(std::uint8_t kind) {
  switch (kind) {
    case kRecConfig: return "config";
    case kRecAddServer: return "add_server";
    case kRecPutIntent: return "put_intent";
    case kRecPutCommit: return "put_commit";
    case kRecPutAbort: return "put_abort";
    case kRecRehomeIntent: return "rehome_intent";
    case kRecRehomeCommit: return "rehome_commit";
    case kRecRehomeAbort: return "rehome_abort";
    case kRecHedge: return "hedge";
    default: return "unknown";
  }
}

std::vector<std::uint8_t> serialize_record(std::uint8_t kind,
                                           std::uint64_t lsn,
                                           std::span<const std::uint8_t> pay) {
  Writer w;
  w.u32(kJournalMagic);
  w.u8(kind);
  w.u64(lsn);
  w.u32(static_cast<std::uint32_t>(pay.size()));
  w.bytes(pay);
  w.u32(util::crc32(w.data()));
  return w.data();
}

struct ParsedRecord {
  std::uint8_t kind = 0;
  std::uint64_t lsn = 0;
  std::vector<std::uint8_t> payload;
  std::size_t total_bytes = 0;  // framing + payload + trailer
};

/// Parses one record at the front of `bytes`.  nullopt means the bytes do
/// not frame an intact record — on the append path that cannot happen, on
/// replay it marks the torn tail.
std::optional<ParsedRecord> parse_record(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kRecordHeaderBytes + kRecordTrailerBytes)
    return std::nullopt;
  Reader r(bytes);
  if (r.u32() != kJournalMagic) return std::nullopt;
  ParsedRecord rec;
  rec.kind = r.u8();
  if (rec.kind >= kRecKindCount) return std::nullopt;
  rec.lsn = r.u64();
  const std::uint32_t len = r.u32();
  if (len > kMaxRecordBytes) return std::nullopt;
  rec.total_bytes = kRecordHeaderBytes + len + kRecordTrailerBytes;
  if (bytes.size() < rec.total_bytes) return std::nullopt;
  const std::uint32_t want =
      util::crc32(bytes.first(kRecordHeaderBytes + len));
  if (Reader(bytes.subspan(kRecordHeaderBytes + len, 4)).u32() != want)
    return std::nullopt;
  auto body = r.bytes(len);
  rec.payload.assign(body.begin(), body.end());
  return rec;
}

/// Walks the intact records at the front of a journal image in order and
/// returns where the intact prefix ends (the torn tail, if any, starts
/// there; bytes.size() when the journal is whole).
template <typename OnRecord>
std::size_t scan_journal(std::span<const std::uint8_t> bytes,
                         OnRecord&& on_record) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const auto rec = parse_record(bytes.subspan(pos));
    if (!rec) break;
    on_record(*rec);
    pos += rec->total_bytes;
  }
  return pos;
}

// One encode and one decode per journaled struct.  The append API, replay,
// the snapshot writer and the snapshot parser all go through these, so each
// struct's on-disk layout is spelled once.

// u32 file, u64 bytes, u32 stripes, u32 width, stripes*width u32 servers.
void encode(Writer& w, std::uint32_t file, const MetaLog::FileRecord& rec) {
  w.u32(file);
  w.u64(rec.file_bytes);
  w.u32(rec.stripes);
  const std::uint32_t width =
      rec.placement.empty() ? 0
                            : static_cast<std::uint32_t>(rec.placement[0].size());
  w.u32(width);
  for (const auto& row : rec.placement)
    for (std::uint32_t server : row) w.u32(server);
}

std::pair<std::uint32_t, MetaLog::FileRecord> decode_file(Reader& r) {
  const std::uint32_t file = r.u32();
  MetaLog::FileRecord rec;
  rec.file_bytes = r.u64();
  rec.stripes = r.u32();
  const std::uint32_t width = r.u32();
  rec.placement.assign(rec.stripes, {});
  for (std::uint32_t s = 0; s < rec.stripes; ++s) {
    rec.placement[s].reserve(width);
    for (std::uint32_t i = 0; i < width; ++i)
      rec.placement[s].push_back(r.u32());
  }
  return {file, rec};
}

// u32 file, u32 stripe, u32 index, u32 target.
void encode(Writer& w, const MetaLog::RehomeIntent& ri) {
  w.key(BlockKey{ri.file, ri.stripe, ri.index});
  w.u32(ri.target);
}

MetaLog::RehomeIntent decode_rehome(Reader& r) {
  const BlockKey key = r.key();
  return {key.file, key.stripe, key.index, r.u32()};
}

// u16 port, u64 domain, u8 labeled.
void encode(Writer& w, const MetaLog::SpareServer& sp) {
  w.u16(sp.port);
  w.u64(sp.domain);
  w.u8(sp.labeled ? 1 : 0);
}

MetaLog::SpareServer decode_spare(Reader& r) {
  MetaLog::SpareServer sp;
  sp.port = r.u16();
  sp.domain = r.u64();
  sp.labeled = r.u8() != 0;
  return sp;
}

// u8 enabled, u64 percentile bits, u64 floor, u64 initial, u64 min samples.
void encode(Writer& w, const HedgePolicy& h) {
  w.u8(h.enabled ? 1 : 0);
  w.u64(std::bit_cast<std::uint64_t>(h.percentile));
  w.u64(static_cast<std::uint64_t>(h.floor.count()));
  w.u64(static_cast<std::uint64_t>(h.initial.count()));
  w.u64(h.min_samples);
}

HedgePolicy decode_hedge(Reader& r) {
  HedgePolicy h;
  h.enabled = r.u8() != 0;
  h.percentile = std::bit_cast<double>(r.u64());
  h.floor = std::chrono::milliseconds(static_cast<std::int64_t>(r.u64()));
  h.initial = std::chrono::milliseconds(static_cast<std::int64_t>(r.u64()));
  h.min_samples = r.u64();
  return h;
}

std::vector<std::uint8_t> serialize_state(const MetaLog::State& state,
                                          std::uint32_t config_crc,
                                          std::uint64_t lsn) {
  Writer w;
  w.u32(kSnapshotMagic);
  w.u32(config_crc);
  w.u64(lsn);
  w.u32(static_cast<std::uint32_t>(state.manifest.size()));
  for (const auto& [file, rec] : state.manifest) encode(w, file, rec);
  w.u32(static_cast<std::uint32_t>(state.pending_puts.size()));
  for (const auto& [file, rec] : state.pending_puts) encode(w, file, rec);
  w.u32(static_cast<std::uint32_t>(state.pending_rehomes.size()));
  for (const auto& ri : state.pending_rehomes) encode(w, ri);
  w.u32(static_cast<std::uint32_t>(state.spares.size()));
  for (const auto& sp : state.spares) encode(w, sp);
  w.u8(state.hedge ? 1 : 0);
  if (state.hedge) encode(w, *state.hedge);
  w.u32(util::crc32(w.data()));
  return w.data();
}

struct ParsedSnapshot {
  std::uint32_t config_crc = 0;
  std::uint64_t lsn = 0;
  MetaLog::State state;
};

std::optional<ParsedSnapshot> parse_snapshot(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4 + 4 + 8 + 4) return std::nullopt;
  if (util::crc32(bytes.first(bytes.size() - 4)) !=
      Reader(bytes.subspan(bytes.size() - 4)).u32())
    return std::nullopt;
  try {
    Reader r(bytes.first(bytes.size() - 4));
    if (r.u32() != kSnapshotMagic) return std::nullopt;
    ParsedSnapshot snap;
    snap.config_crc = r.u32();
    snap.lsn = r.u64();
    for (std::uint32_t n = r.u32(); n > 0; --n)
      snap.state.manifest.insert(decode_file(r));
    for (std::uint32_t n = r.u32(); n > 0; --n)
      snap.state.pending_puts.insert(decode_file(r));
    for (std::uint32_t n = r.u32(); n > 0; --n)
      snap.state.pending_rehomes.push_back(decode_rehome(r));
    for (std::uint32_t n = r.u32(); n > 0; --n)
      snap.state.spares.push_back(decode_spare(r));
    if (r.u8() != 0) snap.state.hedge = decode_hedge(r);
    if (r.remaining() != 0) return std::nullopt;
    return snap;
  } catch (const MalformedPayload&) {
    return std::nullopt;
  }
}

/// Drops the pending rehome of one block, if any.
void drop_rehome(MetaLog::State& state, const BlockKey& key) {
  std::erase_if(state.pending_rehomes, [&key](const MetaLog::RehomeIntent& p) {
    return BlockKey{p.file, p.stripe, p.index} == key;
  });
}

}  // namespace

std::string MetaLog::ReplayReport::to_string() const {
  std::ostringstream out;
  out << "replayed " << journal_records << " journal record(s)";
  if (snapshot_loaded) out << " over snapshot at lsn " << snapshot_lsn;
  out << " in " << seconds << " s\n";
  if (skipped_records > 0)
    out << "  skipped (pre-snapshot): " << skipped_records << "\n";
  if (torn_tail)
    out << "  torn tail: " << torn_bytes
        << " byte(s) quarantined, journal truncated\n";
  return out.str();
}

std::string MetaLog::metric_name(const char* suffix) const {
  // The one place the carousel_meta_ prefix is spelled (check_invariants.py
  // rule 10): every instrument name in this subsystem is built here.
  return std::string("carousel_meta_") + suffix;
}

obs::Counter& MetaLog::metric(const char* suffix) {
  return registry_->counter(metric_name(suffix));
}

MetaLog::MetaLog(fs::path dir, std::uint32_t config_crc, Options options)
    : dir_(std::move(dir)),
      options_(options),
      config_crc_(config_crc),
      registry_(options.registry ? options.registry
                                 : &obs::MetricsRegistry::global()),
      sync_(options.fsync, metric("fsyncs_total")) {
  fs::create_directories(dir_);
  appends_ = &metric("appends_total");
  snapshots_ = &metric("snapshots_total");
  snapshot_failures_ = &metric("snapshot_failures_total");
  replay_records_ = &metric("replay_records_total");
  torn_tails_ = &metric("torn_tails_total");
  replay_seconds_ = &registry_->histogram(metric_name("replay_seconds"));

  replay(config_crc);
  if (lsn_ == 0) {
    // Fresh directory: the journal's first record pins the configuration
    // this metadata belongs to.  Its append created the journal, and only a
    // directory fsync makes a creation durable: without it a power cut
    // before the first compaction could lose the journal and every record
    // acknowledged in it.
    Writer w;
    w.u32(config_crc_);
    append_record(kRecConfig, w.data());
    sync_.sync_dir(dir_);
  }
}

void MetaLog::load_snapshot(std::uint32_t config_crc) {
  // A snapshot.tmp is a compaction cut short before its rename: never
  // published, so moved aside like the block store's stale temps.
  const fs::path tmp_p = dir_ / "snapshot.tmp";
  if (fs::exists(tmp_p)) sync_.quarantine(tmp_p, quarantine_dir());
  const fs::path snap_p = dir_ / "snapshot";
  if (!fs::exists(snap_p)) return;
  auto bytes = durable::read_file(snap_p);
  const std::optional<ParsedSnapshot> snap =
      bytes ? parse_snapshot(*bytes) : std::nullopt;
  if (!snap) {
    sync_.quarantine(snap_p, quarantine_dir());
    throw MetaReplayError(
        "meta snapshot is corrupt (quarantined): " + snap_p.string() +
        " — the journal tail alone cannot rebuild the manifest");
  }
  if (snap->config_crc != config_crc)
    throw MetaReplayError(
        "meta snapshot belongs to a different store configuration "
        "(fingerprint mismatch): " +
        snap_p.string());
  state_ = snap->state;
  lsn_ = snap->lsn;
  replay_.snapshot_loaded = true;
  replay_.snapshot_lsn = snap->lsn;
}

void MetaLog::replay(std::uint32_t config_crc) {
  const auto t0 = std::chrono::steady_clock::now();
  load_snapshot(config_crc);

  const fs::path journal_p = dir_ / "journal";
  auto bytes = durable::read_file(journal_p);
  if (bytes) {
    const std::size_t intact =
        scan_journal(*bytes, [this](const ParsedRecord& rec) {
          if (rec.lsn <= lsn_) {
            // Already folded into the snapshot (a crash between snapshot
            // rename and journal reset leaves such records behind —
            // harmless).
            ++replay_.skipped_records;
            return;
          }
          apply_record(rec.kind, rec.payload);
          lsn_ = rec.lsn;
          ++replay_.journal_records;
          replay_records_->inc();
        });
    if (intact < bytes->size()) {
      // Torn tail: everything from here on is untrusted.  The fragment is
      // durable in quarantine before the journal is truncated at the last
      // intact boundary, so a crash in between never loses the evidence.
      replay_.torn_tail = true;
      replay_.torn_bytes = bytes->size() - intact;
      sync_.quarantine_bytes(quarantine_dir(), "journal.tail",
                             std::span(*bytes).subspan(intact));
      sync_.truncate(journal_p, intact);
      torn_tails_->inc();
    }
  }
  replay_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  replay_seconds_->observe(replay_.seconds);
}

void MetaLog::apply_record(std::uint8_t kind,
                           const std::vector<std::uint8_t>& payload) {
  try {
    Reader r(payload);
    switch (kind) {
      case kRecConfig: {
        if (r.u32() != config_crc_)
          throw MetaReplayError(
              "meta journal belongs to a different store configuration "
              "(fingerprint mismatch): " +
              (dir_ / "journal").string());
        return;
      }
      case kRecAddServer:
        state_.spares.push_back(decode_spare(r));
        return;
      case kRecPutIntent: {
        auto [file, rec] = decode_file(r);
        state_.pending_puts[file] = std::move(rec);
        return;
      }
      case kRecPutCommit: {
        const std::uint32_t file = r.u32();
        auto it = state_.pending_puts.find(file);
        if (it == state_.pending_puts.end())
          throw MetaReplayError("put_commit without a pending intent: file " +
                                std::to_string(file));
        state_.manifest[file] = std::move(it->second);
        state_.pending_puts.erase(it);
        return;
      }
      case kRecPutAbort: {
        state_.pending_puts.erase(r.u32());
        return;
      }
      case kRecRehomeIntent: {
        const RehomeIntent ri = decode_rehome(r);
        drop_rehome(state_, BlockKey{ri.file, ri.stripe, ri.index});
        state_.pending_rehomes.push_back(ri);
        return;
      }
      case kRecRehomeCommit: {
        // Laid out as a RehomeIntent whose target is the new home.
        const RehomeIntent rc = decode_rehome(r);
        auto it = state_.manifest.find(rc.file);
        if (it == state_.manifest.end() ||
            rc.stripe >= it->second.placement.size() ||
            rc.index >= it->second.placement[rc.stripe].size())
          throw MetaReplayError(
              "rehome_commit names a block outside the manifest: file " +
              std::to_string(rc.file) + " stripe " +
              std::to_string(rc.stripe) + " index " +
              std::to_string(rc.index));
        it->second.placement[rc.stripe][rc.index] = rc.target;
        drop_rehome(state_, BlockKey{rc.file, rc.stripe, rc.index});
        return;
      }
      case kRecRehomeAbort:
        drop_rehome(state_, r.key());
        return;
      case kRecHedge:
        state_.hedge = decode_hedge(r);
        return;
      default:
        throw MetaReplayError("unknown journal record kind " +
                              std::to_string(kind));
    }
  } catch (const MalformedPayload&) {
    // The CRC verified but the payload does not parse: a writer bug, not
    // wire noise.  Loud, like every other replay defect.
    throw MetaReplayError(std::string("journal record payload of kind ") +
                          kind_name(kind) + " does not parse");
  }
}

void MetaLog::append_record(std::uint8_t kind,
                            const std::vector<std::uint8_t>& payload) {
  // The LSN is spent even when the append fails: its bytes may still reach
  // the journal, and replay skips a record whose LSN it has already seen.
  const std::uint64_t rec_lsn = ++lsn_;
  const std::vector<std::uint8_t> bytes =
      serialize_record(kind, rec_lsn, payload);
  const fs::path journal_p = dir_ / "journal";
  sync_.append(journal_p, bytes);
  sync_.sync_file(journal_p);
  apply_record(kind, payload);
  appends_->inc();

  // The journal reset inside write_snapshot() appends its own config
  // record; `compacting_` keeps that append from re-entering compaction.
  if (!compacting_ && options_.snapshot_every > 0 &&
      ++since_snapshot_ >= options_.snapshot_every)
    write_snapshot();
}

void MetaLog::write_snapshot() {
  compacting_ = true;
  since_snapshot_ = 0;
  const fs::path snap_p = dir_ / "snapshot";
  const fs::path tmp_p = dir_ / "snapshot.tmp";
  try {
    sync_.write(tmp_p, serialize_state(state_, config_crc_, lsn_));
    sync_.publish(tmp_p, snap_p);
    sync_.sync_dir(dir_);
    snapshots_->inc();
    // Reset the journal: the durable snapshot holds everything up to lsn_,
    // and replay skips the records it covers if the truncate is lost.
    sync_.truncate(dir_ / "journal", 0);
    Writer w;
    w.u32(config_crc_);
    append_record(kRecConfig, w.data());
  } catch (const durable::Crash&) {
    throw;
  } catch (const std::exception&) {
    // The triggering record is durable and applied, so its append succeeds.
    // A failure left the journal whole or the snapshot durable; the next
    // compaction retries.
    snapshot_failures_->inc();
  }
  compacting_ = false;
}

// --- Append API ------------------------------------------------------------

void MetaLog::put_intent(
    std::uint32_t file, std::uint64_t file_bytes, std::uint32_t stripes,
    const std::vector<std::vector<std::uint32_t>>& placement) {
  if (state_.manifest.contains(file) || state_.pending_puts.contains(file))
    throw DuplicateFileError("file id " + std::to_string(file) +
                             " already exists in the manifest");
  FileRecord rec;
  rec.file_bytes = file_bytes;
  rec.stripes = stripes;
  rec.placement = placement;
  Writer w;
  encode(w, file, rec);
  append_record(kRecPutIntent, w.data());
}

void MetaLog::put_commit(std::uint32_t file) {
  Writer w;
  w.u32(file);
  append_record(kRecPutCommit, w.data());
}

void MetaLog::put_abort(std::uint32_t file) {
  Writer w;
  w.u32(file);
  append_record(kRecPutAbort, w.data());
}

void MetaLog::rehome_intent(std::uint32_t file, std::uint32_t stripe,
                            std::uint32_t index, std::uint32_t target) {
  Writer w;
  encode(w, RehomeIntent{file, stripe, index, target});
  append_record(kRecRehomeIntent, w.data());
}

void MetaLog::rehome_commit(std::uint32_t file, std::uint32_t stripe,
                            std::uint32_t index, std::uint32_t server) {
  Writer w;
  encode(w, RehomeIntent{file, stripe, index, server});
  append_record(kRecRehomeCommit, w.data());
}

void MetaLog::rehome_abort(std::uint32_t file, std::uint32_t stripe,
                           std::uint32_t index) {
  Writer w;
  w.key(BlockKey{file, stripe, index});
  append_record(kRecRehomeAbort, w.data());
}

void MetaLog::add_server(std::uint16_t port, std::uint64_t domain,
                         bool labeled) {
  Writer w;
  encode(w, SpareServer{port, domain, labeled});
  append_record(kRecAddServer, w.data());
}

void MetaLog::set_hedge(const HedgePolicy& hedge) {
  Writer w;
  encode(w, hedge);
  append_record(kRecHedge, w.data());
}

// --- Read-only inspection --------------------------------------------------

std::string MetaLog::inspect(const fs::path& dir) {
  std::ostringstream out;
  out << "meta dir: " << dir.string() << "\n";

  const fs::path snap_p = dir / "snapshot";
  if (fs::exists(snap_p)) {
    auto bytes = durable::read_file(snap_p);
    const std::optional<ParsedSnapshot> snap =
        bytes ? parse_snapshot(*bytes) : std::nullopt;
    if (snap) {
      out << "snapshot: ok, lsn " << snap->lsn << ", config "
          << snap->config_crc << ", " << snap->state.manifest.size()
          << " file(s), " << snap->state.pending_puts.size()
          << " pending put(s), " << snap->state.pending_rehomes.size()
          << " pending rehome(s), " << snap->state.spares.size()
          << " spare(s)\n";
    } else {
      out << "snapshot: CORRUPT (" << (bytes ? bytes->size() : 0)
          << " bytes)\n";
    }
  } else {
    out << "snapshot: none\n";
  }

  const fs::path journal_p = dir / "journal";
  auto bytes = durable::read_file(journal_p);
  if (!bytes) {
    out << "journal: none\n";
    return out.str();
  }
  std::uint64_t counts[kRecKindCount] = {};
  std::uint64_t first_lsn = 0;
  std::uint64_t last_lsn = 0;
  std::uint64_t records = 0;
  const std::size_t intact = scan_journal(*bytes, [&](const ParsedRecord& rec) {
    ++counts[rec.kind];
    if (records == 0) first_lsn = rec.lsn;
    last_lsn = rec.lsn;
    ++records;
  });
  out << "journal: " << records << " record(s), " << bytes->size()
      << " byte(s)";
  if (records > 0) out << ", lsn " << first_lsn << ".." << last_lsn;
  out << "\n";
  for (std::uint8_t k = 0; k < kRecKindCount; ++k)
    if (counts[k] > 0)
      out << "  " << kind_name(k) << ": " << counts[k] << "\n";
  if (intact < bytes->size())
    out << "  TORN TAIL at byte " << intact << " ("
        << bytes->size() - intact
        << " byte(s) would be quarantined on the next open)\n";

  const fs::path q = dir / "quarantine";
  if (fs::exists(q)) {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(q))
      if (entry.is_regular_file()) ++n;
    out << "quarantine: " << n << " file(s)\n";
  }
  return out.str();
}

}  // namespace carousel::net
