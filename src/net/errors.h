// Typed failure taxonomy of the networked prototype.
//
// Every failure a caller can see is classified by *what the right reaction
// is*, not by where it was thrown:
//
//   TransportError   the connection died (refused, reset, EOF mid-frame).
//                    Requests are idempotent, so reconnect-and-retry is safe.
//   TimeoutError     a send/recv exceeded its socket timeout — the slow-peer
//                    flavour of a transport failure, counted separately.
//   ProtocolError    the peer answered, but with a frame that violates the
//                    protocol (oversized length, short payload).  Retrying
//                    the same bytes at the same peer is pointless.
//   BadRequestError  the server answered Status::kBadRequest — it judged our
//                    frame malformed (opcode, length or payload shape).  A
//                    caller bug, never retried.
//   ServerError      the server executed the request and refused it
//                    (Status::kError) — a caller bug or server-side
//                    invariant, never retried.
//   CorruptBlockError  the server reports the stored block fails its
//                    checksum (Status::kCorrupt).  The block is bad at rest;
//                    callers should treat it like an erasure and repair.
//   DeadlineError    the per-op deadline expired across retries.
//
// All derive from std::runtime_error so pre-existing catch sites keep
// working; new code catches the specific types.

#ifndef CAROUSEL_NET_ERRORS_H
#define CAROUSEL_NET_ERRORS_H

#include <stdexcept>
#include <string>

namespace carousel::net {

struct Error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Connection-level failure: safe to reconnect and retry.
struct TransportError : Error {
  using Error::Error;
};

/// Socket send/recv timeout (SO_SNDTIMEO/SO_RCVTIMEO fired).
struct TimeoutError : TransportError {
  using TransportError::TransportError;
};

/// The peer broke the wire protocol; retrying cannot help.
struct ProtocolError : Error {
  using Error::Error;
};

/// Status::kBadRequest response: the server judged *our* frame malformed
/// (unknown opcode, over-cap length, payload shape).  A caller bug, never
/// retried — the same bytes would be rejected again.
struct BadRequestError : Error {
  using Error::Error;
};

/// Status::kError response: the server rejected the request.
struct ServerError : Error {
  using Error::Error;
};

/// Status::kCorrupt response: the block is bad at rest — repair, don't retry.
struct CorruptBlockError : Error {
  using Error::Error;
};

/// The operation's deadline elapsed before any attempt succeeded.
struct DeadlineError : Error {
  using Error::Error;
};

/// A whole store operation (read_file / repair_block) exhausted its total
/// time budget (StoreOptions::op_budget) while failing over across sick
/// servers.  Distinct from DeadlineError (one client op's deadline): this is
/// the coordinator refusing to multiply per-op timeouts across a long
/// failover chain.
struct StoreDeadlineError : Error {
  using Error::Error;
};

/// A rebuilt block could not be placed anywhere: its home server is down
/// and no registered spare (or other placement-eligible server) accepted
/// the re-upload.  The stripe is left exactly as it was — the block is
/// still an erasure, never a silent partial write.
struct RehomeError : Error {
  using Error::Error;
};

/// put_file() was asked to write a file id the manifest (or an in-flight
/// put) already claims.  Overwriting would strand the old stripes' blocks
/// on their servers forever — a caller bug, never retried.
struct DuplicateFileError : Error {
  using Error::Error;
};

/// The coordinator's metadata journal cannot be replayed into a usable
/// state: the snapshot is corrupt (quarantined, never deleted), the journal
/// belongs to a different store configuration, or a replayed record names
/// state that cannot exist (a placement outside the fleet, a per-domain
/// count past n-k).  Deliberately loud — opening a store over damaged
/// metadata must never silently yield an empty manifest.
struct MetaReplayError : Error {
  using Error::Error;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_ERRORS_H
