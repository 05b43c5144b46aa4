// Deterministic fault injection for the block server.
//
// A FaultPlan is a list of rules installed on a BlockServer; each incoming
// request is matched against the rules in order and the first one that fires
// decides the injected failure.  All randomness comes from one seeded
// generator inside the plan, so a plan replayed against the same request
// sequence (one client connection issuing ops in order) makes identical
// decisions — every failure mode in the tests is reproducible from a seed.
//
// Supported failure modes cover the ways a real datanode dies on its
// clients: the connection drops before the response (client sees EOF
// mid-request, cannot know whether the op executed), drops after it, the
// response stalls (client-side timeouts must fire), the payload is flipped
// on the wire (end-to-end checksums must catch it), or the server refuses
// the op outright (Status::kError).
//
// kCrash extends that to durable-state faults: a persistent server runs the
// request under its block store's crash injector (net/durable_file.h) with
// the rule's plan.  A cut skips the in-memory update and severs the
// connection unanswered, leaving the on-disk state a power cut there would;
// a failed step answers kError.  On an in-memory server it degrades to
// kDropBeforeResponse: the op executes, the client never hears.

#ifndef CAROUSEL_NET_FAULT_H
#define CAROUSEL_NET_FAULT_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "net/durable_file.h"
#include "net/protocol.h"
#include "util/sync.h"

namespace carousel::net {

enum class FaultAction : std::uint8_t {
  kDropBeforeResponse,  // execute the op, then sever the connection unanswered
  kDropAfterResponse,   // answer, then sever the connection
  kDelay,               // stall delay_ms before answering
  kCorruptPayload,      // flip one response-payload byte (at corrupt_offset)
  kRefuse,              // answer Status::kError without executing the op
  kCrash,               // run the op under the block store's crash injector
};

/// Number of defined fault actions (for per-action instrument tables).
inline constexpr std::size_t kFaultActionCount = 6;

struct FaultRule {
  FaultAction action = FaultAction::kRefuse;
  /// Restricts the rule to one opcode; matches every op when unset.
  std::optional<Op> op;
  /// Skips the first `skip` matching requests before the rule can fire.
  std::uint32_t skip = 0;
  /// Fires at most this many times, then the rule goes inert.
  std::uint32_t max_hits = 1;
  /// Chance a matching request triggers the rule, drawn from the plan's
  /// seeded generator (1.0 = always).
  double probability = 1.0;
  /// kDelay: how long the response stalls.
  std::uint32_t delay_ms = 0;
  /// kCorruptPayload: which payload byte to flip (mod payload size).
  std::uint32_t corrupt_offset = 0;
  /// kCrash: the plan the block store's injector runs the op under.
  durable::CrashPlan crash{};
};

/// Seeded, shareable fault schedule.  Thread-safe: concurrent server
/// connections consult one plan; determinism is guaranteed when the request
/// order is (single connection, ops in program order).
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0) : rng_(seed) {}

  FaultPlan& add(FaultRule rule) {
    states_.push_back({rule, 0, 0});
    return *this;
  }

  /// The decision for one incoming request, consuming rule budgets and
  /// random draws.  nullopt = serve normally.
  std::optional<FaultRule> decide(Op op) EXCLUDES(mu_);

  /// Total injections so far (all rules).
  std::uint64_t injected() const EXCLUDES(mu_);

 private:
  struct RuleState {
    FaultRule rule;
    std::uint32_t seen = 0;  // matching requests observed
    std::uint32_t hits = 0;  // times fired
  };
  mutable util::Mutex mu_{util::LockRank::kFaultPlan};
  std::mt19937_64 rng_ GUARDED_BY(mu_);
  std::vector<RuleState> states_ GUARDED_BY(mu_);
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_FAULT_H
