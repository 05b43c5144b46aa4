#include "net/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace carousel::net {

namespace {

/// The one place the carousel_cluster_domain_ metric family prefix exists
/// (lint rule 9 in tools/check_invariants.py): every domain-rollup gauge is
/// named through this helper, so the family cannot fork on a typo.
std::string domain_metric(const char* what) {
  return std::string("carousel_cluster_domain_") + what;
}

}  // namespace

const char* server_state_name(ServerState state) {
  switch (state) {
    case ServerState::kAlive:
      return "alive";
    case ServerState::kSuspect:
      return "suspect";
    case ServerState::kDead:
      return "dead";
    case ServerState::kUnknown:
      return "unknown";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(CarouselStore& store, Options options)
    : store_(store),
      options_(options),
      loop_(options.interval, [this] { probe_once(); }) {
  if (options_.interval.count() <= 0)
    throw std::invalid_argument("HealthMonitor interval must be > 0");
  if (options_.suspect_after == 0)
    throw std::invalid_argument(
        "HealthMonitor suspect_after must be >= 1 (a zero threshold marks "
        "every server suspect before its first probe)");
  if (options_.dead_after < options_.suspect_after)
    throw std::invalid_argument(
        "HealthMonitor dead_after must be >= suspect_after");
  if (options_.revive_after == 0)
    throw std::invalid_argument(
        "HealthMonitor revive_after must be >= 1 (zero disables flap "
        "damping entirely)");
  auto& reg = store.metrics();
  probes_total_ = &reg.counter("carousel_cluster_probes_total");
  probe_failures_total_ =
      &reg.counter("carousel_cluster_probe_failures_total");
  to_alive_total_ = &reg.counter(
      obs::labeled("carousel_cluster_transitions_total", "to", "alive"));
  to_suspect_total_ = &reg.counter(
      obs::labeled("carousel_cluster_transitions_total", "to", "suspect"));
  to_dead_total_ = &reg.counter(
      obs::labeled("carousel_cluster_transitions_total", "to", "dead"));
  servers_gauge_ = &reg.gauge("carousel_cluster_servers");
  alive_gauge_ = &reg.gauge("carousel_cluster_servers_alive");
  suspect_gauge_ = &reg.gauge("carousel_cluster_servers_suspect");
  dead_gauge_ = &reg.gauge("carousel_cluster_servers_dead");
  domain_count_gauge_ = &reg.gauge(domain_metric("count"));
  domain_down_gauge_ = &reg.gauge(domain_metric("down"));
  domain_degraded_gauge_ = &reg.gauge(domain_metric("degraded"));
}

void HealthMonitor::probe_once() {
  // Serialize rounds: a background loop and a test calling probe_once()
  // directly must not share the (single-threaded) probe clients.
  util::MutexLock probe_lock(probe_serial_);

  // Pick up servers registered since the last round; collect the probe
  // clients outside mu_ so state_of()/statuses() never block behind a
  // timing-out probe of a dead server.
  std::vector<std::pair<std::size_t, Client*>> targets;
  {
    auto fleet = store_.servers();
    util::MutexLock lock(mu_);
    for (const auto& ep : fleet) {
      auto [it, fresh] = tracked_.try_emplace(ep.id);
      if (fresh) {
        it->second.status.id = ep.id;
        it->second.status.port = ep.port;
        it->second.status.spare = ep.spare;
        it->second.status.domain = ep.domain;
        it->second.probe = std::make_unique<Client>(
            ep.port, options_.probe_policy, &store_.metrics());
      }
      targets.emplace_back(ep.id, it->second.probe.get());
    }
  }

  for (auto [id, probe] : targets) {
    bool ok = false;
    Client::Stats held{};
    try {
      held = probe->stats();  // liveness + inventory in one round-trip
      ok = true;
    } catch (const Error&) {
      // Any failure class — refused, reset, timed out, protocol garbage —
      // reads the same to the detector: the server did not answer.
    }
    util::MutexLock lock(mu_);
    Tracked& t = tracked_[id];
    ++t.status.probes;
    probes_total_->inc();
    if (ok) {
      t.status.blocks = held.blocks;
      t.status.bytes = held.bytes;
      t.status.consecutive_failures = 0;
      ++t.status.consecutive_successes;
      if (t.status.state != ServerState::kAlive &&
          t.status.consecutive_successes >= options_.revive_after)
        transition_locked(t, ServerState::kAlive);
    } else {
      ++t.status.failures;
      probe_failures_total_->inc();
      t.status.consecutive_successes = 0;
      ++t.status.consecutive_failures;
      if (t.status.consecutive_failures >= options_.dead_after)
        transition_locked(t, ServerState::kDead);
      else if (t.status.consecutive_failures >= options_.suspect_after)
        transition_locked(t, ServerState::kSuspect);
    }
  }

  util::MutexLock lock(mu_);
  export_gauges_locked();
}

void HealthMonitor::transition_locked(Tracked& t, ServerState to) {
  if (t.status.state == to) return;
  t.status.state = to;
  ++t.status.transitions;
  switch (to) {
    case ServerState::kAlive:
      to_alive_total_->inc();
      break;
    case ServerState::kSuspect:
      to_suspect_total_->inc();
      break;
    case ServerState::kDead:
      to_dead_total_->inc();
      break;
    case ServerState::kUnknown:
      break;  // never a transition target: tracked servers have verdicts
  }
}

void HealthMonitor::export_gauges_locked() {
  std::size_t alive = 0;
  std::size_t suspect = 0;
  std::size_t dead = 0;
  for (const auto& [id, t] : tracked_) {
    switch (t.status.state) {
      case ServerState::kAlive:
        ++alive;
        break;
      case ServerState::kSuspect:
        ++suspect;
        break;
      case ServerState::kDead:
        ++dead;
        break;
      case ServerState::kUnknown:
        break;  // tracked servers always hold a verdict
    }
  }
  servers_gauge_->set(static_cast<double>(tracked_.size()));
  alive_gauge_->set(static_cast<double>(alive));
  suspect_gauge_->set(static_cast<double>(suspect));
  dead_gauge_->set(static_cast<double>(dead));
  // Roll the per-server FSM up to failure domains: a domain is down when
  // all its members are kDead, degraded when some (not all) have lost
  // their kAlive verdict.
  std::size_t down = 0;
  std::size_t degraded = 0;
  const auto domains = domain_statuses_locked();
  for (const auto& d : domains) {
    if (d.down())
      ++down;
    else if (d.alive < d.members)
      ++degraded;
  }
  domain_count_gauge_->set(static_cast<double>(domains.size()));
  domain_down_gauge_->set(static_cast<double>(down));
  domain_degraded_gauge_->set(static_cast<double>(degraded));
}

std::vector<HealthMonitor::DomainStatus>
HealthMonitor::domain_statuses_locked() const {
  std::map<std::size_t, DomainStatus> by_domain;
  for (const auto& [id, t] : tracked_) {
    DomainStatus& d = by_domain[t.status.domain];
    d.domain = t.status.domain;
    ++d.members;
    d.blocks += t.status.blocks;
    switch (t.status.state) {
      case ServerState::kAlive:
        ++d.alive;
        break;
      case ServerState::kSuspect:
        ++d.suspect;
        break;
      case ServerState::kDead:
        ++d.dead;
        break;
      case ServerState::kUnknown:
        break;  // tracked servers always hold a verdict
    }
  }
  std::vector<DomainStatus> out;
  out.reserve(by_domain.size());
  for (const auto& [domain, d] : by_domain) out.push_back(d);
  return out;
}

std::vector<HealthMonitor::DomainStatus> HealthMonitor::domain_statuses()
    const {
  util::MutexLock lock(mu_);
  return domain_statuses_locked();
}

std::size_t HealthMonitor::dead_in_domain(std::size_t server_id) const {
  util::MutexLock lock(mu_);
  auto it = tracked_.find(server_id);
  if (it == tracked_.end()) return 0;
  const std::size_t domain = it->second.status.domain;
  std::size_t dead = 0;
  for (const auto& [id, t] : tracked_)
    if (t.status.domain == domain && t.status.state == ServerState::kDead)
      ++dead;
  return dead;
}

ServerState HealthMonitor::state_of(std::size_t server_id) const {
  util::MutexLock lock(mu_);
  auto it = tracked_.find(server_id);
  // kUnknown, not an optimistic kAlive: "never probed" must stay
  // distinguishable from "probed and healthy".
  return it == tracked_.end() ? ServerState::kUnknown
                              : it->second.status.state;
}

std::vector<HealthMonitor::ServerStatus> HealthMonitor::statuses() const {
  util::MutexLock lock(mu_);
  std::vector<ServerStatus> out;
  out.reserve(tracked_.size());
  for (const auto& [id, t] : tracked_) out.push_back(t.status);
  return out;
}

}  // namespace carousel::net
