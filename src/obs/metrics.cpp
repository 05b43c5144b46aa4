#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace carousel::obs {

namespace {

// 1 us .. 10 s, 1-2-5 ladder — covers loopback RPCs through multi-second
// repair sweeps with 13 buckets.
constexpr double kLatencyBounds[] = {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4,
                                     2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2,
                                     5e-2, 1e-1, 2e-1, 5e-1, 1.0,  2.0,  5.0,
                                     10.0};

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Splits "base{labels}" into base and the inner label list (may be empty).
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view name) {
  auto brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}')
    return {name, {}};
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

bool is_word(std::string_view s) {
  if (s.empty() || s.front() == '_' || s.back() == '_') return false;
  bool prev_underscore = false;
  for (char c : s) {
    if (c == '_') {
      if (prev_underscore) return false;
      prev_underscore = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      prev_underscore = false;
    } else {
      return false;
    }
  }
  return true;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// Runtime twin of the static lint in tools/check_invariants.py: names in the
// carousel_ namespace must follow the documented grammar
// carousel_<subsystem>_<what>[_unit]{label="value",...} — counters end in
// _total, histograms in _seconds, label keys are lowercase words.  The static
// lint catches literals at review time; this catches dynamically composed
// names (labeled(), benches) the moment they register.  Checked once, on
// instrument creation, so the hot path never pays for it.  Names outside the
// carousel_ namespace (tests, scratch registries) are exempt.
void validate_name(std::string_view kind_suffix, std::string_view name) {
  auto [base, labels] = split_labels(name);
  if (!base.starts_with("carousel_")) return;
  auto fail = [&](const char* why) {
    throw std::invalid_argument("metric name '" + std::string(name) + "': " +
                                why + " (grammar: carousel_<subsystem>_<what>"
                                "[_unit], see DESIGN.md)");
  };
  if (!is_word(base) || base.find('_', sizeof("carousel_") - 1) ==
                            std::string_view::npos)
    fail("base must be carousel_<subsystem>_<what> in lowercase words");
  if (!kind_suffix.empty() && !ends_with(base, kind_suffix))
    fail(kind_suffix == "_total" ? "counter names must end in _total"
                                 : "histogram names must end in _seconds");
  while (!labels.empty()) {
    auto eq = labels.find('=');
    if (eq == std::string_view::npos || eq == 0 || !is_word(labels.substr(0, eq)))
      fail("label keys must be lowercase words followed by =\"value\"");
    auto open = eq + 1;
    if (open >= labels.size() || labels[open] != '"')
      fail("label values must be double-quoted");
    auto close = labels.find('"', open + 1);
    if (close == std::string_view::npos)
      fail("label values must be double-quoted");
    labels.remove_prefix(close + 1);
    if (!labels.empty()) {
      if (labels.front() != ',' || labels.size() == 1)
        fail("labels must be comma-separated key=\"value\" pairs");
      labels.remove_prefix(1);
    }
  }
}

}  // namespace

std::string labeled(std::string_view base, std::string_view label,
                    std::string_view value) {
  auto [name, existing] = split_labels(base);
  std::string out(name);
  out += '{';
  if (!existing.empty()) {
    out += existing;
    out += ',';
  }
  out += label;
  out += "=\"";
  out += value;
  out += "\"}";
  return out;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("histogram bounds must be ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  // First bucket whose upper bound admits v (le semantics); +inf otherwise.
  std::size_t i =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                                v) -
                               bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::span<const double> Histogram::latency_buckets_seconds() {
  return kLatencyBounds;
}

std::optional<double> quantile_upper_bound(
    std::span<const double> bounds, std::span<const std::uint64_t> buckets,
    double q) {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return std::nullopt;
  const std::uint64_t rank = std::min<std::uint64_t>(
      total, std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(
                                            q * static_cast<double>(total)))));
  const double overflow = bounds.empty() ? 0.0 : bounds.back() * 10.0;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) return i < bounds.size() ? bounds[i] : overflow;
  }
  return overflow;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    validate_name("_total", name);
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    validate_name({}, name);
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    validate_name("_seconds", name);
    if (bounds.empty()) bounds = Histogram::latency_buckets_seconds();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(
                          std::vector<double>(bounds.begin(), bounds.end())))
             .first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::snapshot() const {
  util::MutexLock lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.buckets.reserve(hs.bounds.size() + 1);
    for (std::size_t i = 0; i <= hs.bounds.size(); ++i)
      hs.buckets.push_back(h->bucket(i));
    hs.count = h->count();
    hs.sum = h->sum();
    s.histograms[name] = std::move(hs);
  }
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string Snapshot::render_prometheus() const {
  std::string out;
  for (const auto& [name, v] : counters)
    out += name + " " + std::to_string(v) + "\n";
  for (const auto& [name, v] : gauges)
    out += name + " " + format_double(v) + "\n";
  for (const auto& [name, h] : histograms) {
    auto [base, labels] = split_labels(name);
    auto series = [&](std::string_view suffix, std::string_view extra_labels) {
      std::string s(base);
      s += suffix;
      if (!labels.empty() || !extra_labels.empty()) {
        s += '{';
        s += labels;
        if (!labels.empty() && !extra_labels.empty()) s += ',';
        s += extra_labels;
        s += '}';
      }
      return s;
    };
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      out += series("_bucket", "le=\"" + format_double(h.bounds[i]) + "\"") +
             " " + std::to_string(cumulative) + "\n";
    }
    out += series("_bucket", "le=\"+Inf\"") + " " + std::to_string(h.count) +
           "\n";
    out += series("_sum", {}) + " " + format_double(h.sum) + "\n";
    out += series("_count", {}) + " " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string Snapshot::render_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + format_double(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ',';
      out += format_double(h.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.buckets[i]);
    }
    out += "],\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + format_double(h.sum) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace carousel::obs
