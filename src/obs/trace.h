// Lightweight tracing companions to the metrics registry.
//
// ScopedTimer is the one-liner used at every instrumented call site: start
// on construction, observe the elapsed seconds into a Histogram on scope
// exit (or explicitly via stop(), which also returns the reading so callers
// can reuse it, e.g. for counters).

#ifndef CAROUSEL_OBS_TRACE_H
#define CAROUSEL_OBS_TRACE_H

#include <chrono>

#include "obs/metrics.h"

namespace carousel::obs {

/// RAII span: observes wall-clock seconds into a histogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : h_(&h), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (h_) h_->observe(elapsed_s());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Observes now instead of at scope exit; returns the elapsed seconds.
  double stop() {
    double s = elapsed_s();
    if (h_) h_->observe(s);
    h_ = nullptr;
    return s;
  }

  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace carousel::obs

#endif  // CAROUSEL_OBS_TRACE_H
