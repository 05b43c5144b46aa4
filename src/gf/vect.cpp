#include "gf/vect.h"

#include <atomic>
#include <cstring>
#include <memory>

#include "gf/backend.h"
#include "gf/vect_simd_internal.h"
#include "obs/metrics.h"

namespace carousel::gf {

namespace {

std::atomic<Backend>& backend_slot() {
  static std::atomic<Backend> slot{best_backend()};
  return slot;
}

// Dispatch counters, one per (backend, kernel) pair.  Resolved once into a
// static table so the per-call cost is a single relaxed atomic add — these
// sit under every encode/decode/repair region pass in the stack.
enum Kernel { kMul = 0, kMulAdd = 1, kXor = 2, kKernelCount = 3 };

struct DispatchCounters {
  obs::Counter* calls[3][kKernelCount];
  DispatchCounters() {
    auto& reg = obs::MetricsRegistry::global();
    const char* backends[] = {"scalar", "avx2", "gfni"};
    const char* kernels[] = {"mul", "mul_add", "xor"};
    for (int b = 0; b < 3; ++b)
      for (int k = 0; k < kKernelCount; ++k)
        calls[b][k] = &reg.counter(obs::labeled(
            obs::labeled("carousel_gf_kernel_calls_total", "backend",
                         backends[b]),
            "kernel", kernels[k]));
  }
};

inline void count_dispatch(Backend b, Kernel k) {
  static DispatchCounters counters;
  counters.calls[static_cast<int>(b)][k]->inc();
}

}  // namespace

Backend best_backend() {
  if (internal::cpu_has_gfni()) return Backend::kGfni;
  if (internal::cpu_has_avx2()) return Backend::kAvx2;
  return Backend::kScalar;
}

Backend active_backend() { return backend_slot().load(std::memory_order_relaxed); }

bool set_backend(Backend b) {
  switch (b) {
    case Backend::kScalar:
      break;
    case Backend::kAvx2:
      if (!internal::cpu_has_avx2()) return false;
      break;
    case Backend::kGfni:
      if (!internal::cpu_has_gfni()) return false;
      break;
  }
  backend_slot().store(b, std::memory_order_relaxed);
  return true;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kGfni:
      return "gfni";
  }
  return "?";
}

namespace {

// Full 256x256 multiplication table, built once on first use.  64 KiB fits
// comfortably in L2 and the row in current use stays in L1, giving a
// one-load-per-byte inner loop.
struct FullTable {
  std::unique_ptr<Byte[]> rows = std::make_unique<Byte[]>(256 * 256);

  FullTable() {
    for (unsigned c = 0; c < 256; ++c)
      for (unsigned b = 0; b < 256; ++b)
        rows[c * 256 + b] = mul(static_cast<Byte>(c), static_cast<Byte>(b));
  }
};

const FullTable& full_table() {
  static const FullTable table;
  return table;
}

}  // namespace

const Byte* mul_row(Byte c) { return &full_table().rows[c * 256u]; }

void mul_region(Byte c, const Byte* src, Byte* dst, std::size_t n) {
  if (c == 0) {
    zero_region(dst, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memcpy(dst, src, n);
    return;
  }
  const Backend be = active_backend();
  count_dispatch(be, kMul);
  switch (be) {
    case Backend::kGfni:
      internal::mul_region_gfni(c, src, dst, n, /*accumulate=*/false);
      return;
    case Backend::kAvx2:
      internal::mul_region_avx2(c, src, dst, n, /*accumulate=*/false);
      return;
    case Backend::kScalar:
      break;
  }
  const Byte* row = mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

void mul_add_region(Byte c, const Byte* src, Byte* dst, std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    xor_region(src, dst, n);
    return;
  }
  const Backend be = active_backend();
  count_dispatch(be, kMulAdd);
  switch (be) {
    case Backend::kGfni:
      internal::mul_region_gfni(c, src, dst, n, /*accumulate=*/true);
      return;
    case Backend::kAvx2:
      internal::mul_region_avx2(c, src, dst, n, /*accumulate=*/true);
      return;
    case Backend::kScalar:
      break;
  }
  const Byte* row = mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void xor_region(const Byte* src, Byte* dst, std::size_t n) {
  count_dispatch(active_backend(), kXor);
  if (active_backend() != Backend::kScalar) {
    internal::xor_region_avx2(src, dst, n);
    return;
  }
  std::size_t i = 0;
  // Word-at-a-time XOR; memcpy keeps it free of alignment assumptions.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void zero_region(Byte* dst, std::size_t n) { std::memset(dst, 0, n); }

}  // namespace carousel::gf
