// Microbenchmarks of the GF(2^8) region kernels and matrix primitives — the
// ISA-L stand-in whose throughput underlies every coding figure.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "gf/backend.h"
#include "gf/vect.h"
#include "matrix/matrix.h"

namespace {

using carousel::gf::Backend;
using carousel::gf::Byte;

// Backend ablation: the same multiply-accumulate on every supported kernel
// generation (scalar table / AVX2 shuffle / GFNI affine) — the dispatch
// ladder ISA-L uses.
void BM_MulAddBackend(benchmark::State& state) {
  const auto backend = static_cast<Backend>(state.range(0));
  carousel::gf::ScopedBackend guard(backend);
  if (!guard.ok()) {
    state.SkipWithError("backend unsupported on this CPU");
    return;
  }
  const std::size_t n = 1 << 20;
  auto src = carousel::bench::random_bytes(n);
  std::vector<Byte> dst(n);
  for (auto _ : state) {
    carousel::gf::mul_add_region(0x37, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.SetLabel(carousel::gf::backend_name(backend));
}
BENCHMARK(BM_MulAddBackend)
    ->Arg(static_cast<int>(Backend::kScalar))
    ->Arg(static_cast<int>(Backend::kAvx2))
    ->Arg(static_cast<int>(Backend::kGfni));

void BM_MulRegion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto src = carousel::bench::random_bytes(n);
  std::vector<Byte> dst(n);
  for (auto _ : state) {
    carousel::gf::mul_region(0x9D, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_MulRegion)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_MulAddRegion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto src = carousel::bench::random_bytes(n);
  std::vector<Byte> dst(n);
  for (auto _ : state) {
    carousel::gf::mul_add_region(0x37, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_MulAddRegion)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_XorRegion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto src = carousel::bench::random_bytes(n);
  std::vector<Byte> dst(n);
  for (auto _ : state) {
    carousel::gf::xor_region(src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_XorRegion)->Arg(4 << 10)->Arg(4 << 20);

void BM_MatrixInverse(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto bytes = carousel::bench::random_bytes(n * n, 11);
  carousel::matrix::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m.at(r, c) = bytes[r * n + c];
  if (!m.inverse()) {
    state.SkipWithError("singular draw");
    return;
  }
  for (auto _ : state) {
    auto inv = m.inverse();
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_MatrixInverse)->Arg(16)->Arg(60)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
