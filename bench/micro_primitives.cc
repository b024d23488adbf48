// Microbenchmarks (google-benchmark) for the substrate primitives the
// engines are built from: warp lane operations, the ballot filter scan,
// CSR construction, and the discrete global-barrier simulation. These guard
// against performance regressions in the simulator itself (wall-clock, not
// simulated time).
#include <benchmark/benchmark.h>

#include <random>

#include "core/filters.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "simt/barrier.h"
#include "simt/warp.h"

namespace simdx {
namespace {

void BM_WarpBallot(benchmark::State& state) {
  std::array<bool, kWarpSize> pred{};
  for (size_t i = 0; i < kWarpSize; i += 3) {
    pred[i] = true;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(WarpBallot(pred));
  }
}
BENCHMARK(BM_WarpBallot);

void BM_WarpReduceSum(benchmark::State& state) {
  std::array<uint32_t, kWarpSize> lanes{};
  std::mt19937 rng(1);
  for (auto& lane : lanes) {
    lane = rng();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(WarpReduce<uint32_t>(
        lanes, [](uint32_t a, uint32_t b) { return a + b; }, 0u));
  }
}
BENCHMARK(BM_WarpReduceSum);

void BM_WarpInclusiveScan(benchmark::State& state) {
  std::array<uint32_t, kWarpSize> lanes{};
  lanes.fill(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WarpInclusiveScan<uint32_t>(
        lanes, [](uint32_t a, uint32_t b) { return a + b; }, 0u));
  }
}
BENCHMARK(BM_WarpInclusiveScan);

// The serial scan the engine runs at one host thread, with the output
// buffer and scratch reused across iterations as the JIT controller does.
void BM_BallotFilterScanInto(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  std::vector<bool> active(n);
  std::mt19937 rng(2);
  for (VertexId v = 0; v < n; ++v) {
    active[v] = rng() % 10 == 0;
  }
  std::vector<VertexId> frontier;
  BallotScratch scratch;
  for (auto _ : state) {
    CostCounters c;
    BallotFilterScanInto(
        n, [&](VertexId v) { return static_cast<bool>(active[v]); }, c,
        frontier, scratch, nullptr, 1);
    benchmark::DoNotOptimize(frontier.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BallotFilterScanInto)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_CsrFromEdges(benchmark::State& state) {
  const EdgeList edges = GenerateRmat(static_cast<uint32_t>(state.range(0)), 8, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Csr::FromEdges(edges));
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_CsrFromEdges)->Arg(10)->Arg(14);

void BM_BarrierSimulation(benchmark::State& state) {
  const auto grid = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateGlobalBarrier(grid, grid, 8));
  }
}
BENCHMARK(BM_BarrierSimulation)->Arg(60)->Arg(240)->Arg(960);

}  // namespace
}  // namespace simdx

BENCHMARK_MAIN();
