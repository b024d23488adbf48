// Umbrella header + convenience runners for the algorithm suite. Each
// Run* helper wires the program to an Engine on the given device/options —
// the "tens of lines of code per algorithm" experience of the paper's
// Figure 4 from the caller's point of view.
#ifndef SIMDX_ALGOS_ALGOS_H_
#define SIMDX_ALGOS_ALGOS_H_

#include <string>
#include <vector>

#include "algos/bfs.h"
#include "algos/bp.h"
#include "algos/kcore.h"
#include "algos/msbfs.h"
#include "algos/pagerank.h"
#include "algos/ppr.h"
#include "algos/spmv.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/engine.h"

namespace simdx {

static_assert(AccProgram<BfsProgram>);
static_assert(AccProgram<MsBfsProgram>);
static_assert(AccProgram<SsspProgram>);
static_assert(AccProgram<PageRankProgram>);
static_assert(AccProgram<PprProgram>);
static_assert(AccProgram<KCoreProgram>);
static_assert(AccProgram<BpProgram>);
static_assert(AccProgram<WccProgram>);
static_assert(AccProgram<SpmvProgram>);

RunResult<uint32_t> RunBfs(const Graph& g, VertexId source, const DeviceSpec& device,
                           const EngineOptions& options);
// One bit-parallel traversal for <= 64 distinct sources (extras are dropped
// by MsBfsInit): `run.values` holds the final lane masks, `state` the
// settle-time level table (DemuxLanes(state, ...).bytes[lane] is
// bit-comparable to the bytes of RunBfs(g, state.sources[lane], ...).values).
// Both are answers only when run.stats.ok().
struct MsBfsRunResult {
  RunResult<uint64_t> run;
  MsBfsState state;
};
MsBfsRunResult RunMsBfs(const Graph& g, const std::vector<VertexId>& sources,
                        const DeviceSpec& device, const EngineOptions& options);
RunResult<uint32_t> RunSssp(const Graph& g, VertexId source,
                            const DeviceSpec& device, const EngineOptions& options);
RunResult<PageRankValue> RunPageRank(const Graph& g, const DeviceSpec& device,
                                     const EngineOptions& options,
                                     double epsilon = 1e-9);
RunResult<PageRankValue> RunPpr(const Graph& g, VertexId source,
                                const DeviceSpec& device,
                                const EngineOptions& options,
                                double epsilon = 1e-9);
RunResult<KCoreValue> RunKCore(const Graph& g, uint32_t k, const DeviceSpec& device,
                               const EngineOptions& options);
RunResult<double> RunBp(const Graph& g, uint32_t rounds, const DeviceSpec& device,
                        const EngineOptions& options);
RunResult<uint32_t> RunWcc(const Graph& g, const DeviceSpec& device,
                           const EngineOptions& options);
RunResult<SpmvValue> RunSpmv(const Graph& g, const std::vector<double>& x,
                             const DeviceSpec& device, const EngineOptions& options);

// The algorithm names used in benches and tables, in the paper's order.
const std::vector<std::string>& AlgorithmNames();  // BFS, PR, SSSP, k-Core, BP

}  // namespace simdx

#endif  // SIMDX_ALGOS_ALGOS_H_
