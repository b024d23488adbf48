// The five e2e workloads. The seed drives every input: the graph, the job
// sources and the arrival schedule. A separate --prepare process writes the
// graph as a binary edge file, so generation is counted in neither set-up
// time nor the measuring process's memory.
#ifndef SIMDX_BENCH_E2E_WORKLOADS_H_
#define SIMDX_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "harness.h"

namespace simdx::e2e {

struct GraphSpec {
  bool road = false;        // GenerateGridRoad(side, side) instead of R-MAT
  uint32_t scale = 0;       // R-MAT: 2^scale vertices, edge_factor each
  uint32_t edge_factor = 8;
  uint32_t side = 0;        // road grid: side x side
  bool directed = false;
  VertexId vertex_count() const { return road ? side * side : VertexId{1} << scale; }
};

struct Workload {
  const char* name;
  bool serve;  // an open loop over the socket (vs. back-to-back engine jobs)
  GraphSpec graph;
};

// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::string WorkloadNames();  // "a, b, ..." for usage text

struct RunConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string input;      // binary edge file from --prepare
  std::string trace_out;  // Chrome trace JSON (traced runs)
  std::string work_dir;   // scratch for the socket; relative paths keep
                          // the socket path short
};

// Generates the workload's graph from the seed and writes it to cfg.input.
bool Prepare(const RunConfig& cfg, std::string* error);

// One timed set-up: read the edge file and build the CSR.
struct LoadedGraph {
  Graph graph;
  double read_ms = 0.0;
  double build_ms = 0.0;
};
bool LoadGraph(const RunConfig& cfg, LoadedGraph* out, std::string* error);

// ru_maxrss of this process, in MB.
double PeakRssMb();

Report RunEngineWorkload(const RunConfig& cfg);
Report RunServeWorkload(const RunConfig& cfg);

// Set-up is repeated and reported as the median: at least 5 times, and on
// until 2 s went into it, at most 25 times. Small graphs set up in ~40 ms, so
// a fixed count would leave their median to a few host hiccups.
inline bool MoreSetups(size_t done, double spent_ms) {
  return done < 5 || (spent_ms < 2000.0 && done < 25);
}

}  // namespace simdx::e2e

#endif  // SIMDX_BENCH_E2E_WORKLOADS_H_
