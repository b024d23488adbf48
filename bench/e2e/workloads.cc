#include "workloads.h"

#include <sys/resource.h>

#include <utility>

#include "graph/generators.h"
#include "graph/io.h"
#include "trace.h"

namespace simdx::e2e {

namespace {

// Sizes keep each job well above timer noise while leaving room for at least
// 100 jobs (the p90 sample floor) inside a 10-15 s run on a 4-core host.
const Workload kWorkloads[] = {
    // Push-heavy SSSP on a skewed graph: collect and partitioned replay do the
    // work; pull and the service stay idle.
    {"sssp-social", false, {.scale = 18, .edge_factor = 8, .directed = true}},
    // ~700 tiny BFS iterations per job on a high-diameter grid: fixed
    // per-iteration costs (filter, classification, pool dispatch) dominate.
    {"bfs-road", false, {.road = true, .side = 512}},
    // PageRank to eps 1e-10: pull gathers, ballot scans and ordered FP merges
    // for ~60 iterations, then a push tail.
    {"pagerank-social", false, {.scale = 14, .edge_factor = 8, .directed = true}},
    // Open loop over the socket, 50% BFS / 50% SSSP, every question distinct:
    // engine runs and queueing dominate and the cache is bypassed.
    {"serve-mixed", true, {.scale = 14, .edge_factor = 8, .directed = false}},
    // BFS only with Zipf-hot sources: cache hits return inside Submit, so
    // transport and codec dominate latency.
    {"serve-hot", true, {.scale = 14, .edge_factor = 8, .directed = false}},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    names += names.empty() ? "" : ", ";
    names += w.name;
  }
  return names;
}

bool Prepare(const RunConfig& cfg, std::string* error) {
  const GraphSpec& g = cfg.workload->graph;
  const uint64_t seed = SubSeed(cfg.seed, "graph");
  const EdgeList edges = g.road ? GenerateGridRoad(g.side, g.side, seed)
                                : GenerateRmat(g.scale, g.edge_factor, seed);
  if (!WriteEdgeListBinary(edges, cfg.input)) {
    *error = "cannot write " + cfg.input;
    return false;
  }
  return true;
}

bool LoadGraph(const RunConfig& cfg, LoadedGraph* out, std::string* error) {
  Tracer& tracer = Tracer::Get();
  const auto t0 = Clock::now();
  EdgeList edges;
  const IoStatus status = ReadEdgeListBinaryStatus(cfg.input, &edges);
  const auto t1 = Clock::now();
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  const GraphSpec& g = cfg.workload->graph;
  out->graph = Graph::FromEdges(std::move(edges), g.directed, g.vertex_count(),
                                cfg.workload->name);
  const auto t2 = Clock::now();
  out->read_ms = MsBetween(t0, t1);
  out->build_ms = MsBetween(t1, t2);
  tracer.Record("graph.read", tracer.ToUs(t0), tracer.ToUs(t1), tracer.NewId(), 0, 0);
  tracer.Record("graph.build", tracer.ToUs(t1), tracer.ToUs(t2), tracer.NewId(), 0, 0);
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace simdx::e2e
