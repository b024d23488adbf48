// simdx_cli — run any algorithm on any graph with any engine configuration
// from the command line; the "downstream user" surface of the library.
//
//   simdx_cli --algo bfs --preset TW
//   simdx_cli --algo sssp --file edges.txt --directed --source 5
//   simdx_cli --algo pagerank --preset UK --filter ballot --fusion none
//   simdx_cli --algo kcore --preset OR --k 32 --device p100 --verbose
//
// Algorithms: bfs sssp pagerank kcore bp wcc scc
// Filters:    jit online ballot batch      Fusion: selective none all
// Devices:    k20 k40 p100
#include <cstdio>
#include <cstring>
#include <string>

#include "algos/algos.h"
#include "algos/scc.h"
#include "bench/common.h"
#include "graph/io.h"
#include "graph/presets.h"
#include "graph/stats.h"
#include "simt/device.h"

namespace {

using namespace simdx;

struct CliArgs {
  std::string algo = "bfs";
  std::string preset;
  std::string file;
  bool directed = false;
  VertexId source = 0;
  bool source_set = false;
  uint32_t k = 16;
  uint32_t bp_rounds = 30;
  std::string device = "k40";
  std::string filter = "jit";
  std::string fusion = "selective";
  bool verbose = false;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --algo <bfs|sssp|pagerank|kcore|bp|wcc|scc>\n"
               "          (--preset <FB|ER|...> | --file <edges.txt> [--directed])\n"
               "          [--source N] [--k N] [--rounds N]\n"
               "          [--device k20|k40|p100] [--filter jit|online|ballot|batch]\n"
               "          [--fusion selective|none|all] [--verbose]\n",
               argv0);
}

bool Parse(int argc, char** argv, CliArgs& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) {
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string value;
    if (a == "--algo" && next(value)) {
      args.algo = value;
    } else if (a == "--preset" && next(value)) {
      args.preset = value;
    } else if (a == "--file" && next(value)) {
      args.file = value;
    } else if (a == "--directed") {
      args.directed = true;
    } else if (a == "--source" && next(value)) {
      args.source = bench::ParseU32Flag(value, "--source");
      args.source_set = true;
    } else if (a == "--k" && next(value)) {
      args.k = bench::ParseU32Flag(value, "--k");
    } else if (a == "--rounds" && next(value)) {
      args.bp_rounds = bench::ParseU32Flag(value, "--rounds");
    } else if (a == "--device" && next(value)) {
      args.device = value;
    } else if (a == "--filter" && next(value)) {
      args.filter = value;
    } else if (a == "--fusion" && next(value)) {
      args.fusion = value;
    } else if (a == "--verbose") {
      args.verbose = true;
    } else {
      return false;
    }
  }
  return !args.preset.empty() || !args.file.empty();
}

void PrintStats(const RunStats& stats, bool verbose) {
  std::printf("iterations : %u%s\n", stats.iterations,
              stats.converged ? "" : "  (hit iteration limit)");
  std::printf("sim time   : %.4f ms\n", stats.time.ms);
  std::printf("filters    : %s\n", stats.filter_pattern.c_str());
  std::printf("directions : %s\n", stats.direction_pattern.c_str());
  std::printf("events     : %s\n", ToString(stats.counters).c_str());
  if (verbose) {
    for (const IterationLog& log : stats.iteration_logs) {
      std::printf("  it %-5u frontier %-9llu edges %-10llu %c %c  %.5f ms\n",
                  log.iteration, static_cast<unsigned long long>(log.frontier_size),
                  static_cast<unsigned long long>(log.edges_processed), log.filter,
                  log.direction, log.ms);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!Parse(argc, argv, args)) {
    Usage(argv[0]);
    return 2;
  }

  Graph graph;
  if (!args.preset.empty()) {
    graph = LoadPreset(args.preset);
  } else {
    auto edges = ReadEdgeListText(args.file);
    if (!edges) {
      std::fprintf(stderr, "error: cannot read edge list '%s'\n", args.file.c_str());
      return 1;
    }
    graph = Graph::FromEdges(std::move(*edges), args.directed, 0, args.file);
  }
  std::printf("graph '%s': %u vertices, %llu edges, %s\n", graph.name().c_str(),
              graph.vertex_count(),
              static_cast<unsigned long long>(graph.edge_count()),
              graph.directed() ? "directed" : "undirected");
  if (args.source_set && args.source >= graph.vertex_count()) {
    std::fprintf(stderr,
                 "error: --source %u is not a vertex of the graph (%u "
                 "vertices)\n",
                 args.source, graph.vertex_count());
    return 2;
  }

  DeviceSpec device = MakeK40();
  if (args.device == "k20") {
    device = MakeK20();
  } else if (args.device == "p100") {
    device = MakeP100();
  } else if (args.device != "k40") {
    std::fprintf(stderr, "error: unknown device '%s'\n", args.device.c_str());
    return 2;
  }

  EngineOptions options;
  options.keep_iteration_log = args.verbose;  // PrintStats prints it
  if (args.filter == "online") {
    options.filter = FilterPolicy::kOnlineOnly;
  } else if (args.filter == "ballot") {
    options.filter = FilterPolicy::kBallotOnly;
  } else if (args.filter == "batch") {
    options.filter = FilterPolicy::kBatch;
  } else if (args.filter != "jit") {
    std::fprintf(stderr, "error: unknown filter '%s'\n", args.filter.c_str());
    return 2;
  }
  if (args.fusion == "none") {
    options.fusion = FusionPolicy::kNoFusion;
  } else if (args.fusion == "all") {
    options.fusion = FusionPolicy::kAllFusion;
  } else if (args.fusion != "selective") {
    std::fprintf(stderr, "error: unknown fusion '%s'\n", args.fusion.c_str());
    return 2;
  }

  VertexId source = args.source;
  if (!args.source_set) {
    // Default to a hub so traversals cover the giant component.
    uint32_t best = 0;
    for (VertexId v = 0; v < graph.vertex_count(); ++v) {
      if (graph.OutDegree(v) > best) {
        best = graph.OutDegree(v);
        source = v;
      }
    }
  }

  std::printf("running %s on %s (filter=%s fusion=%s)\n\n", args.algo.c_str(),
              device.name.c_str(), args.filter.c_str(), args.fusion.c_str());

  if (args.algo == "bfs") {
    const auto r = RunBfs(graph, source, device, options);
    uint64_t visited = 0;
    for (uint32_t level : r.values) {
      visited += level != kInfinity;
    }
    std::printf("visited %llu vertices from source %u\n",
                static_cast<unsigned long long>(visited), source);
    PrintStats(r.stats, args.verbose);
    return r.stats.ok() ? 0 : 1;
  }
  if (args.algo == "sssp") {
    const auto r = RunSssp(graph, source, device, options);
    uint32_t max_dist = 0;
    for (uint32_t d : r.values) {
      if (d != kInfinity) {
        max_dist = std::max(max_dist, d);
      }
    }
    std::printf("max finite distance from %u: %u\n", source, max_dist);
    PrintStats(r.stats, args.verbose);
    return r.stats.ok() ? 0 : 1;
  }
  if (args.algo == "pagerank") {
    const auto r = RunPageRank(graph, device, options, 1e-9);
    VertexId top = 0;
    for (VertexId v = 0; v < graph.vertex_count(); ++v) {
      if (r.values[v].rank > r.values[top].rank) {
        top = v;
      }
    }
    std::printf("top vertex %u with rank %.4e\n", top, r.values[top].rank);
    PrintStats(r.stats, args.verbose);
    return r.stats.ok() ? 0 : 1;
  }
  if (args.algo == "kcore") {
    const auto r = RunKCore(graph, args.k, device, options);
    uint64_t survivors = 0;
    for (const auto& value : r.values) {
      survivors += !value.removed;
    }
    std::printf("%llu vertices remain in the %u-core\n",
                static_cast<unsigned long long>(survivors), args.k);
    PrintStats(r.stats, args.verbose);
    return r.stats.ok() ? 0 : 1;
  }
  if (args.algo == "bp") {
    const auto r = RunBp(graph, args.bp_rounds, device, options);
    PrintStats(r.stats, args.verbose);
    return r.stats.ok() ? 0 : 1;
  }
  if (args.algo == "wcc") {
    const auto r = RunWcc(graph, device, options);
    std::vector<uint32_t> labels = r.values;
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    std::printf("%zu weakly connected components\n", labels.size());
    PrintStats(r.stats, args.verbose);
    return r.stats.ok() ? 0 : 1;
  }
  if (args.algo == "scc") {
    RunStats stats;
    const auto labels = RunScc(graph, device, options, &stats);
    std::vector<uint32_t> unique = labels;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    std::printf("%zu strongly connected components\n", unique.size());
    PrintStats(stats, args.verbose);
    return 0;
  }
  std::fprintf(stderr, "error: unknown algorithm '%s'\n", args.algo.c_str());
  Usage(argv[0]);
  return 2;
}
