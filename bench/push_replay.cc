// Collect vs. replay wall-clock split of the engine's push phase.
//
// The push phase is a parallel collect, whose chunks write disjoint slices
// of one record stream, followed by a serial drain on the Run thread
// (core/engine_push.h). For each push-heavy algorithm and host thread count
// this bench reports, per iteration, how long the collect and the drain
// took on the host. Like host_scaling it measures the SIMULATOR's wall
// clock (not simulated GPU time), emits JSON, and doubles as a determinism
// gate: simulated stats and values must be byte-identical at every thread
// count.
//
//   push_replay [--scale N] [--edge-factor N] [--threads 1,2,4,8]
//               [--repeats N] [--seed N] [--json out.json] [--smoke]
//               [--pre-combine]
//
// --seed: RMAT generator seed (default 42), so recorded JSON runs are
// reproducible byte-for-byte and distinct seeds can be archived side by
// side.
//
// --pre-combine: run with EngineOptions::pre_combine_replay set. Capable
// programs (BFS, WCC) drain under the per-destination contract and the
// replay split grows a fold/apply breakdown plus the fold ratio
// (records folded per Apply issued); SSSP is order-sensitive and must
// report the per-record contract unchanged. Adds a funnel workload
// (spokes -> hubs) whose middle iteration folds thousands of records into a
// handful of destinations — the pre-combining showcase.
//
// --smoke: CI gate — scale 12, 1 repeat, threads {1,2}; exits non-zero on
// any cross-thread-count divergence. With --pre-combine it additionally
// fails if any capable program never engaged the fold path, if SSSP left
// the per-record contract, or if the funnel's fold ratio is not > 1.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algos/algos.h"
#include "common.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "simt/device.h"

namespace simdx {
namespace {

struct Args {
  uint32_t scale = 16;
  uint32_t edge_factor = 8;
  uint64_t seed = 42;
  std::vector<uint32_t> threads = {1, 2, 4, 8};
  uint32_t repeats = 3;
  std::string json_path;
  bool smoke = false;
  bool pre_combine = false;
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--scale") {
      args.scale = bench::ParseU32Flag(
          bench::RequireFlagValue(argc, argv, i, "--scale"), "--scale");
    } else if (a == "--edge-factor") {
      args.edge_factor = bench::ParseU32Flag(
          bench::RequireFlagValue(argc, argv, i, "--edge-factor"), "--edge-factor");
    } else if (a == "--seed") {
      args.seed = bench::ParseU64Flag(
          bench::RequireFlagValue(argc, argv, i, "--seed"), "--seed");
    } else if (a == "--repeats") {
      args.repeats = bench::ParseU32Flag(
          bench::RequireFlagValue(argc, argv, i, "--repeats"), "--repeats");
    } else if (a == "--json") {
      args.json_path = bench::RequireFlagValue(argc, argv, i, "--json");
    } else if (a == "--threads") {
      args.threads = bench::ParseThreadList(
          bench::RequireFlagValue(argc, argv, i, "--threads"), "--threads");
    } else if (a == "--pre-combine") {
      args.pre_combine = true;
    } else if (a == "--smoke") {
      args.smoke = true;
      args.scale = 12;
      args.repeats = 1;
      args.threads = {1, 2};
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "usage: " << argv[0]
          << " [--scale N] [--edge-factor N] [--threads 1,2,4,8]"
             " [--repeats N] [--seed N] [--json out.json] [--smoke]"
             " [--pre-combine]\n\n"
             "Collect-then-replay push-drain profile on an RMAT graph:\n"
             "per-iteration collect and replay splits, optionally with\n"
             "the pre-combined drain. JSON (stdout, and --json <path>):\n"
             "{graph: {...}, runs: [{algo, host_threads, mode, wall_ms,\n"
             "  record counters, iterations: [{iteration, records, ...}]}]}\n";
      std::exit(0);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--scale N] [--edge-factor N] [--threads 1,2,4,8]"
                   " [--repeats N] [--seed N] [--json out.json] [--smoke]"
                   " [--pre-combine] [--help]\n";
      std::exit(2);
    }
  }
  return args;
}

struct Sample {
  std::string algo;
  uint32_t threads = 0;
  // Dimensions of the graph THIS sample ran on (the funnel samples differ
  // from the top-level RMAT graph, so per-edge rates need per-run sizes).
  uint64_t vertices = 0;
  uint64_t edges = 0;
  double best_ms = 1e300;
  PushReplayProfile profile;  // of the best repeat
  std::string fingerprint;
  StatsContract contract = StatsContract::kPerRecord;
  bool capable = false;  // program declared kAssociativeOnly
};

// force_push keeps every iteration on the collect/replay path under
// measurement; profile_push_replay turns the engine's clocks on.
EngineOptions BenchOptions(uint32_t threads, const Args& args) {
  EngineOptions o;
  o.host_threads = threads;
  o.force_push = true;
  o.profile_push_replay = true;
  o.pre_combine_replay = args.pre_combine;
  return o;
}

template <typename Program>
void Measure(const std::string& algo, const Graph& g, const Program& program,
             const Args& args, std::vector<Sample>& out) {
  for (uint32_t t : args.threads) {
    Sample s;
    s.algo = algo;
    s.threads = t;
    s.vertices = g.vertex_count();
    s.edges = g.edge_count();
    s.capable =
        program.combine_capability() == CombineCapability::kAssociativeOnly;
    for (uint32_t rep = 0; rep < args.repeats; ++rep) {
      Engine<Program> engine(g, MakeK40(), BenchOptions(t, args));
      const double t0 = bench::HostNowMs();
      const auto result = engine.Run(program);
      const double elapsed = bench::HostNowMs() - t0;
      const std::string key = bench::StatsFingerprint(result);
      if (s.fingerprint.empty()) {
        s.fingerprint = key;
        s.contract = result.stats.contract;
      } else if (s.fingerprint != key) {
        std::cerr << "NON-DETERMINISM within " << algo << " t=" << t << "\n";
        std::exit(1);
      }
      if (elapsed < s.best_ms) {
        s.best_ms = elapsed;
        s.profile = engine.push_profile();
      }
    }
    std::cerr << algo << " threads=" << t << " wall=" << s.best_ms
              << "ms collect=" << s.profile.collect_ms
              << "ms replay=" << s.profile.replay_ms << "ms";
    if (args.pre_combine) {
      std::cerr << " contract=" << ToString(s.contract)
                << " fold=" << s.profile.fold_records << "/"
                << s.profile.fold_applies;
    }
    std::cerr << "\n";
    out.push_back(std::move(s));
  }
}


}  // namespace
}  // namespace simdx

int main(int argc, char** argv) {
  using namespace simdx;
  Args args = Parse(argc, argv);

  const uint32_t hw = std::thread::hardware_concurrency();
  bench::WarnIfSingleCore();

  std::cerr << "building RMAT scale=" << args.scale
            << " edge_factor=" << args.edge_factor << " seed=" << args.seed
            << "...\n";
  const Graph g = Graph::FromEdges(
      GenerateRmat(args.scale, args.edge_factor, args.seed), /*directed=*/false);
  std::cerr << "graph: " << g.vertex_count() << " vertices, " << g.edge_count()
            << " edges\n";

  VertexId source = 0;
  uint32_t best_degree = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.OutDegree(v) > best_degree) {
      best_degree = g.OutDegree(v);
      source = v;
    }
  }

  std::vector<Sample> samples;
  {
    BfsProgram program;
    program.source = source;
    Measure("bfs", g, program, args, samples);
  }
  {
    SsspProgram program;
    program.source = source;
    Measure("sssp", g, program, args, samples);
  }
  {
    WccProgram program;
    program.graph = &g;
    Measure("wcc", g, program, args, samples);
  }
  if (args.pre_combine) {
    // Funnel workload (graph/generators.h): spokes -> hubs, so the middle
    // iteration folds sources*hubs records into `hubs` applies. The fold
    // ratio must be visibly > 1 here or the pre-combining never engaged.
    const Graph funnel = Graph::FromEdges(
        GenerateFunnel(/*sources=*/4000, /*hubs=*/4), /*directed=*/true);
    BfsProgram program;
    program.source = 0;
    Measure("bfs_funnel", funnel, program, args, samples);
  }

  // Cross-thread-count determinism gate.
  bool deterministic = true;
  for (const Sample& s : samples) {
    for (const Sample& other : samples) {
      if (s.algo == other.algo && s.fingerprint != other.fingerprint) {
        deterministic = false;
        std::cerr << "NON-DETERMINISM across thread counts in " << s.algo << "\n";
      }
    }
  }

  // Pre-combine acceptance (every thread count, smoke or not): capable
  // programs must actually fold under the per-destination contract, the
  // order-sensitive ones must stay per-record, and the funnel must show a
  // fold ratio > 1.
  bool fold_ok = true;
  if (args.pre_combine) {
    for (const Sample& s : samples) {
      if (s.capable) {
        if (s.contract != StatsContract::kPerDestination ||
            s.profile.precombined_replays == 0) {
          fold_ok = false;
          std::cerr << "PRE-COMBINE FAIL: " << s.algo << " t=" << s.threads
                    << " never engaged the fold path (contract="
                    << ToString(s.contract) << ", precombined_replays="
                    << s.profile.precombined_replays << ")\n";
        }
      } else if (s.contract != StatsContract::kPerRecord ||
                 s.profile.precombined_replays != 0) {
        fold_ok = false;
        std::cerr << "PRE-COMBINE FAIL: order-sensitive " << s.algo
                  << " t=" << s.threads << " left the per-record contract\n";
      }
      if (s.algo == "bfs_funnel" &&
          s.profile.fold_records <= s.profile.fold_applies) {
        fold_ok = false;
        std::cerr << "PRE-COMBINE FAIL: funnel fold ratio <= 1 ("
                  << s.profile.fold_records << " records / "
                  << s.profile.fold_applies << " applies)\n";
      }
    }
  }

  std::ostringstream json;
  json.precision(6);
  json << std::fixed;
  json << "{\n  \"graph\": {\"vertices\": " << g.vertex_count()
       << ", \"edges\": " << g.edge_count() << ", \"rmat_scale\": " << args.scale
       << ", \"seed\": " << args.seed
       << "},\n  \"hardware_concurrency\": " << hw
       << ",\n  \"pre_combine\": " << (args.pre_combine ? "true" : "false")
       << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const PushReplayProfile& p = s.profile;
    json << "    {\"algo\": \"" << s.algo << "\", \"host_threads\": " << s.threads
         << ", \"vertices\": " << s.vertices << ", \"edges\": " << s.edges
         << ", \"contract\": \"" << ToString(s.contract)
         << "\", \"wall_ms\": " << s.best_ms
         << ", \"serial_replays\": " << p.serial_replays
         << ", \"collect_ms\": " << p.collect_ms
         << ", \"replay_ms\": " << p.replay_ms;
    if (args.pre_combine) {
      // Collect / fold / apply wall-clock split + the fold ratio: how many
      // buffered records each issued Apply absorbed on average.
      const double ratio =
          p.fold_applies == 0
              ? 1.0
              : static_cast<double>(p.fold_records) /
                    static_cast<double>(p.fold_applies);
      json << ", \"precombined_replays\": " << p.precombined_replays
           << ", \"fold_records\": " << p.fold_records
           << ", \"fold_applies\": " << p.fold_applies
           << ", \"fold_ratio\": " << ratio << ", \"fold_ms\": " << p.fold_ms
           << ", \"apply_ms\": " << p.apply_ms;
    }
    json << ",\n     \"iterations\": [";
    for (size_t it = 0; it < p.iterations.size(); ++it) {
      const PushReplayIterationSplit& split = p.iterations[it];
      json << (it ? "," : "") << "\n       {\"iteration\": " << split.iteration
           << ", \"records\": " << split.records
           << ", \"applies\": " << split.applies
           << ", \"collect_ms\": " << split.collect_ms
           << ", \"replay_ms\": " << split.replay_ms << ", \"pre_combined\": "
           << (split.pre_combined ? "true" : "false") << "}";
    }
    json << (p.iterations.empty() ? "]" : "\n     ]") << "}"
         << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << json.str();
    std::cerr << "wrote " << args.json_path << "\n";
  }
  std::cout << json.str();
  return deterministic && fold_ok ? 0 : 1;
}
