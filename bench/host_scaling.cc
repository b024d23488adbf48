// Host wall-clock scaling of the simulator's parallel runtime.
//
// Unlike every other bench (which reports SIMULATED time), this one measures
// how long the simulator itself takes on the host, over a ~1M-edge R-MAT
// graph at 1/2/4/8 host threads, for the full algorithm suite — push-heavy
// (BFS, SSSP), pull-heavy (PageRank, BP) and mixed (WCC, k-Core) — and
// verifies the determinism contract along the way: the simulated statistics
// (counters, simulated ms, filter/direction patterns, values) must be
// byte-identical at every thread count. Emits JSON (stdout, or
// --json <path>) so future PRs can track the perf trajectory.
//
//   host_scaling [--scale N] [--edge-factor N] [--threads 1,2,4,8]
//                [--repeats N] [--seed N] [--json out.json] [--smoke]
//
// --seed selects the RMAT generator seed (default 42) so recorded JSON runs
// are reproducible byte-for-byte.
//
// --smoke: CI divergence gate — scale 13, 1 repeat, threads {1,2}. When the
// host has >= 4 cores (and the build is sanitizer-free —
// bench::SpeedupGateEnabled), smoke additionally extends the thread list to
// include 4 and enforces a minimum geomean wall-clock speedup across the
// algorithm suite; on smaller hosts the gate prints the skip reason and the
// exit code reflects determinism only, exactly as before.
#include <algorithm>
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
  uint32_t scale = 17;       // 2^17 vertices
  uint32_t edge_factor = 8;  // ~1M directed edges
  uint64_t seed = 42;
  std::vector<uint32_t> threads = {1, 2, 4, 8};
  uint32_t repeats = 3;
  std::string json_path;
  bool smoke = false;
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
    } else if (a == "--smoke") {
      args.smoke = true;
      args.scale = 13;
      args.repeats = 1;
      args.threads = {1, 2};
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "usage: " << argv[0]
          << " [--scale N] [--edge-factor N] [--threads 1,2,4,8]"
             " [--repeats N] [--seed N] [--json out.json] [--smoke]\n\n"
             "Host-thread scaling sweep on an RMAT graph: wall time and\n"
             "speedup per thread count, with the determinism fingerprint\n"
             "checked across counts. JSON (stdout, and --json <path>):\n"
             "{graph: {vertices, edges, ...}, runs: [{algo, host_threads,\n"
             "  wall_ms, speedup_vs_1t | null}]}\n";
      std::exit(0);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--scale N] [--edge-factor N] [--threads 1,2,4,8]"
                   " [--repeats N] [--seed N] [--json out.json] [--smoke]"
                   " [--help]\n";
      std::exit(2);
    }
  }
  return args;
}

// The simulated-statistics fingerprint the determinism contract freezes.
struct StatsKey {
  std::string fingerprint;

  template <typename Value>
  static StatsKey Of(const RunResult<Value>& r) {
    // Shared with push_replay so both gates freeze the same definition of
    // "identical simulated stats".
    return StatsKey{bench::StatsFingerprint(r)};
  }

  friend bool operator==(const StatsKey&, const StatsKey&) = default;
};

struct Sample {
  std::string algo;
  uint32_t threads = 0;
  double best_ms = 0.0;
  StatsKey key;
};

template <typename RunFn>
void Measure(const std::string& algo, const Args& args, const RunFn& run,
             std::vector<Sample>& out) {
  for (uint32_t t : args.threads) {
    Sample s;
    s.algo = algo;
    s.threads = t;
    s.best_ms = 1e300;
    for (uint32_t rep = 0; rep < args.repeats; ++rep) {
      const double t0 = bench::HostNowMs();
      auto result = run(t);
      const double elapsed = bench::HostNowMs() - t0;
      s.best_ms = std::min(s.best_ms, elapsed);
      const StatsKey key = StatsKey::Of(result);
      if (s.key.fingerprint.empty()) {
        s.key = key;
      } else if (!(s.key == key)) {
        std::cerr << "NON-DETERMINISM within " << algo << " t=" << t << "\n";
        std::exit(1);
      }
    }
    std::cerr << algo << " threads=" << t << " best=" << s.best_ms << "ms\n";
    out.push_back(std::move(s));
  }
}

}  // namespace
}  // namespace simdx

namespace simdx {
namespace {

// Minimum geomean whole-run speedup (t=1 vs the largest measured thread
// count) the smoke gate enforces when bench::SpeedupGateEnabled(4):
// conservative on purpose — the suite includes merge-heavy pull workloads,
// but 4 cores clear 1.2x with a wide margin when the runtime scales at all.
constexpr double kMinSuiteSpeedup = 1.2;

}  // namespace
}  // namespace simdx

int main(int argc, char** argv) {
  using namespace simdx;
  Args args = Parse(argc, argv);

  // The PR 1 flat-curve trap: the JSON records hardware_concurrency so
  // readers can tell; warn loudly up front too.
  bench::WarnIfSingleCore();

  // Suite speedup gate (smoke only): self-guarded by a runtime
  // hardware_concurrency check, so the CI step stays unconditional and
  // 1-core runners keep today's determinism-only behaviour.
  const bool speedup_gate =
      args.smoke && bench::ArmSmokeSpeedupGate(args.threads, args.repeats);

  std::cerr << "building RMAT scale=" << args.scale
            << " edge_factor=" << args.edge_factor << " seed=" << args.seed
            << "...\n";
  const Graph g = Graph::FromEdges(
      GenerateRmat(args.scale, args.edge_factor, args.seed), /*directed=*/true);
  std::cerr << "graph: " << g.vertex_count() << " vertices, " << g.edge_count()
            << " edges\n";

  const DeviceSpec device = MakeK40();
  VertexId source = 0;
  uint32_t best_degree = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.OutDegree(v) > best_degree) {
      best_degree = g.OutDegree(v);
      source = v;
    }
  }

  const auto options = [](uint32_t threads) {
    EngineOptions o;
    o.host_threads = threads;
    return o;
  };
  std::vector<Sample> samples;
  // Pull-heavy programs (wide frontiers gather most iterations).
  Measure(
      "pagerank", args,
      [&](uint32_t t) { return RunPageRank(g, device, options(t), 1e-8); },
      samples);
  Measure(
      "bp", args, [&](uint32_t t) { return RunBp(g, 10, device, options(t)); },
      samples);
  // Push-heavy programs (thin frontiers scatter through the push record
  // stream + ordered replay).
  Measure(
      "bfs", args,
      [&](uint32_t t) { return RunBfs(g, source, device, options(t)); },
      samples);
  Measure(
      "sssp", args,
      [&](uint32_t t) { return RunSssp(g, source, device, options(t)); },
      samples);
  // Mixed-direction programs.
  Measure(
      "wcc", args, [&](uint32_t t) { return RunWcc(g, device, options(t)); },
      samples);
  Measure(
      "kcore", args,
      [&](uint32_t t) { return RunKCore(g, 16, device, options(t)); },
      samples);

  // Cross-thread-count determinism: one fingerprint per algorithm.
  bool deterministic = true;
  for (const Sample& s : samples) {
    for (const Sample& other : samples) {
      if (s.algo == other.algo && !(s.key == other.key)) {
        deterministic = false;
        std::cerr << "NON-DETERMINISM across thread counts in " << s.algo << "\n";
      }
    }
  }

  // Suite speedup gate: geomean over algorithms of best_ms(t=1) /
  // best_ms(t=max). Only armed when SpeedupGateEnabled said the host can
  // meaningfully scale.
  bool speedup_ok = true;
  if (speedup_gate) {
    const uint32_t t_max =
        *std::max_element(args.threads.begin(), args.threads.end());
    std::vector<double> ratios;
    for (const Sample& s : samples) {
      if (s.threads != 1) {
        continue;
      }
      for (const Sample& other : samples) {
        if (other.algo == s.algo && other.threads == t_max) {
          ratios.push_back(s.best_ms / other.best_ms);
        }
      }
    }
    const double geomean = bench::GeoMean(ratios);
    std::cerr << "suite speedup t=1 -> t=" << t_max << ": geomean " << geomean
              << "x (gate: >= " << kMinSuiteSpeedup << ")\n";
    if (ratios.empty() || geomean < kMinSuiteSpeedup) {
      speedup_ok = false;
      std::cerr << "SPEEDUP FAIL: suite geomean " << geomean << "x from 1 to "
                << t_max << " threads (need >= " << kMinSuiteSpeedup << ")\n";
    }
  }

  std::ostringstream json;
  json.precision(6);
  json << std::fixed;
  json << "{\n  \"graph\": {\"vertices\": " << g.vertex_count()
       << ", \"edges\": " << g.edge_count() << ", \"rmat_scale\": " << args.scale
       << ", \"seed\": " << args.seed << "},\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"deterministic\": "
       << (deterministic ? "true" : "false") << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    double speedup = -1.0;
    for (const Sample& base : samples) {
      if (base.algo == s.algo && base.threads == 1) {
        speedup = base.best_ms / s.best_ms;
      }
    }
    json << "    {\"algo\": \"" << s.algo << "\", \"host_threads\": " << s.threads
         << ", \"wall_ms\": " << s.best_ms << ", \"speedup_vs_1\": ";
    if (speedup > 0.0) {
      json << speedup;
    } else {
      json << "null";  // no 1-thread baseline in this sweep
    }
    json << "}" << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << json.str();
    std::cerr << "wrote " << args.json_path << "\n";
  }
  std::cout << json.str();
  return deterministic && speedup_ok ? 0 : 1;
}
