// Randomized differential determinism harness.
//
// The engine's determinism story now has TWO contracts (simt/cost_model.h):
// kPerRecord (the original byte-identical per-record drain) and
// kPerDestination (the associative pre-combining drain). This harness sweeps
// seed-randomized graphs from three generator families (R-MAT, Erdős–Rényi,
// small-world) across the full algorithm suite, host thread counts
// {1, 2, 3, 8}, pinned directions (natural / force_push / force_pull) and
// two replay modes (per-record / pre-combined drain), asserting for every
// cell:
//
//   * DIFFERENTIAL DETERMINISM: the bench StatsFingerprint (counters,
//     simulated time, patterns, raw value bytes) of every multi-threaded run
//     equals the host_threads=1 run of the SAME configuration — i.e. the
//     parallel drains are differentially tested against their serial
//     counterparts, under whichever contract the configuration selects.
//   * ORACLE CORRECTNESS: output values match the textbook CPU references in
//     baselines/cpu_reference.* (exactly for the integer-valued algorithms
//     in every direction mode; within tolerance for the floating-point ones,
//     whose push-mode record order legitimately reassociates sums).
//
// ≥ 20 seed/graph combinations per algorithm (3 families × 7 seeds by
// default), every combination exercising all four thread counts — this is
// the randomized sweep the ctest `slow`/`sweep` labels exist for (the
// default CI job runs `ctest -LE slow`; run it nightly-style or locally via
// `ctest -L sweep`).
//
// NIGHTLY SCALING: the sweep's dimensions are env-tunable so the scheduled
// workflow (.github/workflows/nightly-sweep.yml) can grow it far beyond the
// seconds-scale defaults without touching the fast suite:
//   SIMDX_SWEEP_SEEDS    seeds per generator family      (default 7)
//   SIMDX_SWEEP_SCALE    graph scale, RMAT log2 vertices (default 8; ER and
//                        small-world sizes scale by 2^(SCALE-8) with it)
//   SIMDX_SWEEP_THREADS  comma-separated thread list     (default "2,3,8")
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "algos/algos.h"
#include "baselines/cpu_reference.h"
#include "bench/common.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "simt/device.h"

namespace simdx {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  return (end != nullptr && *end == '\0') ? static_cast<uint64_t>(v) : fallback;
}

std::vector<uint32_t> SweepThreads() {
  static const std::vector<uint32_t>* threads = [] {
    auto* v = new std::vector<uint32_t>();
    const char* s = std::getenv("SIMDX_SWEEP_THREADS");
    std::istringstream ss(s == nullptr || *s == '\0' ? "2,3,8" : s);
    std::string token;
    while (std::getline(ss, token, ',')) {
      const uint64_t t = std::strtoull(token.c_str(), nullptr, 10);
      if (t >= 1 && t <= 64) {
        v->push_back(static_cast<uint32_t>(t));
      }
    }
    if (v->empty()) {
      *v = {2, 3, 8};
    }
    return v;
  }();
  return *threads;
}

struct GraphCase {
  std::string name;
  Graph graph;
};

// Seed/graph combinations shared by every algorithm's sweep: 3 families ×
// SIMDX_SWEEP_SEEDS seeds at SIMDX_SWEEP_SCALE. The defaults (21 cases,
// ≤ ~512 vertices, ≤ ~4k edges) keep the full cross-product minutes, not
// hours, on one core; the nightly job turns both knobs up.
const std::vector<GraphCase>& AllCases() {
  static const std::vector<GraphCase>* cases = [] {
    const uint64_t seeds = std::max<uint64_t>(1, EnvU64("SIMDX_SWEEP_SEEDS", 7));
    const uint32_t scale = static_cast<uint32_t>(
        std::min<uint64_t>(20, std::max<uint64_t>(6, EnvU64("SIMDX_SWEEP_SCALE", 8))));
    // ER / small-world sizes grow with the same knob, anchored at the
    // historical 300/256-vertex defaults for scale 8.
    const uint32_t er_n = scale >= 8 ? 300u << (scale - 8) : 300u >> (8 - scale);
    const uint32_t sw_n = scale >= 8 ? 256u << (scale - 8) : 256u >> (8 - scale);
    auto* v = new std::vector<GraphCase>();
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      v->push_back({"rmat/" + std::to_string(seed),
                    Graph::FromEdges(GenerateRmat(scale, 8, seed),
                                     /*directed=*/false)});
      v->push_back({"er/" + std::to_string(seed),
                    Graph::FromEdges(GenerateUniformRandom(er_n, 6 * er_n, seed),
                                     /*directed=*/false)});
      v->push_back({"sw/" + std::to_string(seed),
                    Graph::FromEdges(GenerateSmallWorld(sw_n, 4, 0.2, seed),
                                     /*directed=*/false)});
    }
    return v;
  }();
  return *cases;
}

enum class Dir { kNatural, kForcePush, kForcePull };
constexpr Dir kDirs[] = {Dir::kNatural, Dir::kForcePush, Dir::kForcePull};

const char* Name(Dir d) {
  switch (d) {
    case Dir::kNatural:
      return "natural";
    case Dir::kForcePush:
      return "force_push";
    default:
      return "force_pull";
  }
}

// Replay-accounting mode: the per-record contract or the pre-combined
// drain (kPerDestination).
enum class Mode { kPerRecord, kPreCombine };
constexpr Mode kModes[] = {Mode::kPerRecord, Mode::kPreCombine};

const char* Name(Mode m) {
  return m == Mode::kPerRecord ? "per_record" : "pre_combine";
}

EngineOptions Options(uint32_t threads, Dir dir, Mode mode) {
  EngineOptions o;
  o.host_threads = threads;
  o.sim_worker_threads = 64;  // small graphs: keep the online filter viable
  o.force_push = dir == Dir::kForcePush;
  o.force_pull = dir == Dir::kForcePull;
  o.pre_combine_replay = mode == Mode::kPreCombine;
  o.parallel_replay_min_records = 0;  // tiny graphs must still partition
  return o;
}

// One configuration cell: runs serial, sweeps threads against it, and hands
// the serial result to `check_oracle`.
template <typename RunFn, typename OracleFn>
void SweepCell(const std::string& label, Dir dir, Mode mode, const RunFn& run,
               const OracleFn& check_oracle) {
  SCOPED_TRACE(label + " dir=" + Name(dir) + " mode=" + Name(mode));
  const auto serial = run(Options(1, dir, mode));
  ASSERT_TRUE(serial.stats.ok());
  const std::string serial_print = bench::StatsFingerprint(serial);
  check_oracle(serial);
  for (uint32_t threads : SweepThreads()) {
    const auto parallel = run(Options(threads, dir, mode));
    EXPECT_EQ(bench::StatsFingerprint(parallel), serial_print)
        << "host_threads=" << threads;
    // The buffered record count is outside the fingerprint (host-side
    // telemetry), so pin its thread-count determinism here.
    EXPECT_EQ(parallel.stats.push_records_buffered,
              serial.stats.push_records_buffered)
        << "host_threads=" << threads;
  }
}

// Full sweep for one algorithm: every graph case × direction × mode.
template <typename RunFn, typename OracleFn>
void SweepAlgorithm(const RunFn& run, const OracleFn& check_oracle) {
  for (const GraphCase& c : AllCases()) {
    for (Dir dir : kDirs) {
      for (Mode mode : kModes) {
        SweepCell(c.name, dir, mode,
                  [&](const EngineOptions& o) { return run(c.graph, o); },
                  [&](const auto& serial) { check_oracle(c.graph, serial, dir); });
      }
    }
  }
}

TEST(DifferentialDeterminismTest, Bfs) {
  SweepAlgorithm(
      [](const Graph& g, const EngineOptions& o) {
        return RunBfs(g, 0, MakeK40(), o);
      },
      [](const Graph& g, const RunResult<uint32_t>& r, Dir) {
        EXPECT_EQ(r.values, CpuBfsLevels(g, 0));  // min-fold: exact always
      });
}

TEST(DifferentialDeterminismTest, Sssp) {
  SweepAlgorithm(
      [](const Graph& g, const EngineOptions& o) {
        return RunSssp(g, 0, MakeK40(), o);
      },
      [](const Graph& g, const RunResult<uint32_t>& r, Dir) {
        EXPECT_EQ(r.values, CpuDijkstra(g, 0));
      });
}

TEST(DifferentialDeterminismTest, Wcc) {
  SweepAlgorithm(
      [](const Graph& g, const EngineOptions& o) {
        return RunWcc(g, MakeK40(), o);
      },
      [](const Graph& g, const RunResult<uint32_t>& r, Dir) {
        EXPECT_EQ(r.values, CpuWccLabels(g));
      });
}

TEST(DifferentialDeterminismTest, KCore) {
  SweepAlgorithm(
      [](const Graph& g, const EngineOptions& o) {
        return RunKCore(g, 4, MakeK40(), o);
      },
      [](const Graph& g, const RunResult<KCoreValue>& r, Dir) {
        const std::vector<bool> expected = CpuKCoreRemoved(g, 4);
        for (VertexId v = 0; v < g.vertex_count(); ++v) {
          EXPECT_EQ(r.values[v].removed != 0, expected[v]) << "vertex " << v;
        }
      });
}

TEST(DifferentialDeterminismTest, PageRank) {
  SweepAlgorithm(
      [](const Graph& g, const EngineOptions& o) {
        return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-10);
      },
      [](const Graph& g, const RunResult<PageRankValue>& r, Dir) {
        const std::vector<double> expected = CpuPageRank(g, 0.85, 1e-12);
        for (VertexId v = 0; v < g.vertex_count(); ++v) {
          EXPECT_NEAR(r.values[v].rank, expected[v], 1e-6) << "vertex " << v;
        }
      });
}

TEST(DifferentialDeterminismTest, Bp) {
  SweepAlgorithm(
      [](const Graph& g, const EngineOptions& o) {
        return RunBp(g, 10, MakeK40(), o);
      },
      [](const Graph& g, const RunResult<double>& r, Dir dir) {
        if (dir == Dir::kForcePush) {
          // BP's Apply REPLACES the belief with prior + combined, so the
          // per-record push drain (last record wins) is deterministic but
          // not the sum-product fixpoint — only the pre-combined push and
          // the pull gathers compute BP. The differential gate above still
          // covers force_push; the oracle check only applies to gathers.
          return;
        }
        const std::vector<double> expected = CpuBp(g, 10);
        for (VertexId v = 0; v < g.vertex_count(); ++v) {
          EXPECT_NEAR(r.values[v], expected[v], 1e-9) << "vertex " << v;
        }
      });
}

// Deterministic SpMV input vector.
std::vector<double> SpmvInput(const Graph& g) {
  std::vector<double> x(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    x[v] = 1.0 / (1.0 + v);
  }
  return x;
}

TEST(DifferentialDeterminismTest, Spmv) {
  SweepAlgorithm(
      [](const Graph& g, const EngineOptions& o) {
        return RunSpmv(g, SpmvInput(g), MakeK40(), o);
      },
      [](const Graph& g, const RunResult<SpmvValue>& r, Dir dir) {
        if (dir == Dir::kForcePush) {
          // Replace-style Apply, same caveat as BP below: only the gathers
          // (and the pre-combined push, tested separately) compute y = A x.
          return;
        }
        const std::vector<double> expected = CpuSpmv(g, SpmvInput(g));
        for (VertexId v = 0; v < g.vertex_count(); ++v) {
          EXPECT_NEAR(r.values[v].y, expected[v], 1e-9) << "vertex " << v;
        }
      });
}

// The pre-combined push drain actually REPAIRS the two replace-style
// programs in push mode: one Apply per destination receives the full fold,
// so forced-push BP and SpMV agree with their pull oracles (up to
// record-order reassociation of the sum) — evidence the fold covers every
// record.
TEST(DifferentialDeterminismTest, PreCombinedPushBpMatchesOracle) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g =
        Graph::FromEdges(GenerateUniformRandom(200, 1200, seed), false);
    const auto r =
        RunBp(g, 10, MakeK40(), Options(3, Dir::kForcePush, Mode::kPreCombine));
    ASSERT_TRUE(r.stats.ok());
    const std::vector<double> expected = CpuBp(g, 10);
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      EXPECT_NEAR(r.values[v], expected[v], 1e-9)
          << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(DifferentialDeterminismTest, PreCombinedPushSpmvMatchesOracle) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g =
        Graph::FromEdges(GenerateUniformRandom(200, 1200, seed), false);
    const std::vector<double> x = SpmvInput(g);
    const auto r = RunSpmv(g, x, MakeK40(),
                           Options(3, Dir::kForcePush, Mode::kPreCombine));
    ASSERT_TRUE(r.stats.ok());
    const std::vector<double> expected = CpuSpmv(g, x);
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      EXPECT_NEAR(r.values[v].y, expected[v], 1e-9)
          << "seed " << seed << " vertex " << v;
    }
  }
}

}  // namespace
}  // namespace simdx
