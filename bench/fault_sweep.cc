// Survivability cost harness for the checkpoint/resume + fault-injection
// layer: what does it cost to make a run killable, and what does recovery
// buy over starting from scratch?
//
// For each sample (BFS, SSSP, and a pre-combined BFS covering the
// per-destination contract) on an RMAT graph the harness reports, as JSON:
//
//   - hooks overhead: the engine's push-stage wall clock (profiled
//     collect_ms + replay_ms, min over repeats) with NO RunControl at all
//     vs. a control plane that is armed but inert — a live CancelToken that
//     is never cancelled plus a FaultRegistry whose only fault sits at an
//     unreachable iteration. This prices the permanent cost of having the
//     control plane compiled in: the zero-fault hot path is supposed to be
//     a branch-on-null, so the ratio must stay ~1.
//   - checkpoint write cost: checkpoint_every=1, the sink serializes every
//     snapshot — ms per iteration spent serializing, snapshot bytes, and
//     the whole-run wall overhead vs. the unobserved run.
//   - restore cost: Deserialize + Validate of the final snapshot bytes
//     (min over repeats) — the price of coming back from disk.
//   - recovery value: a one-shot iteration-start fault at the midpoint,
//     driven through RobustRun (checkpoint every iteration, 2 attempts):
//     recovery wall clock vs. the from-scratch wall clock.
//
// Every variant's StatsFingerprint must equal the unobserved run's — the
// harness exits non-zero on any divergence (checkpointing, inert hooks and
// resume are observers, never participants).
//
//   fault_sweep [--scale N] [--edge-factor N] [--seed N] [--threads N]
//               [--repeats N] [--json out.json] [--smoke]
//
// --smoke: CI gate — scale 10, repeats 2. Additionally enforces the hooks
// overhead gate (stage-time ratio <= 1.01) when bench::SpeedupGateEnabled(4)
// holds (>= 4 cores, sanitizer-free build); on smaller or sanitized hosts
// the gate prints the skip reason and is waived while every fingerprint
// assertion still runs.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algos/algos.h"
#include "common.h"
#include "core/checkpoint.h"
#include "core/control.h"
#include "core/engine.h"
#include "core/fault.h"
#include "core/robust.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "simt/device.h"

namespace simdx {
namespace {

// Hooks-overhead ceiling (smoke, gate-enabled hosts only): armed-but-inert
// control may cost at most 1% of push-stage wall time.
constexpr double kMaxHookOverheadRatio = 1.01;

struct Args {
  uint32_t scale = 14;
  uint32_t edge_factor = 8;
  uint64_t seed = 42;
  uint32_t threads = 4;
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
    } else if (a == "--threads") {
      args.threads = bench::ParseU32Flag(
          bench::RequireFlagValue(argc, argv, i, "--threads"), "--threads");
    } else if (a == "--repeats") {
      args.repeats = bench::ParseU32Flag(
          bench::RequireFlagValue(argc, argv, i, "--repeats"), "--repeats");
    } else if (a == "--json") {
      args.json_path = bench::RequireFlagValue(argc, argv, i, "--json");
    } else if (a == "--smoke") {
      args.smoke = true;
      args.scale = 12;  // same smoke scale as push_replay
      args.repeats = 2;
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "usage: " << argv[0]
          << " [--scale N] [--edge-factor N] [--seed N] [--threads N]"
             " [--repeats N] [--json out.json] [--smoke]\n\n"
             "Control-plane overhead + fault-injection recovery sweep on an\n"
             "RMAT graph. --smoke shrinks the graph and enforces the hook\n"
             "overhead gate. JSON (stdout, and --json <path>):\n"
             "{graph: {vertices, edges, rmat_scale, seed}, host_threads,\n"
             " hook_gate_enforced, runs: [{algo, contract, iterations,\n"
             "  plain_wall_ms, stage_ms_control_absent, stage_ms_control_inert,\n"
             "  hook_overhead_ratio, checkpoints, snapshot_bytes,\n"
             "  serialize_ms_per_iter, checkpointed_wall_ms, restore_ms,\n"
             "  fault_iteration, recovery_wall_ms, recovery_vs_scratch,\n"
             "  fingerprints_ok}]}\n";
      std::exit(0);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--scale N] [--edge-factor N] [--seed N] [--threads N]"
                   " [--repeats N] [--json out.json] [--smoke] [--help]\n";
      std::exit(2);
    }
  }
  return args;
}

struct Sample {
  std::string algo;
  StatsContract contract = StatsContract::kPerRecord;
  uint32_t iterations = 0;
  // Unobserved run (the oracle): wall + profiled push-stage time.
  double plain_wall_ms = 1e300;
  double stage_absent_ms = 1e300;
  // Armed-but-inert control plane: same stage time, hooks live.
  double stage_inert_ms = 1e300;
  // Checkpointing at every iteration.
  uint32_t checkpoints = 0;
  uint64_t snapshot_bytes = 0;
  double serialize_ms_per_iter = 0.0;
  double checkpointed_wall_ms = 1e300;
  // Restore (Deserialize + Validate) of the final snapshot.
  double restore_ms = 1e300;
  // Mid-run kill + RobustRun recovery vs. the from-scratch wall.
  uint32_t fault_iteration = 0;
  double recovery_wall_ms = 0.0;
  bool fingerprints_ok = true;
};

EngineOptions BenchOptions(const Args& args, bool pre_combine) {
  EngineOptions o;
  o.host_threads = args.threads;
  o.force_push = true;  // keep every iteration on the profiled push path
  o.profile_push_replay = true;
  o.pre_combine_replay = pre_combine;
  return o;
}

double StageMs(const PushReplayProfile& p) {
  return p.collect_ms + p.replay_ms;
}

template <typename Program>
void Measure(const std::string& algo, const Graph& g, const Program& program,
             const EngineOptions& options, const Args& args,
             std::vector<Sample>& out) {
  Sample s;
  s.algo = algo;

  // 1. Unobserved oracle: fingerprint + wall + push-stage split.
  std::string oracle;
  for (uint32_t rep = 0; rep < args.repeats; ++rep) {
    Engine<Program> engine(g, MakeK40(), options);
    const double t0 = bench::HostNowMs();
    const auto r = engine.Run(program);
    const double wall = bench::HostNowMs() - t0;
    if (oracle.empty()) {
      oracle = bench::StatsFingerprint(r);
      s.contract = r.stats.contract;
      s.iterations = r.stats.iterations;
    } else if (bench::StatsFingerprint(r) != oracle) {
      std::cerr << "NON-DETERMINISM within " << algo << " baseline\n";
      std::exit(1);
    }
    s.plain_wall_ms = std::min(s.plain_wall_ms, wall);
    s.stage_absent_ms = std::min(s.stage_absent_ms, StageMs(engine.push_profile()));
  }

  // 2. Armed-but-inert control plane: a cancel token nobody cancels and a
  // fault that can never fire. The hot path must stay a branch-on-null (the
  // registry is consulted, the token polled — but nothing ever triggers).
  CancelToken idle_token;
  FaultRegistry inert;
  {
    ArmedFault unreachable;
    unreachable.point = FaultPoint::kIterationStart;
    unreachable.iteration = 0xFFFFFFFFu;
    inert.Arm(unreachable);
  }
  for (uint32_t rep = 0; rep < args.repeats; ++rep) {
    RunControl control;
    control.cancel = &idle_token;
    control.faults = &inert;
    Engine<Program> engine(g, MakeK40(), options);
    const auto r = engine.Run(program, control);
    s.fingerprints_ok &= bench::StatsFingerprint(r) == oracle;
    s.stage_inert_ms = std::min(s.stage_inert_ms, StageMs(engine.push_profile()));
  }

  // 3. Checkpoint every iteration; the sink serializes each snapshot the way
  // a persisting service would, and keeps the final blob for the restore
  // timing below.
  std::vector<uint8_t> last_blob;
  {
    double serialize_ms = 0.0;
    uint32_t count = 0;
    RunControl control;
    control.checkpoint_every = 1;
    control.on_checkpoint = [&](const Checkpoint& cp) {
      std::vector<uint8_t> bytes;
      const double t0 = bench::HostNowMs();
      cp.Serialize(&bytes);
      serialize_ms += bench::HostNowMs() - t0;
      ++count;
      last_blob = std::move(bytes);
      return true;
    };
    const double t0 = bench::HostNowMs();
    Engine<Program> engine(g, MakeK40(), options);
    const auto r = engine.Run(program, control);
    s.checkpointed_wall_ms = bench::HostNowMs() - t0;
    s.fingerprints_ok &= bench::StatsFingerprint(r) == oracle;
    s.checkpoints = count;
    s.snapshot_bytes = last_blob.size();
    s.serialize_ms_per_iter = count ? serialize_ms / count : 0.0;
    if (r.stats.checkpoints_written != count) {
      std::cerr << "CHECKPOINT MISCOUNT in " << algo << ": engine says "
                << r.stats.checkpoints_written << ", sink saw " << count << "\n";
      std::exit(1);
    }
  }

  // 4. Restore cost: parse + CRC-validate the final snapshot bytes.
  for (uint32_t rep = 0; rep < args.repeats; ++rep) {
    Checkpoint cp;
    const double t0 = bench::HostNowMs();
    const auto status =
        Checkpoint::Deserialize(last_blob.data(), last_blob.size(), &cp, nullptr);
    const bool valid = status == Checkpoint::LoadStatus::kOk && cp.Validate(nullptr);
    s.restore_ms = std::min(s.restore_ms, bench::HostNowMs() - t0);
    if (!valid) {
      std::cerr << "RESTORE FAIL in " << algo << ": "
                << Checkpoint::ToString(status) << "\n";
      std::exit(1);
    }
  }

  // 5. Recovery: kill the run at the midpoint, let RobustRun resume it from
  // the checkpoint trail, and price the whole died-and-recovered episode
  // against the from-scratch wall clock.
  {
    s.fault_iteration = std::max(1u, s.iterations / 2);
    FaultRegistry faults;
    ArmedFault kill;
    kill.point = FaultPoint::kIterationStart;
    kill.iteration = s.fault_iteration;
    faults.Arm(kill);
    RobustRunOptions opts;
    opts.checkpoint_every = 1;
    opts.max_attempts = 2;
    opts.faults = &faults;
    Engine<Program> engine(g, MakeK40(), options);
    const double t0 = bench::HostNowMs();
    const auto r = RobustRun(engine, program, opts);
    s.recovery_wall_ms = bench::HostNowMs() - t0;
    if (r.stats.outcome != RunOutcome::kResumed || r.stats.resumes != 1) {
      std::cerr << "RECOVERY FAIL in " << algo << ": outcome="
                << ToString(r.stats.outcome) << " resumes=" << r.stats.resumes
                << "\n";
      std::exit(1);
    }
    s.fingerprints_ok &= bench::StatsFingerprint(r) == oracle;
  }

  const double hook_ratio =
      s.stage_absent_ms > 0.0 ? s.stage_inert_ms / s.stage_absent_ms : 1.0;
  std::cerr << algo << " iters=" << s.iterations
            << " contract=" << ToString(s.contract)
            << " wall=" << s.plain_wall_ms << "ms"
            << " stage absent=" << s.stage_absent_ms
            << "ms inert=" << s.stage_inert_ms << "ms (x" << hook_ratio << ")"
            << " ckpt=" << s.serialize_ms_per_iter << "ms/iter "
            << s.snapshot_bytes << "B restore=" << s.restore_ms
            << "ms recovery=" << s.recovery_wall_ms << "ms"
            << (s.fingerprints_ok ? "" : " FINGERPRINT-DIVERGED") << "\n";
  out.push_back(std::move(s));
}

}  // namespace
}  // namespace simdx

int main(int argc, char** argv) {
  using namespace simdx;
  Args args = Parse(argc, argv);
  bench::WarnIfSingleCore();

  // Hooks-overhead gate (smoke only): waived on small or sanitized hosts —
  // the fingerprint assertions run everywhere regardless.
  const bool hook_gate = args.smoke && bench::SpeedupGateEnabled(4);
  if (hook_gate && args.repeats < 5) {
    args.repeats = 5;  // min-of-5 for a stable 1% comparison
  }

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
    Measure("bfs", g, program, BenchOptions(args, false), args, samples);
    // Same program under the per-destination contract: checkpoint/resume and
    // the inert hooks must be observers there too.
    Measure("bfs_pre_combine", g, program, BenchOptions(args, true), args,
            samples);
  }
  {
    SsspProgram program;
    program.source = source;
    Measure("sssp", g, program, BenchOptions(args, false), args, samples);
  }

  bool fingerprints_ok = true;
  bool hooks_ok = true;
  for (const Sample& s : samples) {
    if (!s.fingerprints_ok) {
      fingerprints_ok = false;
      std::cerr << "SURVIVABILITY FAIL: " << s.algo
                << " diverged from the unobserved run\n";
    }
    const double ratio =
        s.stage_absent_ms > 0.0 ? s.stage_inert_ms / s.stage_absent_ms : 1.0;
    if (hook_gate && ratio > kMaxHookOverheadRatio) {
      hooks_ok = false;
      std::cerr << "HOOK OVERHEAD FAIL: " << s.algo << " push stages "
                << s.stage_absent_ms << "ms -> " << s.stage_inert_ms
                << "ms with inert control (x" << ratio << " > "
                << kMaxHookOverheadRatio << ")\n";
    }
  }

  std::ostringstream json;
  json.precision(6);
  json << std::fixed;
  json << "{\n  \"graph\": {\"vertices\": " << g.vertex_count()
       << ", \"edges\": " << g.edge_count() << ", \"rmat_scale\": " << args.scale
       << ", \"seed\": " << args.seed
       << "},\n  \"host_threads\": " << args.threads
       << ",\n  \"hook_gate_enforced\": " << (hook_gate ? "true" : "false")
       << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const double ratio =
        s.stage_absent_ms > 0.0 ? s.stage_inert_ms / s.stage_absent_ms : 1.0;
    const double recovery_ratio =
        s.plain_wall_ms > 0.0 ? s.recovery_wall_ms / s.plain_wall_ms : 0.0;
    json << "    {\"algo\": \"" << s.algo << "\", \"contract\": \""
         << ToString(s.contract) << "\", \"iterations\": " << s.iterations
         << ", \"plain_wall_ms\": " << s.plain_wall_ms
         << ", \"stage_ms_control_absent\": " << s.stage_absent_ms
         << ", \"stage_ms_control_inert\": " << s.stage_inert_ms
         << ", \"hook_overhead_ratio\": " << ratio
         << ", \"checkpoints\": " << s.checkpoints
         << ", \"snapshot_bytes\": " << s.snapshot_bytes
         << ", \"serialize_ms_per_iter\": " << s.serialize_ms_per_iter
         << ", \"checkpointed_wall_ms\": " << s.checkpointed_wall_ms
         << ", \"restore_ms\": " << s.restore_ms
         << ", \"fault_iteration\": " << s.fault_iteration
         << ", \"recovery_wall_ms\": " << s.recovery_wall_ms
         << ", \"recovery_vs_scratch\": " << recovery_ratio
         << ", \"fingerprints_ok\": " << (s.fingerprints_ok ? "true" : "false")
         << "}" << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << json.str();
    std::cerr << "wrote " << args.json_path << "\n";
  }
  std::cout << json.str();
  return fingerprints_ok && hooks_ok ? 0 : 1;
}
