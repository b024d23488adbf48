// Shared harness utilities for the per-table/per-figure benchmark binaries.
// Every binary prints an aligned text table mirroring the paper's rows and,
// with --csv <path>, also writes machine-readable output.
#ifndef SIMDX_BENCH_COMMON_H_
#define SIMDX_BENCH_COMMON_H_

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "core/result.h"
#include "graph/graph.h"
#include "graph/presets.h"
#include "simt/device.h"

namespace simdx::bench {

// Parsed command line: --csv <path> to dump CSV, --graphs FB,ER,... to
// restrict the preset set (speeds up smoke runs), --quick for a reduced
// sweep where a binary supports it.
struct BenchArgs {
  std::optional<std::string> csv_path;
  std::vector<std::string> graphs;  // empty = all presets
  bool quick = false;
};

// help_schema, when given, is printed under the flag list by --help: a short
// description of the binary plus its table/CSV column schema. --help exits 0;
// an unknown flag prints the usage to stderr and exits 2.
BenchArgs ParseArgs(int argc, char** argv, const char* help_schema = nullptr);

// Presets selected by the args (defaults to the paper's 11).
std::vector<std::string> SelectedPresets(const BenchArgs& args);

// Caches LoadPreset results so multi-experiment binaries build each graph
// once.
const Graph& CachedPreset(const std::string& abbrev);

// Traversal source: the highest-out-degree vertex (synthetic generators can
// leave low ids isolated; starting from a hub matches the paper's setup of
// traversing the giant component).
VertexId DefaultSource(const Graph& g);

// ---- table rendering ----

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Prints aligned columns to stdout with a title banner.
  void Print(const std::string& title) const;
  // Writes CSV (headers + rows) if path is set.
  void WriteCsv(const std::optional<std::string>& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats helpers.
std::string Ms(double ms);               // "12.34"
std::string Speedup(double x);           // "3.2x"
std::string Count(uint64_t n);           // grouped digits
std::string CellOrDash(bool present, const std::string& cell);  // "-" for OOM

// Memory budget scaled to the preset family (Table 4 OOM modelling): the
// device's global memory divided by the ~1000x graph-scale factor.
size_t ScaledMemoryBudget(const DeviceSpec& device);

// Projects a run's time from the 1/1000-scale presets back to paper scale:
// the parallel portion grows with the graph, the serial overheads (launches,
// barriers, per-iteration sync) do not. Iteration counts and control flow
// are scale-invariant for these workloads, so the projection is affine and
// exact under the cost model.
double PaperScaleMs(const RunStats& stats);

// Geometric mean of ratios, ignoring non-positive entries.
double GeoMean(const std::vector<double>& values);

// ---- host-runtime bench helpers (host_scaling, push_replay) ----

// Host wall clock in milliseconds (steady clock) — these benches measure the
// simulator itself, unlike the simulated times above.
double HostNowMs();

// The value token following flag argv[i], advancing i past it. A known flag
// arriving as the LAST token exits(2) with "flag X requires a value" — NOT
// the unknown-flag usage blurb: before this helper, every parser guarded
// value flags with `i + 1 < argc` in the match condition, so `--seed` as a
// trailing token fell through to the unknown-flag branch and the error
// message blamed the wrong thing.
const char* RequireFlagValue(int argc, char** argv, int& i, const char* flag);

// Strict uint32 parse; exits(2) with a message naming `flag` on failure.
uint32_t ParseU32Flag(const std::string& s, const char* flag);

// Strict uint64 parse (full-range generator seeds); exits(2) on failure.
uint64_t ParseU64Flag(const std::string& s, const char* flag);

// Strict double parse: the whole token must be one finite number ("5x",
// "nan", "inf" and " 5" all fail); exits(2) with a message naming `flag`.
double ParseDoubleFlag(const std::string& s, const char* flag);

// ParseDoubleFlag for a rate that must be > 0 (exits(2) otherwise).
double ParsePositiveFlag(const std::string& s, const char* flag);

// ParseDoubleFlag for a fraction that must lie in [0, 1] (exits(2) otherwise).
double ParseFractionFlag(const std::string& s, const char* flag);

// Comma-separated thread list, e.g. "1,2,4,8".
std::vector<uint32_t> ParseThreadList(const std::string& s, const char* flag);

// stderr warning for the flat-curve trap: on a ≤1-core host every thread
// count time-slices the same core, so speedups are meaningless (the
// determinism gates remain valid).
void WarnIfSingleCore();

// Whether wall-clock SPEEDUP gates should be enforced on this host: true
// only with >= min_cores hardware threads AND a non-sanitizer build (TSan
// serializes enough that parallel-stage speedups are not meaningful). When
// returning false it prints the skip reason to stderr — on a 1-core runner
// that is the WarnIfSingleCore story: the determinism gates still run, the
// speedup expectation is waived (exit 0 as far as this gate is concerned).
bool SpeedupGateEnabled(uint32_t min_cores);

// True when this binary was built with ANY sanitizer (TSan, ASan, UBSan via
// the ASan feature probe, MSan). Wall-clock RATIO gates calibrated on
// release builds (codec overhead, hooks overhead) are waived under
// sanitizers: instrumentation multiplies memcpy-ish costs far more than
// engine compute, so the ratio measures the sanitizer, not the code.
// Correctness gates are never waived.
bool SanitizedBuild();

// Smoke-mode arming shared by host_scaling and push_replay: when
// SpeedupGateEnabled(4) holds, extends `threads` to include a 4-thread
// sample and bumps `repeats` to at least 2 (best-of timing stability), then
// returns true — the caller enforces its minimum speedup. Returns false
// (inputs untouched) when the gate is waived.
bool ArmSmokeSpeedupGate(std::vector<uint32_t>& threads, uint32_t& repeats);

// The ONE stats fingerprint (hoisted to core/fingerprint.h so the resident
// query service's containment oracle shares the exact definition the bench
// determinism gates freeze); re-exported here to keep bench call sites and
// the one-definition discipline unchanged.
using simdx::StatsFingerprint;

}  // namespace simdx::bench

#endif  // SIMDX_BENCH_COMMON_H_
