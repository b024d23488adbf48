// Measurement rules shared by every e2e workload: the percentile rule,
// seeded samplers, the open-loop arrival schedule, generator lateness and the
// metric report. Everything here is pure and deterministic per seed, so
// simdx_e2e_selftest pins it without a graph or a socket.
#ifndef SIMDX_BENCH_E2E_HARNESS_H_
#define SIMDX_BENCH_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace simdx::e2e {

using Clock = std::chrono::steady_clock;

// Milliseconds between two steady-clock points.
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// A failed operation's latency: it misses every limit.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

// ---- percentiles ----

// Nearest-rank quantile: the smallest sample with at least ceil(q * n)
// samples at or below it. Infinite samples (failures) sort last, so a
// quantile that lands on one is infinite. Empty input gives 0.
double Quantile(std::vector<double> samples, double q);

// A percentile q is reportable from n samples only when at least ten samples
// lie beyond its nearest rank.
bool Supports(size_t n, double q);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// Quantile q of each group's samples, averaged over the non-empty groups. A
// traffic mix of kinds with far-apart latencies (serve-mixed: BFS and SSSP,
// 1:1) puts the median of all requests in the gap between the modes, where it
// jumps with the exact share each kind drew; each kind's own quantile does
// not. With one group this is the plain quantile. *min_n, if given, receives
// the smallest group's sample count, on which the quantile's support rests.
double KindQuantile(const std::vector<std::vector<double>>& groups, double q,
                    size_t* min_n = nullptr);

// ---- seeded sampling ----

// splitmix64: tiny, fast and identical on every platform, unlike the
// standard library's distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();                    // [0, 1)
  uint64_t Below(uint64_t n);          // [0, n), n > 0
  double Exponential(double rate);     // mean 1 / rate

 private:
  uint64_t state_;
};

// Derives an independent stream for one purpose from the run seed, so adding
// a consumer never shifts the draws of another.
uint64_t SubSeed(uint64_t seed, const char* purpose);

// A seeded permutation of `pool`: taking the first k elements draws k without
// replacement.
std::vector<uint32_t> ShuffledCopy(std::vector<uint32_t> pool, Rng& rng);

// Zipf(s) over ranks [0, n): P(rank r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double s);
  uint32_t Next(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Poisson arrivals: due offsets in ms from the phase start, at `rate` per
// second, strictly inside [0, duration_ms).
std::vector<double> PoissonArrivals(double rate, double duration_ms, Rng& rng);

// ---- generator lateness ----

// How late an open-loop generator sent each request relative to its due
// time; a run whose p99 lateness exceeds the budget measured its own
// scheduling jitter, not the system.
class Lateness {
 public:
  void Add(double late_ms) { late_ms_.push_back(late_ms < 0 ? 0 : late_ms); }
  double P99() const { return Quantile(late_ms_, 0.99); }
  bool Valid(double budget_ms) const { return P99() <= budget_ms; }
  size_t count() const { return late_ms_.size(); }

 private:
  std::vector<double> late_ms_;
};

// ---- report ----

struct MetricDef {
  const char* name;
  const char* unit;
};

// The fixed metric lists; BENCHMARK.json lists the same names and units.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// One run's output. Untraced runs report every end-to-end metric, traced runs
// every per-layer metric; a per-layer metric whose layer the workload never
// reaches reads 0.
class Report {
 public:
  void Set(const std::string& name, double value, uint64_t n);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  uint64_t Count(const std::string& name) const;  // the sample count n

  bool correct = true;  // every checked answer and identity held
  bool valid = true;    // the harness measured the system, not itself
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Human-readable table with sample counts (stderr).
  void PrintTable(bool traced) const;
  // The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json(bool traced) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    uint64_t n = 0;
  };
  std::vector<Entry> entries_;
};

}  // namespace simdx::e2e

#endif  // SIMDX_BENCH_E2E_HARNESS_H_
