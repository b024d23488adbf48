#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <utility>

namespace simdx::e2e {

namespace {

// 1-based nearest rank of quantile q among n > 0 samples. The epsilon keeps
// q * n from rounding up past an exact rank (0.9 * 100 is not 90 in binary).
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(rank < 1.0 ? 1 : static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), q) - 1];
}

bool Supports(size_t n, double q) {
  return n > 0 && n - NearestRank(n, q) >= 10;
}

double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double KindQuantile(const std::vector<std::vector<double>>& groups, double q,
                    size_t* min_n) {
  double sum = 0.0;
  size_t used = 0;
  size_t smallest = 0;
  for (const auto& g : groups) {
    if (g.empty()) {
      continue;
    }
    sum += Quantile(g, q);
    smallest = used == 0 ? g.size() : std::min(smallest, g.size());
    ++used;
  }
  if (min_n != nullptr) {
    *min_n = smallest;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

double Rng::Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }

uint64_t SubSeed(uint64_t seed, const char* purpose) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (const char* p = purpose; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ull;
  }
  return Rng(h).Next();
}

std::vector<uint32_t> ShuffledCopy(std::vector<uint32_t> pool, Rng& rng) {
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Below(i)]);
  }
  return pool;
}

ZipfSampler::ZipfSampler(uint32_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

uint32_t ZipfSampler::Next(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1));
}

std::vector<double> PoissonArrivals(double rate, double duration_ms, Rng& rng) {
  std::vector<double> due;
  if (rate <= 0.0) {
    return due;
  }
  double t = rng.Exponential(rate) * 1000.0;
  while (t < duration_ms) {
    due.push_back(t);
    t += rng.Exponential(rate) * 1000.0;
  }
  return due;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"lat_ms_p50", "ms"},
      {"lat_ms_p90", "ms"},
      {"ops_per_s", "1/s"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"graph.read_ms", "ms"},
      {"graph.build_ms", "ms"},
      {"graph.csr_mb", "MB"},
      {"engine.iters_per_job", "count"},
      {"engine.us_per_iter", "us"},
      {"engine.push.collect_ms", "ms"},
      {"engine.push.replay_ms", "ms"},
      {"engine.push.partitioned_frac", "ratio"},
      {"engine.push.records_per_job", "count"},
      {"engine.other_ms", "ms"},
      {"engine.pull_iter_frac", "ratio"},
      {"engine.ballot_iter_frac", "ratio"},
      {"engine.host_meps", "Medges/s"},
      {"pool.submits_per_job", "count"},
      {"pool.contended_frac", "ratio"},
      {"sim.gpu_ms", "ms"},
      {"sim.coalesced_words", "count"},
      {"sim.scattered_words", "count"},
      {"sim.atomic_ops", "count"},
      {"sim.alu_ops", "count"},
      {"sim.kernel_launches", "count"},
      {"sim.barrier_crossings", "count"},
      {"service.queue_ms_p50", "ms"},
      {"service.queue_ms_p99", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.run_ms_p99", "ms"},
      {"service.cache_hit_frac", "ratio"},
      {"service.batched_frac", "ratio"},
      {"service.batch_size_mean", "count"},
      {"service.shed_frac", "ratio"},
      {"service.retries", "count"},
      {"service.ladder_transitions", "count"},
      {"service.submit_us_p50", "us"},
      {"service.submit_us_p99", "us"},
      {"codec.encode_us", "us"},
      {"codec.decode_us", "us"},
      {"codec.req_bytes", "bytes"},
      {"codec.resp_bytes", "bytes"},
      {"transport.ms_p50", "ms"},
      {"transport.ms_p99", "ms"},
      {"transport.nonneg_frac", "ratio"},
      {"transport.direct_gap_ms", "ms"},
      {"server.rejects", "count"},
      {"server.decode_errors", "count"},
      {"load.lat_ms_p50.light", "ms"},
      {"load.lat_ms_p50.bfs", "ms"},
      {"load.lat_ms_p90.bfs", "ms"},
      {"load.lat_ms_p50.sssp", "ms"},
      {"load.lat_ms_p90.sssp", "ms"},
      {"load.attain_frac.heavy", "ratio"},
      {"load.fail_frac", "ratio"},
      {"gen.late_ms_p99", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

void Report::Set(const std::string& name, double value, uint64_t n) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.n = n;
      return;
    }
  }
  entries_.push_back(Entry{name, value, n});
}

bool Report::Has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Report::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return e.value;
    }
  }
  return 0.0;
}

uint64_t Report::Count(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return e.n;
    }
  }
  return 0;
}

namespace {

const std::vector<MetricDef>& MetricsFor(bool traced) {
  return traced ? PerLayerMetrics() : EndToEndMetrics();
}

// JSON has no infinity or NaN; a metric that cannot be finite is a harness
// bug, so it is reported as -1 and the run is marked incorrect by the caller.
double Finite(double v) { return std::isfinite(v) ? v : -1.0; }

}  // namespace

void Report::PrintTable(bool traced) const {
  std::fprintf(stderr, "%-32s %16s  %-9s %s\n", "metric", "value", "unit", "n");
  for (const MetricDef& def : MetricsFor(traced)) {
    double value = 0.0;
    uint64_t n = 0;
    for (const Entry& e : entries_) {
      if (e.name == def.name) {
        value = e.value;
        n = e.n;
      }
    }
    std::fprintf(stderr, "%-32s %16.6g  %-9s %llu\n", def.name, value, def.unit,
                 static_cast<unsigned long long>(n));
  }
  std::fprintf(stderr, "correct=%s attempted=%llu failed=%llu\n",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
}

std::string Report::Json(bool traced) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : MetricsFor(traced)) {
    os << (first ? "" : ", ") << '"' << def.name << "\": {\"value\": "
       << Finite(Get(def.name)) << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace simdx::e2e
