// Self-test of the e2e harness rules (run.sh --selftest). Names every failed
// expectation and exits 1 if there was one.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "harness.h"

namespace simdx::e2e {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void PercentileRule() {
  Expect(!Supports(99, 0.9), "p90 of 99 samples has only 9 beyond");
  Expect(Supports(100, 0.9), "p90 of 100 samples has 10 beyond");
  Expect(!Supports(999, 0.99), "p99 of 999 samples has only 9 beyond");
  Expect(Supports(1000, 0.99), "p99 of 1000 samples has 10 beyond");
  Expect(!Supports(19, 0.5) && Supports(20, 0.5), "the median needs 20 samples");

  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) {
    ramp.push_back(i);
  }
  Expect(Quantile(ramp, 0.5) == 50, "nearest-rank median of 1..100 is 50");
  Expect(Quantile(ramp, 0.9) == 90, "nearest-rank p90 of 1..100 is 90");
  Expect(Quantile(ramp, 0.99) == 99, "nearest-rank p99 of 1..100 is 99");
  Expect(Quantile({}, 0.5) == 0, "quantile of nothing is 0");
  Expect(Quantile({7}, 0.99) == 7, "quantile of one sample is that sample");
}

void KindQuantiles() {
  // Two kinds 1:1, around 2 and 8: the median of all samples lands on
  // whichever mode holds the middle rank, each kind's median does not move.
  std::vector<double> fast(50, 2.0), slow(50, 8.0);
  std::vector<double> all = fast;
  all.insert(all.end(), slow.begin(), slow.end());
  all.push_back(2.0);
  Expect(Quantile(all, 0.5) == 2.0, "one extra fast sample pulls the mixed median to 2");
  all.back() = 8.0;
  Expect(Quantile(all, 0.5) == 8.0, "one extra slow sample pushes it to 8");
  size_t n = 0;
  fast.push_back(2.0);
  Expect(KindQuantile({fast, slow}, 0.5, &n) == 5.0 && n == 50,
         "the kind-averaged median is 5 and rests on the smaller kind");
  Expect(KindQuantile({slow}, 0.9) == Quantile(slow, 0.9),
         "with one kind it is the plain quantile");
  Expect(KindQuantile({{}, slow}, 0.5) == 8.0, "kinds never asked are skipped");
  Expect(KindQuantile({}, 0.5) == 0.0, "no kinds give 0");
}

void FailuresAreInfinite() {
  std::vector<double> lat(100, 1.0);
  lat[3] = kFailed;
  Expect(Quantile(lat, 0.99) == 1.0, "one failure in 100 leaves p99 finite");
  lat[4] = kFailed;
  Expect(std::isinf(Quantile(lat, 0.99)), "two failures in 100 make p99 infinite");
  Expect(Quantile(lat, 0.5) == 1.0, "failures sort last, the median holds");
}

void Samplers() {
  Rng a(42), b(42), c(43);
  bool same = true, differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    same = same && x == b.Next();
    differs = differs || x != c.Next();
  }
  Expect(same, "Rng is deterministic per seed");
  Expect(differs, "Rng streams differ across seeds");
  Expect(SubSeed(1, "graph") != SubSeed(1, "sources"), "sub-seeds differ by purpose");
  Expect(SubSeed(1, "graph") == SubSeed(1, "graph"), "sub-seeds are stable");

  std::vector<uint32_t> pool(1000);
  for (uint32_t i = 0; i < pool.size(); ++i) {
    pool[i] = i;
  }
  Rng s1(7), s2(7), s3(8);
  const auto p1 = ShuffledCopy(pool, s1);
  Expect(p1 == ShuffledCopy(pool, s2), "without-replacement draws repeat per seed");
  Expect(p1 != ShuffledCopy(pool, s3), "without-replacement draws differ across seeds");
  Expect(std::set<uint32_t>(p1.begin(), p1.end()).size() == pool.size(),
         "without-replacement draws never repeat an element");

  ZipfSampler zipf(2048, 1.0);
  Rng z1(9), z2(9);
  std::vector<uint32_t> counts(2048);
  bool zipf_same = true;
  for (int i = 0; i < 200000; ++i) {
    const uint32_t r = zipf.Next(z1);
    zipf_same = zipf_same && r == zipf.Next(z2);
    Expect(r < 2048, "Zipf ranks stay in range");
    ++counts[r];
  }
  Expect(zipf_same, "Zipf draws repeat per seed");
  // P(rank 0) = 1 / H(2048) ~ 0.1203 and P(0) / P(1) = 2 for s = 1.
  Expect(std::fabs(counts[0] / 200000.0 - 0.1203) < 0.005, "Zipf rank 0 share");
  Expect(std::fabs(static_cast<double>(counts[0]) / counts[1] - 2.0) < 0.1,
         "Zipf(1) halves from rank 0 to rank 1");

  Rng p(11);
  const auto due = PoissonArrivals(1000.0, 10000.0, p);
  Expect(std::fabs(static_cast<double>(due.size()) - 10000.0) < 400, "Poisson count");
  bool sorted = true;
  for (size_t i = 1; i < due.size(); ++i) {
    sorted = sorted && due[i] >= due[i - 1];
  }
  Expect(sorted && due.back() < 10000.0, "arrivals are ordered and inside the phase");
}

void LatenessAccounting() {
  Lateness l;
  for (int i = 0; i < 99; ++i) {
    l.Add(0.1);
  }
  l.Add(-0.5);  // early sends count as on time
  Expect(l.P99() == 0.1 && l.Valid(1.0), "on-time generator is valid");
  for (int i = 0; i < 5; ++i) {
    l.Add(3.0);
  }
  Expect(l.P99() == 3.0 && !l.Valid(1.0), "late generator invalidates the run");
}

}  // namespace
}  // namespace simdx::e2e

int main() {
  using namespace simdx::e2e;
  PercentileRule();
  KindQuantiles();
  FailuresAreInfinite();
  Samplers();
  LatenessAccounting();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d expectation(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all harness rules hold\n");
  return 0;
}
