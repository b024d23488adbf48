// Engine workloads: back-to-back jobs through Engine<P>::Run with
// host_threads = 4, one at a time, each timed from outside the call.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "algos/algos.h"
#include "baselines/cpu_reference.h"
#include "core/fingerprint.h"
#include "trace.h"
#include "workloads.h"

namespace simdx::e2e {

namespace {

constexpr uint32_t kHostThreads = 4;
// p90 needs ten samples beyond it, so a run keeps going past --seconds until
// this many jobs are done (up to kMaxOverrun x --seconds).
constexpr size_t kMinJobs = 100;
constexpr double kMaxOverrun = 2.0;
constexpr size_t kWarmupJobs = 2;
// sim.* totals cover this fixed job prefix, so they repeat exactly per seed.
constexpr size_t kSimJobs = 16;
constexpr size_t kSourceCount = 4096;
// The tolerance tests/algos/pagerank_test uses against CpuPageRank.
constexpr double kPageRankTolerance = 1e-7;
constexpr double kPageRankEpsilon = 1e-10;

// What one job leaves behind for the metrics.
struct Job {
  double ms = 0.0;
  bool profiled = false;
  RunStats stats;
  PushReplayProfile profile;
  ThreadPool::SubmitTelemetry pool;  // delta over the job
};

template <typename Program>
RunResult<typename Program::Value> RunJob(const Graph& g, const Program& program,
                                          bool profiled, Job* job) {
  EngineOptions options;
  options.host_threads = kHostThreads;
  options.profile_push_replay = profiled;
  Engine<Program> engine(g, MakeK40(), options);
  auto result = engine.Run(program);
  if (profiled) {
    job->profile = engine.push_profile();
  }
  return result;
}

ThreadPool::SubmitTelemetry Delta(const ThreadPool::SubmitTelemetry& a,
                                  const ThreadPool::SubmitTelemetry& b) {
  return {b.submits - a.submits, b.contended_submits - a.contended_submits,
          b.inline_runs - a.inline_runs};
}

// The input job i runs on. Traced runs run each input twice, profiled and
// not, so trace.overhead_frac compares one input with itself.
size_t InputOf(const RunConfig& cfg, size_t i) { return cfg.traced ? i / 2 : i; }

// Calls run_one(i, profiled, &job), which runs job i and returns its stats,
// back to back until --seconds have passed and at least kMinJobs are done. In
// traced runs jobs 2k and 2k+1 share input k; the profiled one goes first for
// even k and second for odd k, so neither side always runs on a warm cache.
template <typename RunOne>
std::vector<Job> MeasureJobs(const RunConfig& cfg, size_t max_jobs, RunOne run_one) {
  Tracer& tracer = Tracer::Get();
  std::vector<Job> jobs;
  const auto start = Clock::now();
  const double budget_ms = cfg.seconds * 1000.0;
  for (size_t i = 0; i < max_jobs; ++i) {
    const double elapsed = MsBetween(start, Clock::now());
    if ((elapsed >= budget_ms && jobs.size() >= kMinJobs) ||
        elapsed >= budget_ms * kMaxOverrun) {
      break;
    }
    Job job;
    job.profiled = cfg.traced && i % 2 == (i / 2) % 2;
    const auto before = ThreadPool::Global().telemetry();
    const uint64_t span_id = tracer.NewId();
    const auto t0 = Clock::now();
    job.stats = run_one(i, job.profiled, &job);
    const auto t1 = Clock::now();
    job.ms = MsBetween(t0, t1);
    job.pool = Delta(before, ThreadPool::Global().telemetry());
    if (job.profiled) {
      // The push profile gives totals, not timestamps: the children are laid
      // end to end from the job's start, and the rest of the span is
      // engine.other (gathers, filters, classification, control).
      const double s = tracer.ToUs(t0);
      const double collect_us = job.profile.collect_ms * 1000.0;
      const double replay_us = job.profile.replay_ms * 1000.0;
      tracer.Record("engine.job", s, tracer.ToUs(t1), span_id, 0, i + 1);
      tracer.Record("engine.push.collect", s, s + collect_us, tracer.NewId(),
                    span_id, i + 1);
      tracer.Record("engine.push.replay", s + collect_us,
                    s + collect_us + replay_us, tracer.NewId(), span_id, i + 1);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

double CountChar(const std::string& s, char c) {
  return static_cast<double>(std::count(s.begin(), s.end(), c));
}

void ReportJobs(const std::vector<Job>& jobs, const Graph& g, bool traced,
                Report* report) {
  std::vector<double> ms;
  double total_ms = 0.0, iters = 0.0, pulls = 0.0, ballots = 0.0, edges = 0.0,
         records = 0.0, submits = 0.0, contended = 0.0;
  for (const Job& j : jobs) {
    ms.push_back(j.ms);
    total_ms += j.ms;
    iters += j.stats.iterations;
    pulls += CountChar(j.stats.direction_pattern, 'P');
    ballots += CountChar(j.stats.filter_pattern, 'B');
    edges += static_cast<double>(j.stats.total_edges_processed);
    records += static_cast<double>(j.stats.push_records_buffered);
    submits += static_cast<double>(j.pool.submits);
    contended += static_cast<double>(j.pool.contended_submits);
  }
  const auto n = static_cast<uint64_t>(jobs.size());
  const double per_job = jobs.empty() ? 0.0 : 1.0 / static_cast<double>(jobs.size());
  if (!traced) {
    report->Set("lat_ms_p50", Quantile(ms, 0.5), n);
    report->Set("lat_ms_p90", Quantile(ms, 0.9), n);
    report->Set("ops_per_s", total_ms > 0 ? 1000.0 * static_cast<double>(n) / total_ms : 0.0, n);
    return;
  }
  report->Set("engine.iters_per_job", iters * per_job, n);
  report->Set("engine.us_per_iter", iters > 0 ? total_ms * 1000.0 / iters : 0.0, n);
  report->Set("engine.pull_iter_frac", iters > 0 ? pulls / iters : 0.0, n);
  report->Set("engine.ballot_iter_frac", iters > 0 ? ballots / iters : 0.0, n);
  report->Set("engine.host_meps", total_ms > 0 ? edges / (total_ms * 1000.0) : 0.0, n);
  report->Set("engine.push.records_per_job", records * per_job, n);
  report->Set("pool.submits_per_job", submits * per_job, n);
  report->Set("pool.contended_frac", submits > 0 ? contended / submits : 0.0, n);
  report->Set("graph.csr_mb", static_cast<double>(g.CsrFootprintBytes()) / (1 << 20), 1);

  // Push split over the profiled jobs; overhead as the median, over the
  // inputs, of each profiled job against the unprofiled run of its input.
  std::vector<double> ratios;
  for (size_t i = 0; i + 1 < jobs.size(); i += 2) {
    const Job& a = jobs[i];
    const Job& b = jobs[i + 1];
    const double plain_ms = a.profiled ? b.ms : a.ms;
    if (plain_ms > 0) {
      ratios.push_back((a.profiled ? a.ms : b.ms) / plain_ms);
    }
  }
  uint64_t np = 0;
  double collect = 0.0, replay = 0.0, job_ms = 0.0, partitioned = 0.0, drains = 0.0;
  for (const Job& j : jobs) {
    if (!j.profiled) {
      continue;
    }
    ++np;
    collect += j.profile.collect_ms;
    replay += j.profile.replay_ms;
    job_ms += j.ms;
    partitioned += static_cast<double>(j.profile.partitioned_replays);
    drains += static_cast<double>(j.profile.partitioned_replays + j.profile.serial_replays);
  }
  const double per_profiled = np == 0 ? 0.0 : 1.0 / static_cast<double>(np);
  report->Set("engine.push.collect_ms", collect * per_profiled, np);
  report->Set("engine.push.replay_ms", replay * per_profiled, np);
  report->Set("engine.other_ms", (job_ms - collect - replay) * per_profiled, np);
  report->Set("engine.push.partitioned_frac", drains > 0 ? partitioned / drains : 0.0, np);
  report->Set("trace.overhead_frac", ratios.empty() ? 0.0 : Median(ratios) - 1.0,
              ratios.size());

  CostCounters c;
  double sim_ms = 0.0;
  const size_t sim_jobs = std::min(kSimJobs, jobs.size());
  for (size_t i = 0; i < sim_jobs; ++i) {
    c += jobs[i].stats.counters;
    sim_ms += jobs[i].stats.time.ms;
  }
  report->Set("sim.gpu_ms", sim_ms, sim_jobs);
  report->Set("sim.coalesced_words", static_cast<double>(c.coalesced_words), sim_jobs);
  report->Set("sim.scattered_words", static_cast<double>(c.scattered_words), sim_jobs);
  report->Set("sim.atomic_ops", static_cast<double>(c.atomic_ops), sim_jobs);
  report->Set("sim.alu_ops", static_cast<double>(c.alu_ops), sim_jobs);
  report->Set("sim.kernel_launches", static_cast<double>(c.kernel_launches), sim_jobs);
  report->Set("sim.barrier_crossings", static_cast<double>(c.barrier_crossings), sim_jobs);
}

// Traversal jobs (SSSP or BFS) from seeded sources; a seeded sample of the
// answers is compared element for element against the CPU oracle.
template <typename Program>
std::vector<Job> TraversalJobs(const RunConfig& cfg, const Graph& g,
                               const std::vector<VertexId>& sources,
                               std::vector<uint32_t> (*oracle)(const Graph&, VertexId),
                               size_t samples, Report* report) {
  Rng pick(SubSeed(cfg.seed, "check"));
  std::vector<size_t> sample_jobs;
  for (size_t k = 0; k < samples; ++k) {
    sample_jobs.push_back(pick.Below(kMinJobs));
  }
  std::vector<std::pair<size_t, std::vector<uint32_t>>> kept;
  Job scratch;
  for (size_t w = 0; w < kWarmupJobs; ++w) {
    Program p;
    p.source = sources[sources.size() - 1 - w];
    RunJob(g, p, false, &scratch);
  }
  auto jobs = MeasureJobs(cfg, sources.size() - kWarmupJobs,
                          [&](size_t i, bool profiled, Job* job) {
    Program p;
    p.source = sources[InputOf(cfg, i)];
    auto r = RunJob(g, p, profiled, job);
    if (std::find(sample_jobs.begin(), sample_jobs.end(), i) != sample_jobs.end()) {
      kept.emplace_back(i, std::move(r.values));
    }
    return r.stats;
  });
  report->Set("peak_rss_mb", PeakRssMb(), 1);
  for (const auto& [i, values] : kept) {
    const VertexId source = sources[InputOf(cfg, i)];
    if (values != oracle(g, source)) {
      std::fprintf(stderr, "check: job %zu (source %u) differs from the oracle\n", i,
                   source);
      report->correct = false;
      ++report->failed;
    }
  }
  return jobs;
}

std::vector<Job> PageRankJobs(const RunConfig& cfg, const Graph& g, Report* report) {
  PageRankProgram program;
  program.graph = &g;
  program.epsilon = kPageRankEpsilon;
  Job scratch;
  for (size_t w = 0; w < kWarmupJobs; ++w) {
    RunJob(g, program, false, &scratch);
  }
  std::vector<PageRankValue> first;
  uint64_t first_fp = 0;
  uint64_t mismatched = 0;
  auto jobs = MeasureJobs(cfg, SIZE_MAX, [&](size_t i, bool profiled, Job* job) {
    auto r = RunJob(g, program, profiled, job);
    const uint64_t fp = ValueBytesFingerprint(r.values.data(),
                                              r.values.size() * sizeof(PageRankValue));
    if (i == 0) {
      first = std::move(r.values);
      first_fp = fp;
    } else if (fp != first_fp) {
      ++mismatched;
    }
    return r.stats;
  });
  report->Set("peak_rss_mb", PeakRssMb(), 1);
  if (mismatched != 0) {
    std::fprintf(stderr, "check: %llu PageRank jobs differ from the first\n",
                 static_cast<unsigned long long>(mismatched));
    report->correct = false;
    report->failed += mismatched;
  }
  const std::vector<double> expected = CpuPageRank(g);
  for (size_t v = 0; v < expected.size(); ++v) {
    if (first.size() != expected.size() ||
        std::fabs(first[v].rank - expected[v]) > kPageRankTolerance) {
      std::fprintf(stderr, "check: PageRank differs from CpuPageRank at vertex %zu\n", v);
      report->correct = false;
      ++report->failed;
      break;
    }
  }
  return jobs;
}

}  // namespace

Report RunEngineWorkload(const RunConfig& cfg) {
  Report report;
  LoadedGraph loaded;
  std::vector<double> setup_ms, read_ms, build_ms;
  double spent_ms = 0.0;
  while (MoreSetups(setup_ms.size(), spent_ms)) {
    loaded = LoadedGraph{};
    std::string error;
    if (!LoadGraph(cfg, &loaded, &error)) {
      std::fprintf(stderr, "setup: %s\n", error.c_str());
      report.correct = false;
      return report;
    }
    setup_ms.push_back(loaded.read_ms + loaded.build_ms);
    spent_ms += setup_ms.back();
    read_ms.push_back(loaded.read_ms);
    build_ms.push_back(loaded.build_ms);
  }
  report.Set("setup_s", Median(setup_ms) / 1000.0, setup_ms.size());
  report.Set("graph.read_ms", Median(read_ms), read_ms.size());
  report.Set("graph.build_ms", Median(build_ms), build_ms.size());
  const Graph& g = loaded.graph;

  Rng rng(SubSeed(cfg.seed, "sources"));
  std::vector<VertexId> sources;
  const std::string name = cfg.workload->name;
  std::vector<Job> jobs;
  if (name == "sssp-social") {
    // The tail of a random edge: never an isolated vertex, and degree-biased
    // like real traversal roots.
    const auto& offsets = g.out().row_offsets();
    for (size_t i = 0; i < kSourceCount; ++i) {
      const EdgeIdx e = rng.Below(g.edge_count());
      const auto it = std::upper_bound(offsets.begin(), offsets.end(), e);
      sources.push_back(static_cast<VertexId>(it - offsets.begin() - 1));
    }
    jobs = TraversalJobs<SsspProgram>(cfg, g, sources, &CpuDijkstra, 4, &report);
  } else if (name == "bfs-road") {
    for (size_t i = 0; i < kSourceCount; ++i) {
      sources.push_back(static_cast<VertexId>(rng.Below(g.vertex_count())));
    }
    jobs = TraversalJobs<BfsProgram>(cfg, g, sources, &CpuBfsLevels, 8, &report);
  } else {
    jobs = PageRankJobs(cfg, g, &report);
  }
  for (const Job& j : jobs) {
    if (!j.stats.ok()) {
      ++report.failed;
    }
  }
  report.attempted = jobs.size();
  ReportJobs(jobs, g, cfg.traced, &report);
  return report;
}

}  // namespace simdx::e2e
