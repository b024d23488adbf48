// simdx_e2e: one end-to-end workload per process.
//
//   simdx_e2e --prepare --workload W --seed N --input FILE
//   simdx_e2e --workload W --seed N --seconds S --trace 0|1 --input FILE
//             [--trace-out FILE] [--work-dir DIR]
//   simdx_e2e --list-metrics
//
// The last stdout line is the result JSON; the metric table with sample
// counts, and the trace's self times, go to stderr. Exit status 1 means an
// answer or an accounting identity was wrong, 3 that the run is invalid (the
// load generator fell behind its schedule).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace simdx::e2e {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "simdx_e2e: %s\n"
               "usage: simdx_e2e [--prepare] --workload W --seed N --input FILE\n"
               "                 [--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "                 [--work-dir DIR]\n"
               "       simdx_e2e --list-metrics\n"
               "workloads: %s\n",
               why, WorkloadNames().c_str());
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0' && std::isfinite(*out);
}

void PrintSelfTimes() {
  std::fprintf(stderr, "%-24s %12s %8s\n", "span", "self_ms", "count");
  for (const auto& t : Tracer::Get().SelfTimes()) {
    std::fprintf(stderr, "%-24s %12.3f %8llu\n", t.name.c_str(), t.self_ms,
                 static_cast<unsigned long long>(t.count));
  }
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  cfg.work_dir = ".";
  bool prepare = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& m : EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const MetricDef& m : PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (flag == "--prepare") {
      prepare = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      cfg.workload = FindWorkload(value);
      if (cfg.workload == nullptr) {
        return Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0 || number != std::floor(number)) {
        return Usage("--seed takes a non-negative integer");
      }
      cfg.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number < 1 || number > 60) {
        return Usage("--seconds takes a number from 1 to 60");
      }
      cfg.seconds = number;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      cfg.traced = value == "1";
    } else if (flag == "--input") {
      cfg.input = value;
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.workload == nullptr || !have_seed || cfg.input.empty()) {
    return Usage("--workload, --seed and --input are required");
  }

  if (prepare) {
    std::string error;
    if (!Prepare(cfg, &error)) {
      std::fprintf(stderr, "prepare: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }

  if (cfg.traced) {
    Tracer::Get().Enable();
  }
  Report report =
      cfg.workload->serve ? RunServeWorkload(cfg) : RunEngineWorkload(cfg);
  // An end-to-end metric is never 0: a missing or non-positive one means the
  // run did not measure what it claims.
  if (!cfg.traced) {
    for (const MetricDef& m : EndToEndMetrics()) {
      if (!report.Has(m.name) || !(report.Get(m.name) > 0.0) ||
          !std::isfinite(report.Get(m.name))) {
        std::fprintf(stderr, "harness: %s was not measured\n", m.name);
        report.correct = false;
      }
    }
    if (!Supports(report.Count("lat_ms_p90"), 0.9)) {
      std::fprintf(stderr, "harness: lat_ms_p90 rests on %llu samples, fewer than ten "
                   "beyond it\n", static_cast<unsigned long long>(report.Count("lat_ms_p90")));
    }
  }
  if (cfg.traced) {
    PrintSelfTimes();
    if (!cfg.trace_out.empty() && !Tracer::Get().WriteChromeJson(cfg.trace_out)) {
      std::fprintf(stderr, "trace: cannot write %s\n", cfg.trace_out.c_str());
    }
  }
  report.PrintTable(cfg.traced);
  std::cout << report.Json(cfg.traced) << std::endl;
  return !report.correct ? 1 : !report.valid ? 3 : 0;
}

}  // namespace
}  // namespace simdx::e2e

int main(int argc, char** argv) { return simdx::e2e::Main(argc, argv); }
