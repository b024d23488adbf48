// Span recorder for traced e2e runs. Spans are taken only in the benchmark's
// own files, around its calls into each layer; the program under test is not
// instrumented. Each thread appends to its own vector, so recording takes no
// lock after a thread's first span; everything is written out as Chrome
// trace-event JSON once the run has joined its threads.
#ifndef SIMDX_BENCH_E2E_TRACE_H_
#define SIMDX_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"

namespace simdx::e2e {

struct Span {
  const char* name = "";  // a string literal
  double start_us = 0.0;  // since the tracer's epoch
  double end_us = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = a root span
  uint64_t request = 0;  // shared by every span of one request or job
  uint32_t thread = 0;
};

class Tracer {
 public:
  // The process-wide tracer; disabled until Enable().
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  double ToUs(Clock::time_point t) const;

  // Ids are allocated up front so children can name a parent that has not
  // ended yet.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Appends to the calling thread's buffer. No-op when disabled.
  void Record(const char* name, double start_us, double end_us, uint64_t id,
              uint64_t parent, uint64_t request);

  // Readers below must run after every recording thread has been joined.
  // Per span name: total self time (duration minus the union of its
  // children's intervals) in ms, and the span count.
  struct SelfTime {
    std::string name;
    double self_ms = 0.0;
    uint64_t count = 0;
  };
  std::vector<SelfTime> SelfTimes() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  Tracer();
  std::vector<Span>& ThreadBuffer();

  bool enabled_ = false;
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;  // guards buffers_ growth
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

}  // namespace simdx::e2e

#endif  // SIMDX_BENCH_E2E_TRACE_H_
