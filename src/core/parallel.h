// Host-side parallel execution runtime.
//
// The simulator is functionally exact, so host parallelism must never change
// a single simulated statistic. Every construct here is built around one
// invariant: WORK DECOMPOSITION IS BY CHUNK, MERGES ARE BY CHUNK INDEX.
// Chunks are contiguous sub-ranges of the iteration space; which OS thread
// executes a chunk is scheduling noise, but per-chunk partial results are
// always reduced in ascending chunk order, so counters, frontiers, worklist
// order, floating-point sums — everything — is bit-identical for any thread
// count, including the serial inline path used when one thread is requested.
//
// The pool is persistent (workers park on a condition variable between
// jobs) and shared process-wide via ThreadPool::Global(); engines cap their
// participation per-run with EngineOptions::host_threads.
#ifndef SIMDX_CORE_PARALLEL_H_
#define SIMDX_CORE_PARALLEL_H_

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace simdx {

// One contiguous piece of a ParallelFor range. `chunk_index` drives ordered
// reductions (deterministic); `thread_index` only addresses per-thread
// scratch (NOT deterministic — never let output order depend on it).
struct ParallelChunk {
  size_t begin = 0;
  size_t end = 0;
  uint32_t chunk_index = 0;
  uint32_t thread_index = 0;
};

// Non-owning callable wrapper (function_ref). ParallelFor blocks until every
// chunk has run, so borrowing the caller's lambda is safe — and unlike
// std::function, binding one never heap-allocates, which keeps the
// per-iteration hot loop allocation-free.
class ChunkFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ChunkFn> &&
             std::invocable<F&, const ParallelChunk&>)
  ChunkFn(F&& f)  // NOLINT(google-explicit-constructor): mirrors function_ref
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, const ParallelChunk& c) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(c);
        }) {}

  void operator()(const ParallelChunk& c) const { call_(obj_, c); }

 private:
  void* obj_;
  void (*call_)(void*, const ParallelChunk&);
};

class ThreadPool {
 public:
  // `worker_limit` = 0 sizes the pool to hardware_concurrency, floored at 8
  // so determinism tests exercise real interleavings even on tiny CI boxes
  // (parked workers cost nothing).
  explicit ThreadPool(uint32_t worker_limit = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Workers + the calling thread.
  uint32_t max_threads() const { return static_cast<uint32_t>(workers_.size()) + 1; }

  // Process-wide shared pool (lazily constructed, never destroyed before
  // static teardown).
  static ThreadPool& Global();

  // Submission-path telemetry for callers sharing the pool (the resident
  // query service runs many engines against Global() concurrently; the qps
  // bench reports these to show whether the single submission lock is a
  // bottleneck at a given worker count). Counters are relaxed and bumped
  // once per ParallelFor call — never per chunk — so the hot path cost is
  // three loads/adds per stage.
  struct SubmitTelemetry {
    uint64_t submits = 0;            // jobs dispatched to the worker pool
    uint64_t contended_submits = 0;  // submits that found the lock held
    uint64_t inline_runs = 0;        // serial fallbacks (1 thread, 1 chunk,
                                     // or a nested call run inline)
  };
  SubmitTelemetry telemetry() const {
    SubmitTelemetry t;
    t.submits = submits_.load(std::memory_order_relaxed);
    t.contended_submits = contended_submits_.load(std::memory_order_relaxed);
    t.inline_runs = inline_runs_.load(std::memory_order_relaxed);
    return t;
  }

  // Splits [begin, end) into ceil(n / grain) chunks and runs `fn` once per
  // chunk, using at most `threads` OS threads (the caller participates and
  // is thread_index 0). Blocks until every chunk has run. Chunk boundaries
  // depend only on (begin, end, grain) — never on `threads` — and `fn` may
  // be invoked concurrently from different threads, one chunk at a time per
  // thread. Serial fallbacks (threads <= 1, a single chunk, or a nested call
  // from inside another ParallelFor) run the chunks inline in order on the
  // caller, which is exactly the sequential loop.
  void ParallelFor(size_t begin, size_t end, size_t grain, uint32_t threads,
                   const ChunkFn& fn);

  // Number of chunks ParallelFor will produce for this range/grain — sizes
  // per-chunk scratch before launching.
  static uint32_t NumChunks(size_t begin, size_t end, size_t grain) {
    const size_t n = end > begin ? end - begin : 0;
    const size_t g = grain == 0 ? 1 : grain;
    return static_cast<uint32_t>((n + g - 1) / g);
  }

 private:
  void WorkerLoop(uint32_t worker_index);
  void RunChunks(uint32_t thread_index);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;

  // Current job, guarded by mutex_ for publication; chunk claiming is
  // lock-free via claim_/done_. Both pack (epoch << 32 | counter) so a
  // worker that lingers past the end of job N can never claim or complete a
  // chunk of job N+1 with job N's snapshot: the CAS on claim_ checks the
  // epoch and the counter in one shot.
  const ChunkFn* fn_ = nullptr;
  size_t job_begin_ = 0;
  size_t job_end_ = 0;
  size_t job_grain_ = 1;
  uint32_t job_chunks_ = 0;
  uint32_t job_threads_ = 1;
  uint64_t epoch_ = 0;
  bool stopping_ = false;
  std::atomic<uint64_t> claim_{0};
  std::atomic<uint64_t> done_{0};

  // Serializes submissions from distinct caller threads.
  std::mutex submit_mutex_;

  std::atomic<uint64_t> submits_{0};
  std::atomic<uint64_t> contended_submits_{0};
  std::atomic<uint64_t> inline_runs_{0};
};

// Suggested grain for a range processed by `threads` threads: enough chunks
// (~8 per thread) for load balancing on skewed work, floored so tiny ranges
// do not shatter into per-element chunks. `align` rounds the grain up to a
// multiple (e.g. the warp size for ballot scans, so warp boundaries never
// straddle chunks).
size_t SuggestedGrain(size_t n, uint32_t threads, size_t min_grain = 256,
                      size_t align = 1);

// Decomposition of one range into chunks for a collect-then-drain pass:
// grain via SuggestedGrain, plus the chunk count that per-chunk scratch
// must be sized for. When the caller cannot (pool == nullptr) or should not
// (threads <= 1, range below `serial_below`) go parallel, the plan collapses
// to a single chunk — ordered drains are insensitive to chunk boundaries, so
// the serial single-chunk pass and any parallel decomposition produce the
// same drain sequence.
struct ChunkPlan {
  size_t grain = 1;
  uint32_t chunks = 0;
};

ChunkPlan PlanChunks(size_t n, uint32_t threads, size_t min_grain,
                     size_t serial_below, bool have_pool);

// Deterministic collect-then-drain over per-chunk buffers: `fill` runs once
// per chunk (in parallel when a pool is available and the range is worth
// it), writing into `buffers[chunk_index]`; `drain` then runs once per
// buffer in ascending chunk order on the calling thread. Because chunks are
// contiguous slices and the drain is ordered, the observable drain sequence
// equals the sequential left-to-right pass for ANY thread count and grain.
// Used by the push-mode CPU oracles. The engine's push phase has no
// per-chunk buffers: each chunk writes its records into its own slice of
// one flat stream, at the slots a prefix sum of per-chunk out-degree sums
// gives it (engine_push.h), and the drain waits until ALL THREE
// Thread/Warp/CTA lists have collected (draining per list would write
// metadata mid-phase and break the phase-start-snapshot invariant).
// `buffers` is caller-owned and only ever
// grown, so steady-state reuse allocates nothing; `fill` must reset its
// buffer (buffers are reused dirty).
template <typename Buffer, typename FillFn, typename DrainFn>
void CollectAndDrain(ThreadPool* pool, uint32_t threads, size_t n,
                     size_t min_grain, size_t serial_below,
                     std::vector<Buffer>& buffers, const FillFn& fill,
                     const DrainFn& drain) {
  const ChunkPlan plan =
      PlanChunks(n, threads, min_grain, serial_below, pool != nullptr);
  if (plan.chunks == 0) {
    return;
  }
  if (buffers.size() < plan.chunks) {
    buffers.resize(plan.chunks);
  }
  if (plan.chunks == 1) {
    ParallelChunk c;
    c.begin = 0;
    c.end = n;
    fill(c, buffers[0]);
  } else {
    pool->ParallelFor(0, n, plan.grain, threads, [&](const ParallelChunk& c) {
      fill(c, buffers[c.chunk_index]);
    });
  }
  for (uint32_t i = 0; i < plan.chunks; ++i) {
    drain(buffers[i]);
  }
}

// Allocator whose construct() default-initializes instead of value-
// initializing: vector<T, DefaultInitAllocator<T>>::resize on a trivial T
// writes nothing, so the pages of a freshly grown array stay unmapped until
// first use. Combined with ParallelFill below this gives first-touch NUMA
// placement: the thread that will scan a range is the one whose write faults
// its pages in. (Non-trivial T still runs its constructor at resize —
// placement on such arrays is best-effort.)
template <typename T, typename Base = std::allocator<T>>
class DefaultInitAllocator : public Base {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<
        U, typename std::allocator_traits<Base>::template rebind_alloc<U>>;
  };

  using Base::Base;

  template <typename U>
  void construct(U* ptr) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) {
    std::allocator_traits<Base>::construct(*this, ptr,
                                           std::forward<Args>(args)...);
  }
};

template <typename T>
using NumaVector = std::vector<T, DefaultInitAllocator<T>>;

// Chunked parallel execution of fn(begin, end) over [0, n), with the shared
// serial fallback (no pool, one thread, or a range too small to split). The
// decomposition depends only on (n, threads, min_grain); fn must be safe for
// concurrent disjoint ranges. The single home of this dispatch — the
// first-touch initializers below and VertexMeta's parallel constructor all
// route through it.
template <typename RangeFn>
void ParallelRange(size_t n, ThreadPool* pool, uint32_t threads,
                   size_t min_grain, const RangeFn& fn) {
  if (pool == nullptr || threads <= 1 || n < 2 * min_grain) {
    fn(size_t{0}, n);
    return;
  }
  pool->ParallelFor(0, n, SuggestedGrain(n, threads, min_grain), threads,
                    [&](const ParallelChunk& c) { fn(c.begin, c.end); });
}

// First-touch fill: writes value(i) for i in [0, n) through ParallelFor so
// each page is faulted in by a thread that will later work that range. The
// result is a plain per-element store — identical for any thread count.
template <typename Vec, typename ValueFn>
void ParallelFill(Vec& out, size_t n, ThreadPool* pool, uint32_t threads,
                  size_t min_grain, const ValueFn& value) {
  if (out.size() < n) {
    out.resize(n);
  }
  ParallelRange(n, pool, threads, min_grain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = value(i);
    }
  });
}

}  // namespace simdx

#endif  // SIMDX_CORE_PARALLEL_H_
