#include "core/parallel.h"

#include <algorithm>

namespace simdx {

namespace {

// Set while a thread executes chunks, so a nested ParallelFor degrades to the
// inline serial path instead of deadlocking on the submission lock.
thread_local bool t_inside_parallel_region = false;

uint32_t DefaultPoolThreads() {
  const uint32_t hw = std::thread::hardware_concurrency();
  return std::max(8u, hw == 0 ? 1u : hw);
}

}  // namespace

ThreadPool::ThreadPool(uint32_t worker_limit) {
  const uint32_t threads = worker_limit == 0 ? DefaultPoolThreads() : worker_limit;
  workers_.reserve(threads > 0 ? threads - 1 : 0);
  for (uint32_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    ++epoch_;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();  // intentionally leaked
  return *pool;
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             uint32_t threads, const ChunkFn& fn) {
  if (end <= begin) {
    return;
  }
  const size_t g = grain == 0 ? 1 : grain;
  const uint32_t chunks = NumChunks(begin, end, g);
  const uint32_t usable = std::min({threads == 0 ? 1u : threads, max_threads(), chunks});
  if (usable <= 1 || t_inside_parallel_region) {
    // The exact sequential loop: chunks in ascending order on the caller.
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    ParallelChunk c;
    c.thread_index = 0;
    for (uint32_t i = 0; i < chunks; ++i) {
      c.begin = begin + static_cast<size_t>(i) * g;
      c.end = std::min(end, c.begin + g);
      c.chunk_index = i;
      fn(c);
    }
    return;
  }

  std::unique_lock<std::mutex> submit(submit_mutex_, std::try_to_lock);
  if (!submit.owns_lock()) {
    contended_submits_.fetch_add(1, std::memory_order_relaxed);
    submit.lock();
  }
  submits_.fetch_add(1, std::memory_order_relaxed);
  uint64_t job_tag;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    job_begin_ = begin;
    job_end_ = end;
    job_grain_ = g;
    job_chunks_ = chunks;
    job_threads_ = usable;
    ++epoch_;
    job_tag = epoch_ << 32;
    claim_.store(job_tag, std::memory_order_relaxed);
    done_.store(job_tag, std::memory_order_relaxed);
  }
  work_cv_.notify_all();

  RunChunks(0);  // the caller is participant 0

  std::unique_lock<std::mutex> lock(mutex_);
  const uint64_t finished = job_tag | chunks;
  done_cv_.wait(lock, [this, finished] {
    return done_.load(std::memory_order_acquire) == finished;
  });
  fn_ = nullptr;
}

void ThreadPool::RunChunks(uint32_t thread_index) {
  // Snapshot the job description; it is stable until every chunk is done and
  // the submitter has been woken.
  const ChunkFn* fn;
  size_t begin;
  size_t range_end;
  size_t grain;
  uint32_t chunks;
  uint64_t job_tag;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn = fn_;
    begin = job_begin_;
    range_end = job_end_;
    grain = job_grain_;
    chunks = job_chunks_;
    job_tag = epoch_ << 32;
    // Re-check the cap against the job actually snapshotted: a worker
    // admitted under job N's cap may arrive here after job N+1 (with a
    // smaller cap) was published, and must not join it with an index beyond
    // that job's per-thread scratch.
    if (thread_index >= job_threads_) {
      fn = nullptr;
    }
  }
  if (fn == nullptr) {
    return;
  }
  t_inside_parallel_region = true;
  uint32_t completed = 0;
  ParallelChunk c;
  c.thread_index = thread_index;
  uint64_t cur = claim_.load(std::memory_order_relaxed);
  while (true) {
    // The epoch check and the counter bump are one CAS: a claim can only
    // succeed against the job this thread snapshotted.
    if ((cur & ~0xffffffffull) != job_tag || (cur & 0xffffffffu) >= chunks) {
      break;
    }
    if (!claim_.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed)) {
      continue;  // cur reloaded by the failed CAS
    }
    const uint32_t i = static_cast<uint32_t>(cur & 0xffffffffu);
    c.begin = begin + static_cast<size_t>(i) * grain;
    c.end = std::min(range_end, c.begin + grain);
    c.chunk_index = i;
    (*fn)(c);
    ++completed;
    cur = claim_.load(std::memory_order_relaxed);
  }
  t_inside_parallel_region = false;
  if (completed > 0) {
    // Safe against epoch advance: the submitter cannot retire this job (and
    // thus publish a new epoch) until every claimed chunk has been counted,
    // and this thread holds `completed` of them.
    const uint64_t done =
        done_.fetch_add(completed, std::memory_order_acq_rel) + completed;
    if (done == (job_tag | chunks)) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop(uint32_t worker_index) {
  uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stopping_ || epoch_ != seen_epoch; });
      seen_epoch = epoch_;
      if (stopping_) {
        return;
      }
      // Participation cap: worker k is thread_index k + 1.
      if (worker_index + 1 >= job_threads_ || fn_ == nullptr) {
        continue;
      }
    }
    RunChunks(worker_index + 1);
  }
}

size_t SuggestedGrain(size_t n, uint32_t threads, size_t min_grain, size_t align) {
  const uint32_t t = std::max(1u, threads);
  size_t grain = std::max(min_grain, n / (static_cast<size_t>(t) * 8 + 1));
  if (align > 1) {
    grain = (grain + align - 1) / align * align;
  }
  return std::max<size_t>(grain, 1);
}

ChunkPlan PlanChunks(size_t n, uint32_t threads, size_t min_grain,
                     size_t serial_below, bool have_pool) {
  ChunkPlan plan;
  if (n == 0) {
    return plan;
  }
  if (!have_pool || threads <= 1 || n < serial_below) {
    plan.grain = n;
    plan.chunks = 1;
    return plan;
  }
  plan.grain = SuggestedGrain(n, threads, min_grain);
  plan.chunks = ThreadPool::NumChunks(0, n, plan.grain);
  return plan;
}

}  // namespace simdx
