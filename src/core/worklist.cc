#include "core/worklist.h"

namespace simdx {

KernelClass ClassifyDegree(uint32_t degree, uint32_t small_degree_limit,
                           uint32_t medium_degree_limit) {
  if (degree < small_degree_limit) {
    return KernelClass::kThread;
  }
  if (degree < medium_degree_limit) {
    return KernelClass::kWarp;
  }
  return KernelClass::kCta;
}

namespace {

void ClassifyRange(const std::vector<VertexId>& frontier, size_t begin, size_t end,
                   const Graph& g, uint32_t small_degree_limit,
                   uint32_t medium_degree_limit, WorkLists& lists,
                   uint64_t& out_edges) {
  for (size_t i = begin; i < end; ++i) {
    const VertexId v = frontier[i];
    const uint32_t degree = g.OutDegree(v);
    out_edges += degree;
    switch (ClassifyDegree(degree, small_degree_limit, medium_degree_limit)) {
      case KernelClass::kThread:
        lists.small.push_back(v);
        break;
      case KernelClass::kWarp:
        lists.medium.push_back(v);
        break;
      case KernelClass::kCta:
        lists.large.push_back(v);
        break;
    }
  }
}

void AppendLists(WorkLists& to, const WorkLists& from) {
  to.small.insert(to.small.end(), from.small.begin(), from.small.end());
  to.medium.insert(to.medium.end(), from.medium.begin(), from.medium.end());
  to.large.insert(to.large.end(), from.large.begin(), from.large.end());
}

}  // namespace

uint64_t FrontierClassifier::Classify(const std::vector<VertexId>& frontier,
                                      const Graph& g, uint32_t small_degree_limit,
                                      uint32_t medium_degree_limit, ThreadPool* pool,
                                      uint32_t threads) {
  lists_.Clear();
  const size_t n = frontier.size();
  if (pool == nullptr || threads <= 1 || n < 2048) {
    uint64_t out_edges = 0;
    ClassifyRange(frontier, 0, n, g, small_degree_limit, medium_degree_limit,
                  lists_, out_edges);
    return out_edges;
  }
  const size_t grain = SuggestedGrain(n, threads, 1024);
  const uint32_t chunks = ThreadPool::NumChunks(0, n, grain);
  if (partial_.size() < chunks) {
    partial_.resize(chunks);
  }
  partial_edges_.assign(chunks, 0);
  pool->ParallelFor(0, n, grain, threads, [&](const ParallelChunk& c) {
    WorkLists& lists = partial_[c.chunk_index];
    lists.Clear();
    ClassifyRange(frontier, c.begin, c.end, g, small_degree_limit,
                  medium_degree_limit, lists, partial_edges_[c.chunk_index]);
  });
  uint64_t out_edges = 0;
  size_t small = 0;
  size_t medium = 0;
  size_t large = 0;
  for (uint32_t i = 0; i < chunks; ++i) {
    small += partial_[i].small.size();
    medium += partial_[i].medium.size();
    large += partial_[i].large.size();
  }
  lists_.small.reserve(small);
  lists_.medium.reserve(medium);
  lists_.large.reserve(large);
  // Chunk-order merge = frontier order, identical to the sequential pass.
  for (uint32_t i = 0; i < chunks; ++i) {
    AppendLists(lists_, partial_[i]);
    out_edges += partial_edges_[i];
  }
  return out_edges;
}

uint64_t FrontierClassifier::OutEdgeSum(const std::vector<VertexId>& frontier,
                                        const Graph& g, ThreadPool* pool,
                                        uint32_t threads) {
  const size_t n = frontier.size();
  if (pool == nullptr || threads <= 1 || n < 4096) {
    uint64_t edges = 0;
    for (VertexId v : frontier) {
      edges += g.OutDegree(v);
    }
    return edges;
  }
  const size_t grain = SuggestedGrain(n, threads, 2048);
  const uint32_t chunks = ThreadPool::NumChunks(0, n, grain);
  partial_edges_.assign(chunks, 0);
  pool->ParallelFor(0, n, grain, threads, [&](const ParallelChunk& c) {
    uint64_t acc = 0;
    for (size_t i = c.begin; i < c.end; ++i) {
      acc += g.OutDegree(frontier[i]);
    }
    partial_edges_[c.chunk_index] = acc;
  });
  uint64_t edges = 0;
  for (uint32_t i = 0; i < chunks; ++i) {
    edges += partial_edges_[i];
  }
  return edges;
}

ThreadBins::ThreadBins(uint32_t num_threads, uint32_t capacity_per_bin)
    : bins_(num_threads), capacity_per_bin_(capacity_per_bin) {}

bool ThreadBins::Record(uint32_t thread_id, VertexId v) {
  auto& bin = bins_[thread_id % bins_.size()];
  if (bin.size() >= capacity_per_bin_) {
    overflowed_ = true;
    return false;
  }
  bin.push_back(v);
  ++total_recorded_;
  return true;
}

void ThreadBins::ConcatenateInto(std::vector<VertexId>& out) const {
  out.clear();
  out.reserve(total_recorded_);
  for (const auto& bin : bins_) {
    out.insert(out.end(), bin.begin(), bin.end());
  }
}

void ThreadBins::Reset() {
  for (auto& bin : bins_) {
    bin.clear();
  }
  total_recorded_ = 0;
  overflowed_ = false;
}

}  // namespace simdx
