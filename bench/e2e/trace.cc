#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

namespace simdx::e2e {

namespace {

thread_local std::vector<Span>* tls_buffer = nullptr;
thread_local uint32_t tls_thread = 0;

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

double Tracer::ToUs(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::vector<Span>& Tracer::ThreadBuffer() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 14);
    tls_buffer = buffers_.back().get();
    tls_thread = static_cast<uint32_t>(buffers_.size());
  }
  return *tls_buffer;
}

void Tracer::Record(const char* name, double start_us, double end_us,
                    uint64_t id, uint64_t parent, uint64_t request) {
  if (!enabled_) {
    return;
  }
  ThreadBuffer().push_back(
      Span{name, start_us, end_us, id, parent, request, tls_thread});
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& b : buffers_) {
    for (const Span& s : *b) {
      if (s.parent != 0) {
        children[s.parent].emplace_back(s.start_us, s.end_us);
      }
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (const auto& b : buffers_) {
    for (const Span& s : *b) {
      double covered = 0.0;
      if (auto it = children.find(s.id); it != children.end()) {
        // Union of the children's intervals clipped to the parent: children on
        // different threads may overlap each other.
        auto intervals = it->second;
        std::sort(intervals.begin(), intervals.end());
        double cursor = s.start_us;
        for (auto [lo, hi] : intervals) {
          lo = std::max(lo, cursor);
          hi = std::min(hi, s.end_us);
          if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
          }
        }
      }
      SelfTime& t = by_name[s.name];
      t.name = s.name;
      t.self_ms += (s.end_us - s.start_us - covered) / 1000.0;
      ++t.count;
    }
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) {
    out.push_back(t);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : *b) {
      out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
          << ", \"ts\": " << s.start_us << ", \"dur\": " << s.end_us - s.start_us
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace simdx::e2e
