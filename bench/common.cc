#include "common.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>
#include <thread>

namespace simdx::bench {

namespace {

void PrintUsage(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0
     << " [--csv out.csv] [--graphs FB,ER,...] [--quick] [--help]\n"
        "  --csv <path>    also write the table as CSV (headers + rows)\n"
        "  --graphs <csv>  comma-separated preset abbrevs (default: all)\n"
        "  --quick         reduced sweep where the binary supports one\n"
        "  --help          print this message and the output schema\n";
}

}  // namespace

BenchArgs ParseArgs(int argc, char** argv, const char* help_schema) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--csv") {
      args.csv_path = RequireFlagValue(argc, argv, i, "--csv");
    } else if (arg == "--graphs") {
      std::istringstream ss(RequireFlagValue(argc, argv, i, "--graphs"));
      std::string token;
      while (std::getline(ss, token, ',')) {
        if (!token.empty()) {
          args.graphs.push_back(token);
        }
      }
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout, argv[0]);
      if (help_schema != nullptr) {
        std::cout << "\n" << help_schema;
      }
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      PrintUsage(std::cerr, argv[0]);
      std::exit(2);
    }
  }
  return args;
}

std::vector<std::string> SelectedPresets(const BenchArgs& args) {
  if (!args.graphs.empty()) {
    return args.graphs;
  }
  std::vector<std::string> names;
  for (const PresetInfo& info : AllPresets()) {
    names.push_back(info.abbrev);
  }
  return names;
}

const Graph& CachedPreset(const std::string& abbrev) {
  static std::map<std::string, Graph> cache;
  auto it = cache.find(abbrev);
  if (it == cache.end()) {
    it = cache.emplace(abbrev, LoadPreset(abbrev)).first;
  }
  return it->second;
}

VertexId DefaultSource(const Graph& g) {
  VertexId best = 0;
  uint32_t best_degree = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.OutDegree(v) > best_degree) {
      best_degree = g.OutDegree(v);
      best = v;
    }
  }
  return best;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print(const std::string& title) const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::cout << "\n== " << title << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::cout << (c == 0 ? "" : "  ");
      std::cout.width(static_cast<std::streamsize>(width[c]));
      std::cout << (c == 0 ? std::left : std::right) << row[c];
      std::cout.unsetf(std::ios::adjustfield);
    }
    std::cout << '\n';
  };
  print_row(headers_);
  size_t total = headers_.size() - 1;
  for (size_t w : width) {
    total += w + 1;
  }
  std::cout << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void Table::WriteCsv(const std::optional<std::string>& path) const {
  if (!path) {
    return;
  }
  std::ofstream out(*path);
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) {
        out << ',';
      }
      out << row[c];
    }
    out << '\n';
  };
  write_row(headers_);
  for (const auto& row : rows_) {
    write_row(row);
  }
}

std::string Ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ms < 10 ? "%.2f" : "%.1f", ms);
  return buf;
}

std::string Speedup(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", x);
  return buf;
}

std::string Count(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  int next_comma = static_cast<int>(digits.size()) % 3;
  if (next_comma == 0) {
    next_comma = 3;
  }
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i > 0 && static_cast<int>(i) == next_comma) {
      out += ',';
      next_comma += 3;
    }
    out += digits[i];
  }
  return out;
}

std::string CellOrDash(bool present, const std::string& cell) {
  return present ? cell : "-";
}

size_t ScaledMemoryBudget(const DeviceSpec& device) {
  return static_cast<size_t>(
      static_cast<double>(device.global_memory_bytes) / PresetScaleFactor());
}

double PaperScaleMs(const RunStats& stats) {
  const double parallel_ms = std::max(0.0, stats.time.ms - stats.serial_ms);
  return parallel_ms * PresetScaleFactor() + stats.serial_ms;
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (v > 0.0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

double HostNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* RequireFlagValue(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) {
    std::cerr << "error: flag " << flag << " requires a value\n";
    std::exit(2);
  }
  return argv[++i];
}

uint32_t ParseU32Flag(const std::string& s, const char* flag) {
  const uint64_t v = ParseU64Flag(s, flag);
  if (v > std::numeric_limits<uint32_t>::max()) {
    std::cerr << "error: " << flag << " out of uint32 range: '" << s << "'\n";
    std::exit(2);
  }
  return static_cast<uint32_t>(v);
}

uint64_t ParseU64Flag(const std::string& s, const char* flag) {
  // stoull silently negates-and-wraps "-1"; reject anything but digits up
  // front so a typo'd seed can never record a wrapped value in the JSON.
  const bool all_digits =
      !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
  if (all_digits) {
    try {
      size_t pos = 0;
      const unsigned long long v = std::stoull(s, &pos);
      if (pos == s.size()) {
        return static_cast<uint64_t>(v);
      }
    } catch (const std::exception&) {
    }
  }
  std::cerr << "error: " << flag << " expects a number, got '" << s << "'\n";
  std::exit(2);
}

double ParseDoubleFlag(const std::string& s, const char* flag) {
  // from_chars takes no leading whitespace or '+' and reports how far it
  // read, so a trailing "x" cannot be dropped the way stod drops it.
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    std::cerr << "error: " << flag << " expects a finite number, got '" << s
              << "'\n";
    std::exit(2);
  }
  return v;
}

double ParsePositiveFlag(const std::string& s, const char* flag) {
  const double v = ParseDoubleFlag(s, flag);
  if (v <= 0.0) {
    std::cerr << "error: " << flag << " must be > 0, got '" << s << "'\n";
    std::exit(2);
  }
  return v;
}

double ParseFractionFlag(const std::string& s, const char* flag) {
  const double v = ParseDoubleFlag(s, flag);
  if (v < 0.0 || v > 1.0) {
    std::cerr << "error: " << flag << " must be in [0, 1], got '" << s
              << "'\n";
    std::exit(2);
  }
  return v;
}

std::vector<uint32_t> ParseThreadList(const std::string& s, const char* flag) {
  std::vector<uint32_t> threads;
  std::istringstream ss(s);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) {
      threads.push_back(ParseU32Flag(token, flag));
    }
  }
  return threads;
}

void WarnIfSingleCore() {
  const uint32_t hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    std::cerr << "WARNING: hardware_concurrency=" << hw
              << "; every thread count time-slices one core, so speedups are\n"
                 "meaningless (flat by construction). The determinism gate is\n"
                 "still valid — rerun on a multi-core host for real scaling.\n";
  }
}

bool SanitizedBuild() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
  return __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) ||
         __has_feature(memory_sanitizer);
#else
  return false;
#endif
}

bool SpeedupGateEnabled(uint32_t min_cores) {
#if defined(__SANITIZE_THREAD__)
  constexpr bool kTsan = true;
#elif defined(__has_feature)
  constexpr bool kTsan = __has_feature(thread_sanitizer);
#else
  constexpr bool kTsan = false;
#endif
  if (kTsan) {
    std::cerr << "speedup gate SKIPPED: ThreadSanitizer build (determinism "
                 "gates still enforced)\n";
    return false;
  }
  const uint32_t hw = std::thread::hardware_concurrency();
  if (hw < min_cores) {
    std::cerr << "speedup gate SKIPPED: hardware_concurrency=" << hw << " < "
              << min_cores << " (determinism gates still enforced)\n";
    return false;
  }
  return true;
}

bool ArmSmokeSpeedupGate(std::vector<uint32_t>& threads, uint32_t& repeats) {
  if (!SpeedupGateEnabled(4)) {
    return false;
  }
  if (*std::max_element(threads.begin(), threads.end()) < 4) {
    threads.push_back(4);
  }
  repeats = std::max(repeats, 2u);
  return true;
}

}  // namespace simdx::bench
