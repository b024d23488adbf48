#include "core/fault.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/checkpoint.h"

namespace simdx {
namespace {

struct PointName {
  const char* name;
  FaultPoint point;
};

constexpr PointName kPointNames[] = {
    {"iteration-start", FaultPoint::kIterationStart},
    {"collect", FaultPoint::kCollect},
    {"replay", FaultPoint::kReplay},
    {"apply", FaultPoint::kApply},
    {"frontier", FaultPoint::kFrontier},
    {"checkpoint-write", FaultPoint::kCheckpointWrite},
};

bool ParseU64(const std::string& s, uint64_t* out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [p, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && p == end && !s.empty();
}

void SetError(std::string* error, const std::string& term,
              const std::string& reason) {
  if (error != nullptr) {
    *error = "bad fault term \"" + term + "\": " + reason;
  }
}

// Parses one "point@iter[:corrupt=N][:seed=S]" term.
bool ParseTerm(const std::string& term, ArmedFault* out, std::string* error) {
  size_t at = term.find('@');
  if (at == std::string::npos) {
    SetError(error, term, "missing '@iteration'");
    return false;
  }
  if (!FaultPointFromName(term.substr(0, at), &out->point)) {
    SetError(error, term,
             "unknown fault point \"" + term.substr(0, at) + "\"");
    return false;
  }
  std::string rest = term.substr(at + 1);
  size_t colon = rest.find(':');
  uint64_t iteration = 0;
  if (!ParseU64(rest.substr(0, colon), &iteration) ||
      iteration > UINT32_MAX) {
    SetError(error, term, "iteration is not a number");
    return false;
  }
  out->iteration = static_cast<uint32_t>(iteration);
  while (colon != std::string::npos) {
    rest = rest.substr(colon + 1);
    colon = rest.find(':');
    std::string kv = rest.substr(0, colon);
    size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      SetError(error, term, "option \"" + kv + "\" is missing '='");
      return false;
    }
    std::string key = kv.substr(0, eq);
    uint64_t value = 0;
    if (!ParseU64(kv.substr(eq + 1), &value)) {
      SetError(error, term, "option \"" + key + "\" value is not a number");
      return false;
    }
    if (key == "corrupt") {
      if (value > INT32_MAX) {
        SetError(error, term, "corrupt section index out of range");
        return false;
      }
      out->corrupt_section = static_cast<int32_t>(value);
    } else if (key == "seed") {
      out->seed = value;
    } else {
      SetError(error, term, "unknown option \"" + key + "\"");
      return false;
    }
  }
  return true;
}

}  // namespace

const char* ToString(FaultPoint p) {
  for (const PointName& entry : kPointNames) {
    if (entry.point == p) {
      return entry.name;
    }
  }
  return "?";
}

bool FaultPointFromName(const std::string& name, FaultPoint* out) {
  for (const PointName& entry : kPointNames) {
    const char* p = entry.name;
    size_t i = 0;
    for (; i < name.size() && p[i] != '\0'; ++i) {
      if (std::tolower(static_cast<unsigned char>(name[i])) != p[i]) {
        break;
      }
    }
    if (i == name.size() && p[i] == '\0' && !name.empty()) {
      *out = entry.point;
      return true;
    }
  }
  return false;
}

bool FaultRegistry::ShouldFail(FaultPoint point, uint32_t iteration) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ArmedFault& f : faults_) {
    if (!f.fired && f.point == point && f.iteration == iteration &&
        f.corrupt_section < 0) {
      f.fired = true;
      return true;
    }
  }
  return false;
}

const ArmedFault* FaultRegistry::TakeCorruption(uint32_t iteration) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ArmedFault& f : faults_) {
    if (!f.fired && f.point == FaultPoint::kCheckpointWrite &&
        f.iteration == iteration && f.corrupt_section >= 0) {
      f.fired = true;
      return &f;
    }
  }
  return nullptr;
}

bool FaultRegistry::Parse(const std::string& spec, FaultRegistry* out,
                          std::string* error) {
  std::vector<ArmedFault> parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string term = spec.substr(pos, end - pos);
    ArmedFault fault;
    if (!ParseTerm(term, &fault, error)) {
      return false;
    }
    for (const ArmedFault& prior : parsed) {
      if (prior.point == fault.point && prior.iteration == fault.iteration) {
        std::ostringstream reason;
        reason << "duplicate fault point " << ToString(fault.point) << "@"
               << fault.iteration
               << " (each point@iteration may be armed once per spec)";
        SetError(error, term, reason.str());
        return false;
      }
    }
    parsed.push_back(fault);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
  }
  for (const ArmedFault& fault : parsed) {
    out->Arm(fault);
  }
  return true;
}

FaultRegistry* FaultRegistry::FromEnv() {
  static FaultRegistry* registry = []() -> FaultRegistry* {
    const char* spec = std::getenv("SIMDX_FAULTS");
    if (spec == nullptr || spec[0] == '\0') {
      return nullptr;
    }
    auto* r = new FaultRegistry();
    std::string error;
    if (!FaultRegistry::Parse(spec, r, &error)) {
      std::fprintf(stderr, "SIMDX_FAULTS: unparseable spec \"%s\": %s\n", spec,
                   error.c_str());
      delete r;
      return nullptr;
    }
    return r;
  }();
  return registry;
}

void CorruptCheckpointSection(Checkpoint* checkpoint, uint32_t section_index,
                              uint64_t seed) {
  auto& sections = checkpoint->sections();
  if (sections.empty()) {
    return;
  }
  if (section_index >= sections.size()) {
    section_index = static_cast<uint32_t>(sections.size() - 1);
  }
  std::vector<uint8_t>& bytes = sections[section_index].bytes;
  if (bytes.empty()) {
    // An empty payload can't have a byte flipped; poison the CRC instead.
    sections[section_index].crc ^= 0xDEADBEEFu;
    return;
  }
  // splitmix64 keeps the corrupted byte deterministic in the seed.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  bytes[z % bytes.size()] ^= 0xA5u;
}

}  // namespace simdx
