#include "bench_common.h"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace htapbench {

std::map<std::string, uint64_t> Tracer::SelfTimeNs() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[size_t(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, uint64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t total = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] += total > child_ns[i] ? total - child_ns[i] : 0;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"spans\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"request\": %llu}%s\n",
                 i, s.name, (unsigned long long)(s.start_ns - origin),
                 (unsigned long long)(s.end_ns - origin), (long long)s.parent,
                 (unsigned long long)s.request,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * double(values.size()));
  const size_t idx = rank < 1.0 ? 0 : size_t(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double ResidentMb() {
  ReleaseFreedMemory();
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void ReleaseFreedMemory() { malloc_trim(0); }

double CalibrationMs() {
  std::vector<uint32_t> values(size_t(1) << 17);
  const uint64_t start = ThreadCpuNs();
  uint32_t x = 0x2545f491u;
  for (uint32_t& v : values) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    v = x;
  }
  std::sort(values.begin(), values.end());
  return double(ThreadCpuNs() - start) / 1e6;
}

std::pair<uint64_t, uint64_t> CpuStealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::vector<std::string> HytapEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "HYTAP_", 6) == 0) {
      const char* eq = std::strchr(*env, '=');
      names.emplace_back(*env, eq == nullptr ? std::strlen(*env)
                                             : size_t(eq - *env));
    }
  }
  return names;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace htapbench
