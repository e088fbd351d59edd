#include "common/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <initializer_list>

#include <strings.h>

namespace hytap {

namespace {

/// The knob's value, or nullptr when it is unset or empty.
const char* EnvValue(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr || *value == '\0' ? nullptr : value;
}

}  // namespace

bool EnvFlag(const char* name, bool fallback) {
  const char* value = EnvValue(name);
  if (value == nullptr) return fallback;
  for (const char* on : {"1", "on", "true", "yes"}) {
    if (strcasecmp(value, on) == 0) return true;
  }
  for (const char* off : {"0", "off", "false", "no"}) {
    if (strcasecmp(value, off) == 0) return false;
  }
  return fallback;
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = EnvValue(name);
  // strtoull would skip whitespace and wrap a '-' sign; require a digit.
  if (value == nullptr || !std::isdigit(static_cast<unsigned char>(*value))) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (*end != '\0' || errno == ERANGE) return fallback;
  return uint64_t(parsed);
}

double EnvDouble(const char* name, double fallback) {
  const char* value = EnvValue(name);
  if (value == nullptr || std::isspace(static_cast<unsigned char>(*value))) {
    return fallback;
  }
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (*end != '\0' || !std::isfinite(parsed)) return fallback;
  return parsed;
}

}  // namespace hytap
