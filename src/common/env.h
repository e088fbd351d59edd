#ifndef HYTAP_COMMON_ENV_H_
#define HYTAP_COMMON_ENV_H_

#include <cstdint>

namespace hytap {

/// The one parser of HYTAP_* environment knobs. Grammar, shared by every
/// knob:
///   - unset or empty: the fallback;
///   - flags: case-insensitive 1/on/true/yes and 0/off/false/no;
///   - numbers: must parse completely (no sign for EnvU64, finite for
///     EnvDouble);
///   - anything else: the fallback.
/// Per-knob range checks stay with the caller.
bool EnvFlag(const char* name, bool fallback);
uint64_t EnvU64(const char* name, uint64_t fallback);
double EnvDouble(const char* name, double fallback);

}  // namespace hytap

#endif  // HYTAP_COMMON_ENV_H_
