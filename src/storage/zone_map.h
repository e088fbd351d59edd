#ifndef HYTAP_STORAGE_ZONE_MAP_H_
#define HYTAP_STORAGE_ZONE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hytap {

/// Rows covered by one zone-map entry. Matches the MRC scan morsel size
/// (`kScanMorselRows`, asserted in query/scan.cc) so a pruned zone skips a
/// whole morsel before any decode work is scheduled.
inline constexpr size_t kZoneMapRows = 1 << 16;

/// Master switch for all data skipping (MRC zone maps, SSCG page synopses,
/// candidate-restricted tiered scans). Initialized from the HYTAP_ZONE_MAPS
/// environment flag (common/env.h grammar; default on).
/// Pruning is a pure function of immutable metadata, so toggling the knob
/// never changes query results — only how much data is touched.
bool ZoneMapsEnabled();

/// Runtime override used by tests and benchmarks to compare the pruned and
/// unpruned executions in one process.
void SetZoneMapsEnabled(bool enabled);

/// Per-zone min/max dictionary codes of a bit-packed MRC code vector.
///
/// Maintained incrementally on Append (and conservatively widened on Set),
/// so the bounds always cover every code written to the zone: a predicate
/// whose code interval misses [min, max] provably has no match in the zone
/// and the scan skips the decode entirely. 16 bytes per 64 Ki rows
/// (~0.003 % of a 32-bit column) — excluded from the column's MemoryUsage
/// so the cost model and DRAM budgets stay comparable to the seed engine.
class ZoneMap {
 public:
  /// Widens the zone containing `row` to cover `code`.
  void Update(size_t row, uint64_t code) {
    const size_t zone = row / kZoneMapRows;
    if (zone >= zones_.size()) {
      zones_.resize(zone + 1, Zone{~0ULL, 0});
    }
    Zone& z = zones_[zone];
    if (code < z.min_code) z.min_code = code;
    if (code > z.max_code) z.max_code = code;
  }

  /// True when no row in [row_begin, row_end) can hold a code in the
  /// half-open interval [code_lo, code_hi). Conservative: zones overlapping
  /// the range are tested whole, so false only means "may contain".
  bool Prunes(size_t row_begin, size_t row_end, uint64_t code_lo,
              uint64_t code_hi) const {
    if (row_begin >= row_end || code_lo >= code_hi) return true;
    const size_t zone_begin = row_begin / kZoneMapRows;
    const size_t zone_end = (row_end - 1) / kZoneMapRows + 1;
    for (size_t z = zone_begin; z < zone_end && z < zones_.size(); ++z) {
      if (zones_[z].max_code >= code_lo && zones_[z].min_code < code_hi) {
        return false;
      }
    }
    return true;
  }

  size_t zone_count() const { return zones_.size(); }
  uint64_t zone_min(size_t zone) const { return zones_[zone].min_code; }
  uint64_t zone_max(size_t zone) const { return zones_[zone].max_code; }
  size_t MemoryUsage() const { return zones_.size() * sizeof(Zone); }

 private:
  struct Zone {
    uint64_t min_code;
    uint64_t max_code;
  };
  std::vector<Zone> zones_;
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_ZONE_MAP_H_
