#ifndef HYTAP_STORAGE_SLOT_SYNOPSIS_H_
#define HYTAP_STORAGE_SLOT_SYNOPSIS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/row_layout.h"
#include "storage/typed_column.h"
#include "storage/value.h"

namespace hytap {

/// Per-page min/max bounds for every numeric member slot of an SSCG.
///
/// Built once from the intended row contents when the group is written
/// (RebuildMain / merge), never from the stored bytes: the synopsis keeps
/// describing the data that was *meant* to be on a page even if the media
/// later corrupts it, so a pruned page is provably irrelevant to the query
/// and skipping it can only reproduce the fault-free answer.
///
/// Bounds are widened to the slot's native domain (int32/int64 -> int64,
/// float/double -> double) and stored as 16 bytes per (page, slot). String
/// slots carry no synopsis (their scans never prune) — this caps the
/// metadata at 16 B x pages x numeric-slots, a few MB even for the widest
/// benchmark groups.
class SlotSynopsis {
 public:
  SlotSynopsis() = default;

  /// Builds bounds from the values about to be written: columns[s] holds
  /// member slot s's values in row order, as passed to the Sscg
  /// constructor.
  SlotSynopsis(const RowLayout& layout,
               const std::vector<TypedColumn>& columns);

  /// True if `slot` carries bounds (numeric, non-empty group).
  bool has_slot(size_t slot) const {
    return slot < mins_.size() && !mins_[slot].empty();
  }

  /// True when no row on `page` can satisfy the closed interval [lo, hi]
  /// (null = unbounded) on member slot `slot`. Conservative: false for
  /// string slots, unknown pages, or overlapping bounds.
  bool Prunes(size_t page, size_t slot, const Value* lo,
              const Value* hi) const;

  size_t MemoryUsage() const;

 private:
  union Bound {
    int64_t i;
    double d;
  };

  std::vector<DataType> types_;              // per slot
  std::vector<std::vector<Bound>> mins_;     // [slot][page]; empty = no bounds
  std::vector<std::vector<Bound>> maxs_;
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_SLOT_SYNOPSIS_H_
