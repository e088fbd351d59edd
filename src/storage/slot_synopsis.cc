#include "storage/slot_synopsis.h"

#include <cmath>
#include <limits>

#include "common/assert.h"

namespace hytap {

namespace {

bool IsIntegral(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64;
}

bool IsFloating(DataType type) {
  return type == DataType::kFloat || type == DataType::kDouble;
}

int64_t AsInt64(const Value& v, DataType type) {
  return type == DataType::kInt32 ? int64_t(v.AsInt32()) : v.AsInt64();
}

double AsDouble(const Value& v, DataType type) {
  return type == DataType::kFloat ? double(v.AsFloat()) : v.AsDouble();
}

}  // namespace

SlotSynopsis::SlotSynopsis(const RowLayout& layout,
                           const std::vector<Row>& rows) {
  const size_t slots = layout.member_count();
  const size_t pages = layout.PageCountFor(rows.size());
  types_.resize(slots);
  mins_.resize(slots);
  maxs_.resize(slots);
  for (size_t slot = 0; slot < slots; ++slot) {
    const DataType type = layout.slot_type(slot);
    types_[slot] = type;
    if (!IsIntegral(type) && !IsFloating(type)) continue;  // strings: none
    Bound init_min, init_max;
    if (IsIntegral(type)) {
      init_min.i = std::numeric_limits<int64_t>::max();
      init_max.i = std::numeric_limits<int64_t>::min();
    } else {
      init_min.d = std::numeric_limits<double>::infinity();
      init_max.d = -std::numeric_limits<double>::infinity();
    }
    mins_[slot].assign(pages, init_min);
    maxs_[slot].assign(pages, init_max);
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    const size_t page = r / layout.rows_per_page();
    const Row& row = rows[r];
    HYTAP_ASSERT(row.size() == slots, "row arity does not match layout");
    for (size_t slot = 0; slot < slots; ++slot) {
      if (mins_[slot].empty()) continue;
      if (IsIntegral(types_[slot])) {
        const int64_t v = AsInt64(row[slot], types_[slot]);
        if (v < mins_[slot][page].i) mins_[slot][page].i = v;
        if (v > maxs_[slot][page].i) maxs_[slot][page].i = v;
      } else {
        const double v = AsDouble(row[slot], types_[slot]);
        if (std::isnan(v)) {
          // NaN satisfies every range filter (!(v < lo) && !(hi < v)), so
          // a page holding one must never be pruned.
          mins_[slot][page].d = -std::numeric_limits<double>::infinity();
          maxs_[slot][page].d = std::numeric_limits<double>::infinity();
        }
        if (v < mins_[slot][page].d) mins_[slot][page].d = v;
        if (v > maxs_[slot][page].d) maxs_[slot][page].d = v;
      }
    }
  }
}

bool SlotSynopsis::Prunes(size_t page, size_t slot, const Value* lo,
                          const Value* hi) const {
  if (!has_slot(slot) || page >= mins_[slot].size()) return false;
  const DataType type = types_[slot];
  if (IsIntegral(type)) {
    if (lo != nullptr && AsInt64(*lo, type) > maxs_[slot][page].i) return true;
    if (hi != nullptr && AsInt64(*hi, type) < mins_[slot][page].i) return true;
    return false;
  }
  if (lo != nullptr && AsDouble(*lo, type) > maxs_[slot][page].d) return true;
  if (hi != nullptr && AsDouble(*hi, type) < mins_[slot][page].d) return true;
  return false;
}

size_t SlotSynopsis::MemoryUsage() const {
  size_t bytes = types_.size() * sizeof(DataType);
  for (size_t slot = 0; slot < mins_.size(); ++slot) {
    bytes += (mins_[slot].size() + maxs_[slot].size()) * sizeof(Bound);
  }
  return bytes;
}

}  // namespace hytap
