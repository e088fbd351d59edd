#include "storage/slot_synopsis.h"

#include <cmath>
#include <limits>
#include <type_traits>

#include "common/assert.h"

namespace hytap {

namespace {

bool IsIntegral(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64;
}

int64_t AsInt64(const Value& v, DataType type) {
  return type == DataType::kInt32 ? int64_t(v.AsInt32()) : v.AsInt64();
}

double AsDouble(const Value& v, DataType type) {
  return type == DataType::kFloat ? double(v.AsFloat()) : v.AsDouble();
}

}  // namespace

SlotSynopsis::SlotSynopsis(const RowLayout& layout,
                           const std::vector<TypedColumn>& columns) {
  const size_t slots = layout.member_count();
  HYTAP_ASSERT(columns.size() == slots, "column count does not match layout");
  const size_t rows_per_page = layout.rows_per_page();
  types_.resize(slots);
  mins_.resize(slots);
  maxs_.resize(slots);
  for (size_t slot = 0; slot < slots; ++slot) {
    types_[slot] = layout.slot_type(slot);
    std::visit(
        [&](const auto& values) {
          using T = typename std::decay_t<decltype(values)>::value_type;
          if constexpr (!std::is_same_v<T, std::string>) {  // strings: none
            // Bounds in the widened domain: int64 or double.
            using W = std::conditional_t<std::is_integral_v<T>, int64_t,
                                         double>;
            using Limits = std::numeric_limits<W>;
            auto field = [](Bound& b) -> W& {
              if constexpr (std::is_integral_v<T>) {
                return b.i;
              } else {
                return b.d;
              }
            };
            Bound init_min, init_max;
            field(init_min) = Limits::has_infinity ? Limits::infinity()
                                                   : Limits::max();
            field(init_max) = Limits::has_infinity ? -Limits::infinity()
                                                   : Limits::min();
            std::vector<Bound>& mins = mins_[slot];
            std::vector<Bound>& maxs = maxs_[slot];
            mins.assign(layout.PageCountFor(values.size()), init_min);
            maxs.assign(mins.size(), init_max);
            for (size_t r = 0; r < values.size(); ++r) {
              const size_t page = r / rows_per_page;
              const W v = values[r];
              if constexpr (std::is_floating_point_v<T>) {
                // NaN satisfies every range filter (!(v < lo) && !(hi < v)),
                // so a page holding one must never be pruned.
                if (std::isnan(v)) {
                  field(mins[page]) = -Limits::infinity();
                  field(maxs[page]) = Limits::infinity();
                }
              }
              if (v < field(mins[page])) field(mins[page]) = v;
              if (v > field(maxs[page])) field(maxs[page]) = v;
            }
          }
        },
        columns[slot]);
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
