#ifndef HYTAP_STORAGE_ROW_LAYOUT_H_
#define HYTAP_STORAGE_ROW_LAYOUT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "storage/column.h"

namespace hytap {

/// Fixed-width row layout of a Secondary Storage Column Group (SSCG).
///
/// The member attributes of an SSCG are stored adjacently and uncompressed
/// (paper §II-A): trading space for perfect point-access locality, so a
/// full-width tuple reconstruction touches a single 4 KB page. Rows never
/// span pages.
class RowLayout {
 public:
  /// Builds the layout for the subset `member_columns` (table column ids) of
  /// `schema`. The combined row width must fit into one page.
  RowLayout(const Schema& schema, std::vector<ColumnId> member_columns);

  size_t row_width() const { return row_width_; }
  size_t rows_per_page() const { return rows_per_page_; }
  const std::vector<ColumnId>& member_columns() const {
    return member_columns_;
  }
  size_t member_count() const { return member_columns_.size(); }

  /// Returns the slot index of table column `column`, or -1 if the column is
  /// not a member of this group.
  int SlotOf(ColumnId column) const;

  /// Data type stored in member slot `slot`.
  DataType slot_type(size_t slot) const { return slots_[slot].type; }
  /// Every member slot's type, in member order.
  std::vector<DataType> SlotTypes() const {
    std::vector<DataType> types;
    for (const Slot& s : slots_) types.push_back(s.type);
    return types;
  }
  /// Byte offset of member slot `slot` inside a row.
  size_t slot_offset(size_t slot) const { return slots_[slot].offset; }

  /// Page that holds `row`, and the byte offset of the row inside the page.
  PageId PageOf(RowId row) const { return row / rows_per_page_; }
  size_t OffsetInPage(RowId row) const {
    return (row % rows_per_page_) * row_width_;
  }

  /// Number of pages needed for `rows` rows.
  size_t PageCountFor(size_t rows) const {
    return rows == 0 ? 0 : (rows + rows_per_page_ - 1) / rows_per_page_;
  }

  /// Serializes `values` (one per member slot, in member order) at `dest`.
  void SerializeRow(const Row& values, uint8_t* dest) const;

  /// Deserializes the value of member slot `slot` from a row at `src`.
  Value DeserializeSlot(const uint8_t* src, size_t slot) const;

  /// Deserializes the full row (member order).
  Row DeserializeRow(const uint8_t* src) const;

  /// Unboxed SerializeFixed of one member slot: writes `value` (of the
  /// slot's type) into slot `slot` of the row at `row`.
  template <typename T>
  void WriteSlot(size_t slot, const T& value, uint8_t* row) const {
    const Slot& s = slots_[slot];
    uint8_t* dest = row + s.offset;
    if constexpr (std::is_same_v<T, std::string>) {
      const size_t n = std::min(value.size(), s.width);
      std::memcpy(dest, value.data(), n);
      std::memset(dest + n, 0, s.width - n);
    } else {
      std::memcpy(dest, &value, sizeof(T));
    }
  }

  /// Unboxed DeserializeSlot: the value (of the slot's type) in slot `slot`
  /// of the row at `row`.
  template <typename T>
  T ReadSlot(const uint8_t* row, size_t slot) const {
    const Slot& s = slots_[slot];
    const uint8_t* src = row + s.offset;
    if constexpr (std::is_same_v<T, std::string>) {
      size_t len = s.width;  // stored zero-padded; trim trailing NULs
      while (len > 0 && src[len - 1] == 0) --len;
      return std::string(reinterpret_cast<const char*>(src), len);
    } else {
      T value;
      std::memcpy(&value, src, sizeof(T));
      return value;
    }
  }

 private:
  struct Slot {
    size_t offset;
    size_t width;
    DataType type;
  };

  std::vector<ColumnId> member_columns_;
  std::vector<Slot> slots_;
  std::vector<int> slot_of_;  // table column id -> slot or -1
  size_t row_width_;
  size_t rows_per_page_;
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_ROW_LAYOUT_H_
