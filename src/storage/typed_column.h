#ifndef HYTAP_STORAGE_TYPED_COLUMN_H_
#define HYTAP_STORAGE_TYPED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "storage/value.h"

namespace hytap {

/// One column's values in row order, unboxed to the column's type. The
/// main-partition rebuild gathers, encodes and writes these; the executor's
/// materialize pass fills them for non-projected aggregate inputs.
using TypedColumn = std::variant<std::vector<int32_t>, std::vector<int64_t>,
                                 std::vector<float>, std::vector<double>,
                                 std::vector<std::string>>;

/// `n` value-initialized cells of `type`.
TypedColumn MakeTypedColumn(DataType type, size_t n);

/// The alternatives follow DataType's order, so the index is the type.
inline DataType TypedColumnType(const TypedColumn& column) {
  return static_cast<DataType>(column.index());
}

size_t TypedColumnSize(const TypedColumn& column);

/// True if a floating-point column holds a NaN (never for other types).
bool HasNaN(const TypedColumn& column);

/// The column's cells boxed, for consumers that take Values (index and
/// statistics builds).
std::vector<Value> BoxColumn(const TypedColumn& column);

/// Transposes `rows` into one typed column per entry of `types`: cell i of
/// every row must hold a value of types[i].
std::vector<TypedColumn> TransposeRows(const std::vector<DataType>& types,
                                       const std::vector<Row>& rows);

}  // namespace hytap

#endif  // HYTAP_STORAGE_TYPED_COLUMN_H_
