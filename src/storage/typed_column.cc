#include "storage/typed_column.h"

#include <cmath>
#include <type_traits>

#include "common/assert.h"

namespace hytap {

TypedColumn MakeTypedColumn(DataType type, size_t n) {
  switch (type) {
    case DataType::kInt32:
      return std::vector<int32_t>(n);
    case DataType::kInt64:
      return std::vector<int64_t>(n);
    case DataType::kFloat:
      return std::vector<float>(n);
    case DataType::kDouble:
      return std::vector<double>(n);
    case DataType::kString:
      return std::vector<std::string>(n);
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

size_t TypedColumnSize(const TypedColumn& column) {
  return std::visit([](const auto& values) { return values.size(); }, column);
}

bool HasNaN(const TypedColumn& column) {
  return std::visit(
      [](const auto& values) {
        using T = typename std::decay_t<decltype(values)>::value_type;
        if constexpr (std::is_floating_point_v<T>) {
          for (const T v : values) {
            if (std::isnan(v)) return true;
          }
        }
        return false;
      },
      column);
}

std::vector<Value> BoxColumn(const TypedColumn& column) {
  return std::visit(
      [](const auto& values) {
        std::vector<Value> boxed;
        boxed.reserve(values.size());
        for (const auto& v : values) boxed.emplace_back(v);
        return boxed;
      },
      column);
}

std::vector<TypedColumn> TransposeRows(const std::vector<DataType>& types,
                                       const std::vector<Row>& rows) {
  std::vector<TypedColumn> columns;
  columns.reserve(types.size());
  for (DataType type : types) {
    columns.push_back(MakeTypedColumn(type, rows.size()));
  }
  // Row-major: one pass over the rows, each cell stored into its column.
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    HYTAP_ASSERT(row.size() == types.size(), "row arity mismatch");
    for (size_t c = 0; c < types.size(); ++c) {
      std::visit(
          [&](auto& values) {
            using T = typename std::decay_t<decltype(values)>::value_type;
            values[r] = row[c].template As<T>();
          },
          columns[c]);
    }
  }
  return columns;
}

}  // namespace hytap
