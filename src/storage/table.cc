#include "storage/table.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "common/assert.h"
#include "storage/dictionary_column.h"

namespace hytap {

Table::Table(std::string name, Schema schema, TransactionManager* txns,
             SecondaryStore* store, BufferManager* buffers)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      txns_(txns),
      store_(store),
      buffers_(buffers) {
  HYTAP_ASSERT(!schema_.empty(), "table needs at least one column");
  HYTAP_ASSERT(txns_ != nullptr, "table needs a transaction manager");
  mrc_columns_.resize(schema_.size());
  placement_.assign(schema_.size(), true);
  column_dram_bytes_.assign(schema_.size(), 0);
  delta_columns_.reserve(schema_.size());
  for (const auto& def : schema_) {
    delta_columns_.push_back(MakeValueColumn(def));
  }
}

void Table::BulkLoad(const std::vector<Row>& rows) {
  HYTAP_ASSERT(!bulk_loaded_, "BulkLoad may only run once");
  HYTAP_ASSERT(delta_row_count() == 0, "BulkLoad must precede inserts");
  bulk_loaded_ = true;
  std::vector<DataType> types;
  for (const auto& def : schema_) types.push_back(def.type);
  std::vector<std::optional<TypedColumn>> columns;
  for (TypedColumn& column : TransposeRows(types, rows)) {
    columns.emplace_back(std::move(column));
  }
  // All columns start DRAM-resident, so no SSCG is written: the rebuild
  // fails only on a NaN, which an MRC cannot hold.
  bool committed = false;
  const Status status = RebuildMain(&columns, placement_,
                                    /*data_changed=*/true, nullptr, &committed);
  HYTAP_ASSERT(status.ok(), status.message().c_str());
  main_end_tids_.assign(main_row_count_, kMaxTransactionId);
}

Status Table::Insert(const Transaction& txn, const Row& row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (row[c].type() != schema_[c].type) {
      return Status::InvalidArgument("value type mismatch in column " +
                                     schema_[c].name);
    }
  }
  for (size_t c = 0; c < schema_.size(); ++c) {
    AppendValue(delta_columns_[c].get(), row[c]);
  }
  delta_begin_tids_.push_back(txn.tid);
  delta_end_tids_.push_back(kMaxTransactionId);
  return Status::Ok();
}

Status Table::Delete(const Transaction& txn, RowId row) {
  if (row >= row_count()) {
    return Status::OutOfRange("row id out of range");
  }
  if (row < main_row_count_) {
    main_end_tids_[row] = txn.tid;
  } else {
    delta_end_tids_[row - main_row_count_] = txn.tid;
  }
  return Status::Ok();
}

bool Table::IsVisible(RowId row, const Transaction& txn) const {
  HYTAP_ASSERT(row < row_count(), "row id out of range");
  if (row < main_row_count_) {
    return !txns_->IsDeleted(main_end_tids_[row], txn);
  }
  const size_t d = row - main_row_count_;
  return txns_->IsVisible(delta_begin_tids_[d], txn) &&
         !txns_->IsDeleted(delta_end_tids_[d], txn);
}

StatusOr<Value> Table::GetValue(ColumnId column, RowId row,
                                uint32_t queue_depth, IoStats* io) const {
  HYTAP_ASSERT(column < schema_.size(), "column id out of range");
  HYTAP_ASSERT(row < row_count(), "row id out of range");
  if (row >= main_row_count_) {
    if (io != nullptr) io->dram_ns += 2 * kDramTouchNs;
    return delta_columns_[column]->GetValue(row - main_row_count_);
  }
  if (placement_[column]) {
    if (io != nullptr) io->dram_ns += 2 * kDramTouchNs;
    return mrc_columns_[column]->GetValue(row);
  }
  HYTAP_ASSERT(sscg_ != nullptr, "SSCG-placed column without SSCG");
  HYTAP_ASSERT(buffers_ != nullptr, "tiered table needs a buffer manager");
  const int slot = sscg_->layout().SlotOf(column);
  HYTAP_ASSERT(slot >= 0, "column not a member of the SSCG");
  return sscg_->ProbeValue(row, static_cast<size_t>(slot), buffers_,
                           queue_depth, io);
}

StatusOr<Row> Table::ReconstructRow(RowId row, uint32_t queue_depth,
                                    IoStats* io) const {
  HYTAP_ASSERT(row < row_count(), "row id out of range");
  Row result(schema_.size());
  if (row >= main_row_count_) {
    const RowId d = row - main_row_count_;
    for (size_t c = 0; c < schema_.size(); ++c) {
      result[c] = delta_columns_[c]->GetValue(d);
      if (io != nullptr) io->dram_ns += 2 * kDramTouchNs;
    }
    return result;
  }
  // SSCG part: one page access covers all member attributes.
  if (sscg_ != nullptr && sscg_->layout().member_count() > 0) {
    auto tuple = sscg_->FetchTuple(row, buffers_, queue_depth, io);
    if (!tuple.ok()) return tuple.status();
    const RowLayout& layout = sscg_->layout();
    const auto& members = layout.member_columns();
    for (size_t slot = 0; slot < members.size(); ++slot) {
      result[members[slot]] = layout.DeserializeSlot(*tuple, slot);
    }
  }
  // MRC part: two DRAM touches per attribute (value vector + dictionary).
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (!placement_[c]) continue;
    result[c] = mrc_columns_[c]->GetValue(row);
    if (io != nullptr) io->dram_ns += 2 * kDramTouchNs;
  }
  return result;
}

TypedColumn Table::GatherMain(ColumnId column,
                              const std::vector<RowId>& rows) const {
  TypedColumn out = MakeTypedColumn(schema_[column].type, rows.size());
  std::visit(
      [&](auto& values) {
        using T = typename std::decay_t<decltype(values)>::value_type;
        if (placement_[column]) {
          static_cast<const DictionaryColumn<T>&>(*mrc_columns_[column])
              .Gather(rows.data(), rows.size(), values.data());
          return;
        }
        HYTAP_ASSERT(sscg_ != nullptr && store_ != nullptr,
                     "SSCG-placed column without SSCG/store");
        const int slot = sscg_->layout().SlotOf(column);
        HYTAP_ASSERT(slot >= 0, "column not a member of the SSCG");
        for (size_t i = 0; i < rows.size(); ++i) {
          values[i] = sscg_->layout().ReadSlot<T>(
              sscg_->RawTuple(rows[i], *store_), size_t(slot));
        }
      },
      out);
  return out;
}

std::vector<RowId> Table::MainRows() const {
  std::vector<RowId> rows(main_row_count_);
  std::iota(rows.begin(), rows.end(), RowId{0});
  return rows;
}

Status Table::VerifySscgPages() const {
  if (sscg_ == nullptr) return Status::Ok();
  HYTAP_ASSERT(store_ != nullptr, "SSCG without a store");
  for (PageId id : sscg_->page_ids()) {
    Status status = store_->VerifyPage(id);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status Table::RebuildMain(std::vector<std::optional<TypedColumn>>* columns,
                          const std::vector<bool>& in_dram, bool data_changed,
                          uint64_t* migrated_bytes, bool* committed) {
  std::vector<std::optional<TypedColumn>>& values = *columns;
  HYTAP_ASSERT(values.size() == schema_.size(), "column count mismatch");
  HYTAP_ASSERT(in_dram.size() == schema_.size(), "placement arity mismatch");
  *committed = false;
  size_t rows = main_row_count_;
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (values[c].has_value()) {
      rows = TypedColumnSize(*values[c]);
    } else {
      HYTAP_ASSERT(placement_[c] && in_dram[c],
                   "only a column staying in DRAM may keep its MRC");
    }
  }
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (in_dram[c] && values[c].has_value() && HasNaN(*values[c])) {
      return Status::InvalidArgument(
          "column " + schema_[c].name +
          " holds a NaN, which an MRC cannot encode");
    }
  }

  // Encode the DRAM-bound columns that need it; measure the footprint of
  // SSCG-bound ones only when their values changed.
  std::vector<std::unique_ptr<AbstractColumn>> built(schema_.size());
  std::vector<size_t> bytes = column_dram_bytes_;
  std::vector<ColumnId> members;
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (!values[c].has_value()) continue;
    if (in_dram[c]) {
      built[c] = BuildDictionaryColumn(*values[c]);
      bytes[c] = built[c]->MemoryUsage();
    } else {
      if (data_changed) bytes[c] = DictionaryMemoryUsage(*values[c]);
      members.push_back(c);
    }
  }
  std::vector<bool> placement = in_dram;
  std::unique_ptr<Sscg> sscg;
  Status verify = Status::Ok();
  if (!members.empty()) {
    HYTAP_ASSERT(store_ != nullptr,
                 "evicting columns requires a secondary store");
    // The member columns are lent to the group writer, then returned.
    std::vector<TypedColumn> slots;
    for (ColumnId c : members) slots.push_back(std::move(*values[c]));
    sscg = std::make_unique<Sscg>(RowLayout(schema_, members), slots, store_);
    for (size_t slot = 0; slot < members.size(); ++slot) {
      values[members[slot]] = std::move(slots[slot]);
    }
    // Verify-after-write: read back every freshly written page's checksum
    // before the DRAM copy is dropped. A silently corrupted eviction would
    // otherwise only surface at query time, when the data is unrecoverable.
    for (PageId id : sscg->page_ids()) {
      verify = store_->VerifyPage(id);
      if (!verify.ok()) break;
    }
  }
  if (!verify.ok()) {
    // Abort the eviction: the values are still in memory, so every member
    // becomes an MRC — its current one if the data did not change.
    for (ColumnId c : members) {
      if (HasNaN(*values[c])) return verify;
    }
    for (ColumnId c : members) {
      if (!data_changed && placement_[c]) continue;
      built[c] = BuildDictionaryColumn(*values[c]);
      bytes[c] = built[c]->MemoryUsage();
    }
    placement.assign(schema_.size(), true);
    sscg.reset();
  }

  if (migrated_bytes != nullptr) {
    for (ColumnId c = 0; c < schema_.size(); ++c) {
      if (placement_[c] != in_dram[c]) *migrated_bytes += bytes[c];
    }
  }
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (built[c] != nullptr) {
      mrc_columns_[c] = std::move(built[c]);
    } else if (!placement[c]) {
      mrc_columns_[c].reset();
    }
  }
  main_row_count_ = rows;
  column_dram_bytes_ = std::move(bytes);
  placement_ = std::move(placement);
  sscg_ = std::move(sscg);
  *committed = true;
  return verify;
}

Status Table::SetPlacement(const std::vector<bool>& in_dram,
                           uint64_t* migrated_bytes) {
  if (in_dram.size() != schema_.size()) {
    return Status::InvalidArgument("placement arity mismatch");
  }
  bool any_evicted = false;
  for (bool d : in_dram) any_evicted |= !d;
  if (any_evicted && (store_ == nullptr || buffers_ == nullptr)) {
    return Status::FailedPrecondition(
        "table has no secondary store / buffer manager");
  }
  // The gather below reads SSCG pages raw (no checksum on the read path),
  // so verify them first: silently corrupted bytes must not be laundered
  // into fresh MRCs.
  Status verify = VerifySscgPages();
  if (!verify.ok()) return verify;
  // Gather only the columns whose MRC is not kept: those bound for the SSCG
  // (which is rewritten as a whole) and those moving into DRAM.
  const std::vector<RowId> rows = MainRows();
  std::vector<std::optional<TypedColumn>> columns(schema_.size());
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (placement_[c] && in_dram[c]) continue;
    columns[c] = GatherMain(c, rows);
  }
  bool committed = false;
  return RebuildMain(&columns, in_dram, /*data_changed=*/false,
                     migrated_bytes, &committed);
}

Status Table::MergeDelta() {
  // Survivors: main rows not invalidated by a committed transaction, then
  // committed delta rows not invalidated. Uses a maximal snapshot.
  Transaction merge_view;
  merge_view.tid = 0;
  merge_view.snapshot_cid = txns_->last_commit_cid();
  // The gather reads SSCG pages raw; refuse to merge from corrupt bytes
  // (the table, delta included, is left untouched).
  Status verify = VerifySscgPages();
  if (!verify.ok()) return verify;
  std::vector<RowId> main_rows;
  main_rows.reserve(main_row_count_);
  for (RowId r = 0; r < main_row_count_; ++r) {
    if (!txns_->IsDeleted(main_end_tids_[r], merge_view)) {
      main_rows.push_back(r);
    }
  }
  std::vector<RowId> delta_rows;
  for (RowId d = 0; d < delta_row_count(); ++d) {
    if (!txns_->IsVisible(delta_begin_tids_[d], merge_view)) continue;
    if (txns_->IsDeleted(delta_end_tids_[d], merge_view)) continue;
    delta_rows.push_back(d);
  }
  std::vector<std::optional<TypedColumn>> columns(schema_.size());
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    columns[c] = GatherMain(c, main_rows);
    std::visit(
        [&](auto& values) {
          using T = typename std::decay_t<decltype(values)>::value_type;
          const auto& delta =
              static_cast<const ValueColumn<T>&>(*delta_columns_[c]);
          values.reserve(values.size() + delta_rows.size());
          for (RowId d : delta_rows) values.push_back(delta.Get(d));
        },
        *columns[c]);
  }
  // On a failed SSCG rewrite the rebuild falls back to all-DRAM: the merge
  // itself still completes (the gathered values are authoritative), only
  // the eviction is lost — report that via the returned status.
  const std::vector<bool> placement = placement_;
  bool committed = false;
  const Status rebuild = RebuildMain(&columns, placement,
                                     /*data_changed=*/true, nullptr,
                                     &committed);
  if (!committed) return rebuild;
  RebuildIndexesAndStatistics(columns);
  main_end_tids_.assign(main_row_count_, kMaxTransactionId);
  // Reset the delta partition.
  delta_columns_.clear();
  for (const auto& def : schema_) {
    delta_columns_.push_back(MakeValueColumn(def));
  }
  delta_begin_tids_.clear();
  delta_end_tids_.clear();
  return rebuild;
}

namespace {

std::unique_ptr<MainIndex> MakeIndex(
    const std::vector<ColumnId>& columns, const std::vector<DataType>& types,
    const std::vector<std::vector<Value>>& values) {
  if (columns.size() == 1) {
    return std::make_unique<SingleColumnIndex>(columns[0], types[0],
                                               values[0]);
  }
  return std::make_unique<CompositeIndex>(columns, types, values);
}

}  // namespace

Status Table::CreateIndex(const std::vector<ColumnId>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  for (ColumnId c : columns) {
    if (c >= schema_.size()) {
      return Status::InvalidArgument("index column out of range");
    }
  }
  index_definitions_.push_back(columns);
  // Build just the new index (others are current).
  const std::vector<RowId> rows = MainRows();
  std::vector<std::vector<Value>> values;
  std::vector<DataType> types;
  for (ColumnId c : columns) {
    values.push_back(BoxColumn(GatherMain(c, rows)));
    types.push_back(schema_[c].type);
  }
  indexes_.push_back(MakeIndex(columns, types, values));
  return Status::Ok();
}

void Table::RebuildIndexesAndStatistics(
    const std::vector<std::optional<TypedColumn>>& columns) {
  indexes_.clear();
  for (const auto& index_columns : index_definitions_) {
    std::vector<std::vector<Value>> values;
    std::vector<DataType> types;
    for (ColumnId c : index_columns) {
      values.push_back(BoxColumn(*columns[c]));
      types.push_back(schema_[c].type);
    }
    indexes_.push_back(MakeIndex(index_columns, types, values));
  }
  if (statistics_ != nullptr) {
    std::vector<std::vector<Value>> values;
    for (const auto& column : columns) values.push_back(BoxColumn(*column));
    statistics_ = std::make_unique<TableStatistics>(
        TableStatistics::Build(schema_, values, statistics_buckets_));
  }
}

void Table::BuildStatistics(size_t bucket_count) {
  statistics_buckets_ = bucket_count;
  const std::vector<RowId> rows = MainRows();
  std::vector<std::vector<Value>> columns(schema_.size());
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    columns[c] = BoxColumn(GatherMain(c, rows));
  }
  statistics_ = std::make_unique<TableStatistics>(
      TableStatistics::Build(schema_, columns, bucket_count));
}

const MainIndex* Table::FindIndex(ColumnId column) const {
  for (const auto& index : indexes_) {
    if (index->columns().size() == 1 && index->columns()[0] == column) {
      return index.get();
    }
  }
  return nullptr;
}

const MainIndex* Table::FindCompositeIndex(
    const std::vector<ColumnId>& columns) const {
  for (const auto& index : indexes_) {
    if (index->columns().size() < 2) continue;
    bool covered = true;
    for (ColumnId key_part : index->columns()) {
      if (std::find(columns.begin(), columns.end(), key_part) ==
          columns.end()) {
        covered = false;
        break;
      }
    }
    if (covered) return index.get();
  }
  return nullptr;
}

size_t Table::IndexDramBytes() const {
  size_t total = 0;
  for (const auto& index : indexes_) total += index->MemoryUsage();
  return total;
}

size_t Table::MainDramBytes() const {
  size_t total = 0;
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (placement_[c]) total += column_dram_bytes_[c];
  }
  return total;
}

double Table::SelectivityEstimate(ColumnId column) const {
  HYTAP_ASSERT(column < schema_.size(), "column id out of range");
  size_t distinct = 0;
  if (placement_[column] && mrc_columns_[column] != nullptr) {
    distinct = mrc_columns_[column]->distinct_count();
  } else {
    // SSCG-placed: fall back to the delta dictionary or a pessimistic guess.
    distinct = std::max<size_t>(delta_columns_[column]->distinct_count(), 1);
  }
  if (distinct == 0) distinct = 1;
  return 1.0 / static_cast<double>(distinct);
}

}  // namespace hytap
