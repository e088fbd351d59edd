#include "storage/table.h"

#include <algorithm>

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
  std::vector<std::vector<Value>> columns(schema_.size());
  for (auto& column : columns) column.reserve(rows.size());
  for (const Row& row : rows) {
    HYTAP_ASSERT(row.size() == schema_.size(), "row arity mismatch");
    for (size_t c = 0; c < schema_.size(); ++c) columns[c].push_back(row[c]);
  }
  main_row_count_ = rows.size();
  // All columns start DRAM-resident, so no SSCG is written and the rebuild
  // cannot fail.
  const Status status = RebuildMain(columns, placement_, nullptr);
  HYTAP_ASSERT(status.ok(), "all-DRAM bulk load cannot fail");
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

std::vector<Value> Table::CollectColumnValues(ColumnId column) const {
  std::vector<Value> values;
  values.reserve(main_row_count_);
  if (placement_[column]) {
    const AbstractColumn* mrc = mrc_columns_[column].get();
    for (RowId r = 0; r < main_row_count_; ++r) {
      values.push_back(mrc->GetValue(r));
    }
  } else {
    HYTAP_ASSERT(sscg_ != nullptr && store_ != nullptr,
                 "SSCG-placed column without SSCG/store");
    const int slot = sscg_->layout().SlotOf(column);
    HYTAP_ASSERT(slot >= 0, "column not a member of the SSCG");
    for (RowId r = 0; r < main_row_count_; ++r) {
      values.push_back(
          sscg_->RawValue(r, static_cast<size_t>(slot), *store_));
    }
  }
  return values;
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

Status Table::RebuildMain(const std::vector<std::vector<Value>>& columns,
                          const std::vector<bool>& in_dram,
                          uint64_t* migrated_bytes) {
  HYTAP_ASSERT(columns.size() == schema_.size(), "column count mismatch");
  std::vector<ColumnId> sscg_members;
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    // Build the dictionary-encoded representation for every column: kept as
    // the MRC when DRAM-resident, otherwise only measured so the selection
    // model knows the column's DRAM footprint a_i.
    auto mrc = BuildDictionaryColumn(schema_[c], columns[c]);
    column_dram_bytes_[c] = mrc->MemoryUsage();
    if (in_dram[c]) {
      mrc_columns_[c] = std::move(mrc);
    } else {
      mrc_columns_[c].reset();
      sscg_members.push_back(c);
    }
  }
  if (migrated_bytes != nullptr) {
    for (ColumnId c = 0; c < schema_.size(); ++c) {
      const bool was_dram = placement_[c];
      if (was_dram != in_dram[c]) *migrated_bytes += column_dram_bytes_[c];
    }
  }
  placement_ = in_dram;
  if (sscg_members.empty()) {
    sscg_.reset();
    return Status::Ok();
  }
  HYTAP_ASSERT(store_ != nullptr,
               "evicting columns requires a secondary store");
  RowLayout layout(schema_, sscg_members);
  std::vector<Row> rows(main_row_count_);
  for (RowId r = 0; r < main_row_count_; ++r) {
    Row& row = rows[r];
    row.reserve(sscg_members.size());
    for (ColumnId c : sscg_members) row.push_back(columns[c][r]);
  }
  sscg_ = std::make_unique<Sscg>(std::move(layout), rows, store_);
  // Verify-after-write: read back every freshly written page's checksum
  // before the DRAM copy is dropped. A silently corrupted eviction would
  // otherwise only surface at query time, when the data is unrecoverable.
  Status verify = VerifySscgPages();
  if (!verify.ok()) {
    // Abort the eviction: the column values are still in memory, so rebuild
    // with everything DRAM-resident (cannot fail — writes no pages).
    const std::vector<bool> all_dram(schema_.size(), true);
    const Status fallback = RebuildMain(columns, all_dram, nullptr);
    HYTAP_ASSERT(fallback.ok(), "all-DRAM rebuild cannot fail");
    return verify;
  }
  return Status::Ok();
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
  std::vector<std::vector<Value>> columns(schema_.size());
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    columns[c] = CollectColumnValues(c);
  }
  const Status rebuild = RebuildMain(columns, in_dram, migrated_bytes);
  // Even on a failed (aborted, now all-DRAM) eviction the indexes and
  // statistics must match the new main partition.
  RebuildIndexes();
  if (statistics_ != nullptr) {
    statistics_ = std::make_unique<TableStatistics>(
        TableStatistics::Build(schema_, columns, statistics_buckets_));
  }
  return rebuild;
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
  std::vector<std::vector<Value>> columns(schema_.size());
  size_t new_count = 0;
  for (RowId r = 0; r < main_row_count_; ++r) {
    if (txns_->IsDeleted(main_end_tids_[r], merge_view)) continue;
    for (ColumnId c = 0; c < schema_.size(); ++c) {
      // Raw gather: main rows come from MRC or SSCG raw pages.
      if (placement_[c]) {
        columns[c].push_back(mrc_columns_[c]->GetValue(r));
      } else {
        const int slot = sscg_->layout().SlotOf(c);
        columns[c].push_back(
            sscg_->RawValue(r, static_cast<size_t>(slot), *store_));
      }
    }
    ++new_count;
  }
  for (size_t d = 0; d < delta_row_count(); ++d) {
    if (!txns_->IsVisible(delta_begin_tids_[d], merge_view)) continue;
    if (txns_->IsDeleted(delta_end_tids_[d], merge_view)) continue;
    for (ColumnId c = 0; c < schema_.size(); ++c) {
      columns[c].push_back(delta_columns_[c]->GetValue(d));
    }
    ++new_count;
  }
  main_row_count_ = new_count;
  // On a failed SSCG rewrite the rebuild falls back to all-DRAM: the merge
  // itself still completes (the gathered values are authoritative), only
  // the eviction is lost — report that via the returned status.
  const Status rebuild = RebuildMain(columns, placement_, nullptr);
  RebuildIndexes();
  if (statistics_ != nullptr) {
    statistics_ = std::make_unique<TableStatistics>(
        TableStatistics::Build(schema_, columns, statistics_buckets_));
  }
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
  std::vector<std::vector<Value>> values;
  values.reserve(columns.size());
  std::vector<DataType> types;
  for (ColumnId c : columns) {
    values.push_back(CollectColumnValues(c));
    types.push_back(schema_[c].type);
  }
  if (columns.size() == 1) {
    indexes_.push_back(std::make_unique<SingleColumnIndex>(
        columns[0], types[0], values[0]));
  } else {
    indexes_.push_back(
        std::make_unique<CompositeIndex>(columns, types, values));
  }
  return Status::Ok();
}

void Table::RebuildIndexes() {
  indexes_.clear();
  for (const auto& columns : index_definitions_) {
    std::vector<std::vector<Value>> values;
    std::vector<DataType> types;
    for (ColumnId c : columns) {
      values.push_back(CollectColumnValues(c));
      types.push_back(schema_[c].type);
    }
    if (columns.size() == 1) {
      indexes_.push_back(std::make_unique<SingleColumnIndex>(
          columns[0], types[0], values[0]));
    } else {
      indexes_.push_back(
          std::make_unique<CompositeIndex>(columns, types, values));
    }
  }
}

void Table::BuildStatistics(size_t bucket_count) {
  statistics_buckets_ = bucket_count;
  std::vector<std::vector<Value>> columns(schema_.size());
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    columns[c] = CollectColumnValues(c);
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
