// The unit of flow of the batch execution engine: a reusable block of rows
// plus a selection vector.
//
// Batch-at-a-time execution (MonetDB/X100-style vectorization) replaces the
// row-at-a-time Volcano protocol: one virtual Next(RowBatch*) call moves up
// to `capacity` tuples, so the per-tuple interpretation overhead (virtual
// dispatch, Result<bool> unwrapping) is amortized over the whole batch. The
// selection vector lets Filter/GroupFilter mark survivors instead of
// copying them.
//
// Below the emit boundary every row is a REFERENCE: a group key plus one
// EntityId per base table in the row's lineage — one for a scan or
// Deduplicate row, one per joined table for a join row. No operator copies
// a string to move a row; consumers read values on demand straight out of
// the tables' dictionaries (value(), RowRefAt()), so a value is
// materialized only where it is finally needed — late materialization.
// Only Project and Group-Entities build new values; they emit OWNED rows
// (one vector<string> per row, slots and string buffers reused batch after
// batch), which the emit boundary (QueryResult / cursor Fetch) takes.

#ifndef QUERYER_EXEC_ROW_BATCH_H_
#define QUERYER_EXEC_ROW_BATCH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/table.h"

namespace queryer {

/// Default RowBatch capacity (EngineOptions::batch_size): large enough to
/// amortize per-batch costs, small enough to stay cache-resident.
inline constexpr std::size_t kDefaultBatchSize = 1024;

/// Sentinel for rows that do not map to a single base-table entity (join
/// rows and owned rows).
inline constexpr EntityId kInvalidEntityId =
    std::numeric_limits<EntityId>::max();

/// \brief The base tables behind a reference row, in column order: the
/// row's columns are tables[0]'s attributes, then tables[1]'s, and so on.
/// The tables must outlive every read (operators hold their tables for the
/// cursor's lifetime).
class Lineage {
 public:
  Lineage() = default;
  explicit Lineage(std::vector<const Table*> tables)
      : tables_(std::move(tables)) {
    for (std::uint32_t t = 0; t < tables_.size(); ++t) {
      for (std::uint32_t a = 0; a < tables_[t]->num_attributes(); ++a) {
        columns_.push_back({t, a});
      }
    }
  }

  /// A join row's lineage: `left`'s tables followed by `right`'s.
  static Lineage Concat(const Lineage& left, const Lineage& right) {
    std::vector<const Table*> tables = left.tables_;
    tables.insert(tables.end(), right.tables_.begin(), right.tables_.end());
    return Lineage(std::move(tables));
  }

  std::size_t num_tables() const { return tables_.size(); }
  const Table& table(std::size_t t) const { return *tables_[t]; }
  std::size_t num_columns() const { return columns_.size(); }
  const ColumnSource& source(std::size_t column) const {
    return columns_[column];
  }

  /// Column `column` of the reference row whose entity ids are `ids`.
  std::string_view Value(const EntityId* ids, std::size_t column) const {
    const ColumnSource& s = columns_[column];
    return tables_[s.table]->ValueAt(ids[s.table], s.attribute);
  }
  /// Expression-evaluation view of the reference row `ids`.
  RowRef Ref(const EntityId* ids) const {
    if (tables_.size() == 1) return RowRef(*tables_[0], ids[0]);
    return RowRef(tables_.data(), columns_.data(), ids);
  }

  bool operator==(const Lineage& other) const {
    return tables_ == other.tables_;
  }

 private:
  std::vector<const Table*> tables_;
  std::vector<ColumnSource> columns_;
};

/// \brief A batch of rows with a selection vector.
///
/// Producers either call BeginReference(lineage) and append references
/// (AppendReference / AppendReferenceRow), or append owned value vectors
/// via AppendRow(). A filter shrinks the selection (Keep/TruncateSelection)
/// without touching the row storage. Clear() resets the batch for refilling
/// but keeps the storage alive, so steady-state batches allocate nothing.
class RowBatch {
 public:
  explicit RowBatch(std::size_t capacity = kDefaultBatchSize)
      : capacity_(capacity == 0 ? 1 : capacity) {
    selection_.reserve(capacity_);
  }

  std::size_t capacity() const { return capacity_; }
  bool full() const { return filled_ == capacity_; }

  /// Number of selected (live) rows.
  std::size_t size() const { return selection_.size(); }
  bool empty() const { return selection_.empty(); }

  // ---- Reference rows --------------------------------------------------

  /// Switches an empty batch into reference mode over `lineage`. The batch
  /// keeps its own copy, refreshed only when the lineage changes.
  void BeginReference(const Lineage& lineage) {
    QUERYER_DCHECK(filled_ == 0 && selection_.empty());
    if (!(lineage_ == lineage)) lineage_ = lineage;
    reference_ = true;
  }

  /// Appends a selected reference row; the caller writes its
  /// lineage().num_tables() entity ids through the returned pointer, which
  /// is valid until the next append.
  EntityId* AppendReferenceRow(std::uint64_t group_key) {
    QUERYER_DCHECK(filled_ < capacity_ && reference_);
    const std::size_t width = lineage_.num_tables();
    if (ref_ids_.size() < (filled_ + 1) * width) {
      ref_ids_.resize((filled_ + 1) * width);
    }
    if (filled_ == ref_groups_.size()) ref_groups_.emplace_back();
    ref_groups_[filled_] = group_key;
    selection_.push_back(static_cast<std::uint32_t>(filled_));
    return &ref_ids_[filled_++ * width];
  }

  /// Appends a reference to entity `id` of a one-table lineage.
  void AppendReference(EntityId id, std::uint64_t group_key) {
    *AppendReferenceRow(group_key) = id;
  }

  bool reference_mode() const { return reference_; }
  const Lineage& lineage() const { return lineage_; }

  /// The entity ids (one per lineage table) of the i-th selected row.
  /// Reference mode only.
  const EntityId* entity_ids(std::size_t i) const {
    QUERYER_DCHECK(reference_);
    return &ref_ids_[selection_[i] * lineage_.num_tables()];
  }

  /// The duplicate group of the i-th selected row. Reference mode only.
  std::uint64_t group_key(std::size_t i) const {
    QUERYER_DCHECK(reference_);
    return ref_groups_[selection_[i]];
  }

  /// Base-table entity of the i-th selected row, or kInvalidEntityId for
  /// join rows and owned rows.
  EntityId entity_id(std::size_t i) const {
    if (!reference_ || lineage_.num_tables() != 1) return kInvalidEntityId;
    return ref_ids_[selection_[i]];
  }

  // ---- Owned rows ------------------------------------------------------

  /// Next free owned row slot, selected and ready to be filled. The slot's
  /// previous contents (vector/string capacity) are intact for reuse; the
  /// producer overwrites them. Not on a full or reference-mode batch.
  std::vector<std::string>* AppendRow() {
    QUERYER_DCHECK(filled_ < capacity_ && !reference_);
    if (filled_ == rows_.size()) rows_.emplace_back();
    selection_.push_back(static_cast<std::uint32_t>(filled_));
    return &rows_[filled_++];
  }

  // ---- Mode-agnostic read access ---------------------------------------

  /// One value of the i-th selected row, without materializing. The view
  /// borrows from the table (reference) or the batch (owned); it is
  /// invalidated by Clear().
  std::string_view value(std::size_t i, std::size_t column) const {
    if (reference_) return lineage_.Value(entity_ids(i), column);
    return rows_[selection_[i]][column];
  }

  /// Expression-evaluation view of the i-th selected row.
  RowRef RowRefAt(std::size_t i) const {
    if (reference_) return lineage_.Ref(entity_ids(i));
    return RowRef(rows_[selection_[i]]);
  }

  /// The i-th selected row's values as an owned vector: copied out of the
  /// tables' dictionaries for a reference row, moved out for an owned one
  /// (the slot is dead afterwards). The emit boundary uses this.
  std::vector<std::string> TakeValues(std::size_t i) {
    if (!reference_) return std::move(rows_[selection_[i]]);
    const EntityId* ids = entity_ids(i);
    std::vector<std::string> values(lineage_.num_columns());
    for (std::size_t c = 0; c < values.size(); ++c) {
      values[c] = lineage_.Value(ids, c);
    }
    return values;
  }

  // ---- Selection / reuse ----------------------------------------------

  /// Filter support: keep the i-th selected row (i ascending across calls),
  /// compacting the selection in place. Call TruncateSelection(n) with the
  /// number of kept rows afterwards.
  void Keep(std::size_t out, std::size_t i) { selection_[out] = selection_[i]; }
  void TruncateSelection(std::size_t n) { selection_.resize(n); }

  /// Empties the batch for refilling and drops reference mode; the row
  /// storage (and each owned row's string buffers) stays allocated.
  void Clear() {
    filled_ = 0;
    selection_.clear();
    reference_ = false;
  }

 private:
  std::size_t capacity_;
  std::size_t filled_ = 0;  // Slots in use; selection_ indexes these.
  bool reference_ = false;
  // Reference storage: lineage_.num_tables() ids and one group key per slot.
  Lineage lineage_;
  std::vector<EntityId> ref_ids_;
  std::vector<std::uint64_t> ref_groups_;
  // Owned storage.
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::uint32_t> selection_;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_ROW_BATCH_H_
