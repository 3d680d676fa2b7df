// Predicate evaluation against a columnar table, specialized per query.
//
// The engine's comparison semantics are case-insensitive and numeric-aware,
// so two distinct dictionary codes can still compare equal ("EDBT" vs
// "edbt", "1" vs "1.0") — code inequality proves nothing. What a dictionary
// does make cheap is evaluating a predicate once per DISTINCT value: for a
// predicate that touches exactly one column whose values actually repeat
// (dictionary at most half the row count), TablePredicate precomputes a
// truth table indexed by dictionary code (O(distinct) evaluations), after
// which each row costs one code load and one byte lookup — no string
// access at all. Multi-column predicates and near-unique columns (ids,
// titles — where the build would cost as much as the scan) fall back to
// per-row evaluation over RowRef, which still reads string_views straight
// out of the column dictionaries without materializing.
//
// Either path returns bit-identical answers to Expr::EvalBool on the
// materialized row; the truth table is just the same evaluation hoisted
// out of the per-row loop.

#ifndef QUERYER_EXEC_TABLE_PREDICATE_H_
#define QUERYER_EXEC_TABLE_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "plan/expr.h"
#include "storage/table.h"

namespace queryer {

/// \brief A bound predicate compiled against one table's storage. Cheap to
/// copy (the truth table is shared).
class TablePredicate {
 public:
  /// Matches every row (a scan with no fused predicate).
  TablePredicate() = default;

  /// `expr` must be bound such that every column's bound_index equals its
  /// attribute position in `table` — true for fused scan predicates (bound
  /// against the scan's full attribute list) and for statistics probes
  /// bound against the table schema. Both must outlive this object.
  TablePredicate(const Expr* expr, const Table* table);

  bool has_predicate() const { return expr_ != nullptr; }

  /// True when the single-column truth table path is active (exposed for
  /// tests and EXPLAIN).
  bool uses_truth_table() const { return truth_ != nullptr; }

  bool Matches(EntityId id) const {
    if (codes_ != nullptr) {
      const DictCode code = codes_[id];
      if (truth_ != nullptr) return (*truth_)[code] != 0;
      // Single near-unique column: evaluate per row, but feed the value
      // through the hoisted codes/dictionary pointers instead of a full
      // table row lookup.
      return expr_->EvalBoolFast(
          RowRef::SingleColumn(attribute_, dictionary_->value(code)));
    }
    if (expr_ == nullptr) return true;
    return expr_->EvalBoolFast(RowRef(*table_, id));
  }

 private:
  const Expr* expr_ = nullptr;
  const Table* table_ = nullptr;
  // Single-column fast path: the column's codes and dictionary, hoisted.
  // With `truth_` set each row is one byte lookup; without it (near-unique
  // column) each row is one evaluation of the hoisted column value.
  const DictCode* codes_ = nullptr;
  const Dictionary* dictionary_ = nullptr;
  std::size_t attribute_ = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> truth_;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_TABLE_PREDICATE_H_
