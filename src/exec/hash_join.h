// HashJoin: classic equi hash join (build right, probe left), used for
// plain (non-DEDUP) queries. JoinKeyIds, the key interning it shares with
// the Deduplicate-Join operator, also lives here.

#ifndef QUERYER_EXEC_HASH_JOIN_H_
#define QUERYER_EXEC_HASH_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "plan/expr.h"

namespace queryer {

/// \brief Join-key canonicalization under the engine's value semantics:
/// numeric values normalized, strings lower-cased (joins are
/// case-insensitive, consistent with predicate evaluation).
std::string CanonicalJoinKey(std::string_view value);

/// \brief Canonical join keys interned to dense ids, so the join operators
/// match reference rows on integers. A key column is read by dictionary
/// code, and CanonicalJoinKey runs once per distinct code met, not once per
/// row. Both sides of one join share one instance, so equal ids mean equal
/// canonical keys.
class JoinKeyIds {
 public:
  /// The id of an empty key: NULLs never join.
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;

  /// Key id of column `column` of the reference row `ids` under `lineage`.
  std::uint32_t Of(const Lineage& lineage, const EntityId* ids,
                   std::size_t column);

  /// Distinct non-null keys interned so far; every non-null id is below.
  std::size_t size() const { return ids_.size(); }

 private:
  static constexpr std::uint32_t kUnseen = 0xFFFFFFFEu;

  std::unordered_map<std::string, std::uint32_t> ids_;
  /// Per key column dictionary met (two per join): key id by dictionary
  /// code, kUnseen until the code is first met.
  std::vector<std::pair<const Dictionary*, std::vector<std::uint32_t>>>
      by_code_;
};

/// \brief Inner equi hash join over reference rows. Key expressions are
/// column references bound against the respective child's columns. Output:
/// left columns ++ right columns, as join rows referencing one entity of
/// each input table; no value is copied.
///
/// The build side is drained once at Open into entity references, bucketed
/// by key id. Probing pulls left batches and emits the joined references,
/// suspending mid-bucket when the output batch fills, so output follows
/// probe order, and within one probe row the build side's order.
/// `batch_size` sizes the build-side drain batches.
class HashJoinOp final : public PhysicalOperator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr left_key,
             ExprPtr right_key, std::size_t batch_size = kDefaultBatchSize);

  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* batch) override;
  void CloseImpl() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr left_key_;
  ExprPtr right_key_;
  std::size_t batch_size_;

  JoinKeyIds keys_;
  ReferenceRows build_;
  Buckets build_by_key_;  // Build rows by key id.
  Lineage output_lineage_;  // Set at the first probe batch with rows.

  // The current probe batch, the probing row within it and the position in
  // that row's bucket.
  std::unique_ptr<RowBatch> probe_;
  std::size_t probe_pos_ = 0;
  std::size_t match_pos_ = 0;
  std::size_t match_end_ = 0;
  bool done_ = false;
  std::uint64_t output_counter_ = 0;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_HASH_JOIN_H_
