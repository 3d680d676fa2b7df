// HashJoin: classic equi hash join (build right, probe left). Used for
// plain (non-DEDUP) queries and as the relational sub-join inside the
// Deduplicate-Join operator.

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

/// \brief Evaluates a key expression on a row and canonicalizes it.
std::string JoinKeyOf(const Expr& key_expr, const RowRef& row);

/// \brief Inner equi hash join. Key expressions must be bound against the
/// respective child's columns. Output: left columns ++ right columns.
///
/// The build side is drained once at Open (with the hash table sized up
/// front). Probing pulls left batches and emits the concatenated rows into
/// the output batch, suspending mid-match-list when it fills, so output
/// follows probe order. `batch_size` sizes the build-side drain batches.
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

  /// Join key -> build-side rows.
  std::unordered_map<std::string, std::vector<Row>> build_side_;

  // The current probe batch, the probing row within it and the position in
  // that row's match list.
  std::unique_ptr<RowBatch> probe_;
  bool probe_live_ = false;     // probe_ holds an undrained batch.
  std::size_t probe_pos_ = 0;
  const std::vector<Row>* current_matches_ = nullptr;
  std::size_t match_index_ = 0;
  bool done_ = false;
  std::uint64_t output_counter_ = 0;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_HASH_JOIN_H_
