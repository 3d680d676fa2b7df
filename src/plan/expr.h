// Scalar and predicate expressions of QueryER's query layer.
//
// One Expr tree serves both the AST (produced by the SQL parser) and the
// executable form: before execution an expression is bound against the
// column list of the operator it runs over (resolving column references to
// positions), after which evaluation is allocation-light and Status-free.
//
// Value semantics: all stored values are strings. A comparison is numeric
// when both sides parse fully as doubles, string-wise (case-insensitive)
// otherwise — matching the engine's schema-agnostic treatment of raw CSV
// data.

#ifndef QUERYER_PLAN_EXPR_H_
#define QUERYER_PLAN_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace queryer {

class Expr;
class RowBatch;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kColumn,   // [table.]column reference.
  kLiteral,  // String or numeric literal.
  kCompare,  // lhs op rhs.
  kAnd,
  kOr,
  kNot,
  kIn,       // children[0] IN children[1..].
  kLike,     // children[0] LIKE pattern (payload literal in children[1]).
  kBetween,  // children[0] BETWEEN children[1] AND children[2].
  kMod,      // MOD(children[0], children[1]) — numeric.
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpToString(CompareOp op);

/// \brief Expression tree node. Construct via the static factories.
class Expr {
 public:
  /// Runtime value: the raw text plus its numeric interpretation if any.
  struct Value {
    std::string text;
    std::optional<double> number;
  };

  static ExprPtr Column(std::string table, std::string column);
  static ExprPtr Literal(std::string text);
  static ExprPtr NumberLiteral(double value);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr operand);
  static ExprPtr In(ExprPtr operand, std::vector<ExprPtr> list);
  static ExprPtr Like(ExprPtr operand, std::string pattern);
  static ExprPtr Between(ExprPtr operand, ExprPtr low, ExprPtr high);
  static ExprPtr Mod(ExprPtr lhs, ExprPtr rhs);

  ExprKind kind() const { return kind_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  CompareOp compare_op() const { return compare_op_; }

  // kColumn accessors.
  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }
  /// Position in the bound column list; valid after Bind().
  std::size_t bound_index() const { return bound_index_; }

  // kLiteral accessor.
  const Value& literal() const { return literal_; }

  ExprPtr Clone() const;
  std::string ToString() const;

  /// \brief Resolves all column references against `columns`.
  ///
  /// `columns` holds qualified names of the operator's output ("p.title").
  /// A reference may be qualified ("p.title") or bare ("title"); bare
  /// references must be unambiguous. Fails on unknown/ambiguous names.
  Status Bind(const std::vector<std::string>& columns);

  /// True if every column reference in the tree is bound.
  bool IsBound() const;

  /// Evaluates a value expression (kColumn/kLiteral/kMod) on a row. RowRef
  /// converts implicitly from a materialized row's value vector and also
  /// wraps a columnar (Table, EntityId) pair — evaluation never copies the
  /// underlying strings either way.
  Value EvalValue(const RowRef& row) const;

  /// Evaluates a predicate on a row. Must be bound first. The generic
  /// path EvalBoolFast falls back to; operators call EvalBoolFast.
  bool EvalBool(const RowRef& row) const;

  /// \brief EvalBool with the hot-loop fast path: comparisons of
  /// column/literal/MOD operands are decided allocation-free (no Value
  /// copies, no lowercased temporaries), everything else falls back to
  /// EvalBool. Same result for every input; every operator evaluating a
  /// predicate (fused scans, FilterBatch, GroupFilter) uses this.
  bool EvalBoolFast(const RowRef& row) const;

  /// \brief Evaluates this predicate over a whole batch via EvalBoolFast,
  /// compacting the batch's selection vector to the surviving rows.
  /// Returns the survivor count. Must be bound first.
  std::size_t FilterBatch(RowBatch* batch) const;

  /// Collects pointers to all kColumn nodes in the tree.
  void CollectColumns(std::vector<const Expr*>* out) const;

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}

  ExprKind kind_;
  std::vector<ExprPtr> children_;
  CompareOp compare_op_ = CompareOp::kEq;
  std::string table_;
  std::string column_;
  std::size_t bound_index_ = kUnbound;
  Value literal_;

  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);
};

/// \brief Three-way comparison under the engine's value semantics:
/// numeric when both sides are numbers, case-insensitive lexicographic
/// otherwise. Returns <0, 0 or >0.
int CompareValues(const Expr::Value& a, const Expr::Value& b);

}  // namespace queryer

#endif  // QUERYER_PLAN_EXPR_H_
