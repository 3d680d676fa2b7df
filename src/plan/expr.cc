#include "plan/expr.h"

#include <cctype>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/row_batch.h"

namespace queryer {

namespace {

// MOD(lhs, rhs): the integer % of the operands' truncations. Returns false
// — a non-numeric result, like a non-numeric operand — where that % is
// undefined: an operand that is not finite or whose truncation does not
// fit a long long, or a divisor that truncates to 0 (MOD(x, 0.5) too).
// x % -1 is 0 for every x, and is computed without the division that
// overflows at LLONG_MIN.
bool ModNumbers(double lhs, double rhs, double* out) {
  if (!FitsLongLong(lhs) || !FitsLongLong(rhs)) return false;
  const auto divisor = static_cast<long long>(rhs);
  if (divisor == 0) return false;
  *out = divisor == -1 ? 0.0
                       : static_cast<double>(static_cast<long long>(lhs) %
                                             divisor);
  return true;
}

}  // namespace

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

int CompareValues(const Expr::Value& a, const Expr::Value& b) {
  if (a.number.has_value() && b.number.has_value()) {
    if (*a.number < *b.number) return -1;
    if (*a.number > *b.number) return 1;
    return 0;
  }
  std::string la = ToLower(a.text);
  std::string lb = ToLower(b.text);
  return la.compare(lb) < 0 ? -1 : (la == lb ? 0 : 1);
}

ExprPtr Expr::Column(std::string table, std::string column) {
  auto e = ExprPtr(new Expr(ExprKind::kColumn));
  e->table_ = std::move(table);
  e->column_ = std::move(column);
  return e;
}

ExprPtr Expr::Literal(std::string text) {
  auto e = ExprPtr(new Expr(ExprKind::kLiteral));
  e->literal_.number = ParseNumber(text);
  e->literal_.text = std::move(text);
  return e;
}

ExprPtr Expr::NumberLiteral(double value) {
  auto e = ExprPtr(new Expr(ExprKind::kLiteral));
  // Integral doubles print without a trailing ".000000".
  if (FitsLongLong(value) &&
      value == static_cast<double>(static_cast<long long>(value))) {
    e->literal_.text = std::to_string(static_cast<long long>(value));
  } else {
    e->literal_.text = std::to_string(value);
  }
  e->literal_.number = value;
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(ExprKind::kCompare));
  e->compare_op_ = op;
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(ExprKind::kAnd));
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(ExprKind::kOr));
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = ExprPtr(new Expr(ExprKind::kNot));
  e->children_.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::In(ExprPtr operand, std::vector<ExprPtr> list) {
  auto e = ExprPtr(new Expr(ExprKind::kIn));
  e->children_.push_back(std::move(operand));
  for (auto& item : list) e->children_.push_back(std::move(item));
  return e;
}

ExprPtr Expr::Like(ExprPtr operand, std::string pattern) {
  auto e = ExprPtr(new Expr(ExprKind::kLike));
  e->children_.push_back(std::move(operand));
  e->children_.push_back(Expr::Literal(std::move(pattern)));
  return e;
}

ExprPtr Expr::Between(ExprPtr operand, ExprPtr low, ExprPtr high) {
  auto e = ExprPtr(new Expr(ExprKind::kBetween));
  e->children_.push_back(std::move(operand));
  e->children_.push_back(std::move(low));
  e->children_.push_back(std::move(high));
  return e;
}

ExprPtr Expr::Mod(ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(ExprKind::kMod));
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = ExprPtr(new Expr(kind_));
  e->compare_op_ = compare_op_;
  e->table_ = table_;
  e->column_ = column_;
  e->bound_index_ = bound_index_;
  e->literal_ = literal_;
  e->children_.reserve(children_.size());
  for (const auto& child : children_) e->children_.push_back(child->Clone());
  return e;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return table_.empty() ? column_ : table_ + "." + column_;
    case ExprKind::kLiteral:
      return literal_.number.has_value() ? literal_.text
                                         : "'" + literal_.text + "'";
    case ExprKind::kCompare:
      return children_[0]->ToString() + " " +
             std::string(CompareOpToString(compare_op_)) + " " +
             children_[1]->ToString();
    case ExprKind::kAnd:
      return "(" + children_[0]->ToString() + " AND " +
             children_[1]->ToString() + ")";
    case ExprKind::kOr:
      return "(" + children_[0]->ToString() + " OR " +
             children_[1]->ToString() + ")";
    case ExprKind::kNot:
      return "NOT (" + children_[0]->ToString() + ")";
    case ExprKind::kIn: {
      std::string out = children_[0]->ToString() + " IN (";
      for (std::size_t i = 1; i < children_.size(); ++i) {
        if (i > 1) out += ", ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kLike:
      return children_[0]->ToString() + " LIKE " + children_[1]->ToString();
    case ExprKind::kBetween:
      return children_[0]->ToString() + " BETWEEN " +
             children_[1]->ToString() + " AND " + children_[2]->ToString();
    case ExprKind::kMod:
      return "MOD(" + children_[0]->ToString() + ", " +
             children_[1]->ToString() + ")";
  }
  return "?";
}

Status Expr::Bind(const std::vector<std::string>& columns) {
  if (kind_ == ExprKind::kColumn) {
    const std::string wanted_qualified =
        table_.empty() ? "" : ToLower(table_) + "." + ToLower(column_);
    const std::string wanted_bare = ToLower(column_);
    std::size_t match = kUnbound;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const std::string col = ToLower(columns[i]);
      bool hit;
      if (!table_.empty()) {
        hit = col == wanted_qualified;
      } else {
        // Bare reference: match the suffix after the qualifier dot, or the
        // whole name when unqualified.
        std::size_t dot = col.rfind('.');
        hit = (dot == std::string::npos ? col : col.substr(dot + 1)) ==
              wanted_bare;
      }
      if (hit) {
        if (match != kUnbound) {
          return Status::PlanError("ambiguous column reference: " + ToString());
        }
        match = i;
      }
    }
    if (match == kUnbound) {
      return Status::PlanError("unknown column: " + ToString());
    }
    bound_index_ = match;
    return Status::OK();
  }
  for (auto& child : children_) QUERYER_RETURN_NOT_OK(child->Bind(columns));
  return Status::OK();
}

bool Expr::IsBound() const {
  if (kind_ == ExprKind::kColumn) return bound_index_ != kUnbound;
  for (const auto& child : children_) {
    if (!child->IsBound()) return false;
  }
  return true;
}

Expr::Value Expr::EvalValue(const RowRef& row) const {
  switch (kind_) {
    case ExprKind::kColumn: {
      QUERYER_DCHECK(bound_index_ != kUnbound);
      Value v;
      const std::string_view text = row.Get(bound_index_);
      v.text.assign(text.data(), text.size());
      v.number = ParseNumber(v.text);
      return v;
    }
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kMod: {
      Value lhs = children_[0]->EvalValue(row);
      Value rhs = children_[1]->EvalValue(row);
      Value v;
      double result = 0;
      if (lhs.number.has_value() && rhs.number.has_value() &&
          ModNumbers(*lhs.number, *rhs.number, &result)) {
        v.number = result;
        v.text = std::to_string(static_cast<long long>(result));
      }
      // Non-numeric inputs (or an undefined MOD) yield an empty
      // (non-numeric) value.
      return v;
    }
    default:
      // Predicates used in value position evaluate to "1"/"0".
      return EvalBool(row) ? Value{"1", 1.0} : Value{"0", 0.0};
  }
}

bool Expr::EvalBool(const RowRef& row) const {
  switch (kind_) {
    case ExprKind::kCompare: {
      Value lhs = children_[0]->EvalValue(row);
      Value rhs = children_[1]->EvalValue(row);
      int cmp = CompareValues(lhs, rhs);
      switch (compare_op_) {
        case CompareOp::kEq: return cmp == 0;
        case CompareOp::kNe: return cmp != 0;
        case CompareOp::kLt: return cmp < 0;
        case CompareOp::kLe: return cmp <= 0;
        case CompareOp::kGt: return cmp > 0;
        case CompareOp::kGe: return cmp >= 0;
      }
      return false;
    }
    case ExprKind::kAnd:
      return children_[0]->EvalBool(row) && children_[1]->EvalBool(row);
    case ExprKind::kOr:
      return children_[0]->EvalBool(row) || children_[1]->EvalBool(row);
    case ExprKind::kNot:
      return !children_[0]->EvalBool(row);
    case ExprKind::kIn: {
      Value operand = children_[0]->EvalValue(row);
      for (std::size_t i = 1; i < children_.size(); ++i) {
        if (CompareValues(operand, children_[i]->EvalValue(row)) == 0) {
          return true;
        }
      }
      return false;
    }
    case ExprKind::kLike: {
      Value operand = children_[0]->EvalValue(row);
      return LikeMatch(operand.text, children_[1]->literal().text);
    }
    case ExprKind::kBetween: {
      Value operand = children_[0]->EvalValue(row);
      return CompareValues(operand, children_[1]->EvalValue(row)) >= 0 &&
             CompareValues(operand, children_[2]->EvalValue(row)) <= 0;
    }
    default:
      // A bare value in predicate position is true when numerically nonzero.
      Value v = EvalValue(row);
      return v.number.has_value() && *v.number != 0;
  }
}

namespace {

// Case-insensitive three-way compare without the lowercased copies
// CompareValues makes; byte-wise identical to
// ToLower(a).compare(ToLower(b)) clamped to {-1, 0, 1}.
int CompareTextCI(std::string_view a, std::string_view b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char ca =
        static_cast<unsigned char>(std::tolower(static_cast<unsigned char>(a[i])));
    unsigned char cb =
        static_cast<unsigned char>(std::tolower(static_cast<unsigned char>(b[i])));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

bool ApplyCompare(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

// Numeric evaluation of a column/literal/MOD subtree without building a
// Value (no string copies). Mirrors EvalValue's numeric semantics exactly:
// a column is numeric iff its text parses fully, MOD is numeric iff both
// operands are and ModNumbers defines it.
bool TryEvalNumber(const Expr& e, const RowRef& row, double* out) {
  switch (e.kind()) {
    case ExprKind::kColumn: {
      std::optional<double> v = ParseNumber(row.Get(e.bound_index()));
      if (!v.has_value()) return false;
      *out = *v;
      return true;
    }
    case ExprKind::kLiteral: {
      if (!e.literal().number.has_value()) return false;
      *out = *e.literal().number;
      return true;
    }
    case ExprKind::kMod: {
      double lhs = 0, rhs = 0;
      return TryEvalNumber(*e.children()[0], row, &lhs) &&
             TryEvalNumber(*e.children()[1], row, &rhs) &&
             ModNumbers(lhs, rhs, out);
    }
    default:
      return false;
  }
}

// Fast-path operand shapes: only these reach the allocation-free compare.
bool IsLeafOperand(const Expr& e) {
  return e.kind() == ExprKind::kColumn || e.kind() == ExprKind::kLiteral ||
         e.kind() == ExprKind::kMod;
}

// Raw text of a column/literal operand (no copy). MOD is excluded: its
// text form needs formatting, so mixed MOD-vs-string comparisons fall back
// to the generic path.
bool RawText(const Expr& e, const RowRef& row, std::string_view* out) {
  if (e.kind() == ExprKind::kColumn) {
    *out = row.Get(e.bound_index());
    return true;
  }
  if (e.kind() == ExprKind::kLiteral) {
    *out = e.literal().text;
    return true;
  }
  return false;
}

}  // namespace

bool Expr::EvalBoolFast(const RowRef& row) const {
  // The comparison fast path: both operands leaf-shaped, so the row is
  // decided without constructing Values. Falls back to EvalBool when the
  // operand mix (e.g. MOD against a non-numeric string) needs the generic
  // semantics.
  if (kind_ == ExprKind::kCompare && IsLeafOperand(*children_[0]) &&
      IsLeafOperand(*children_[1])) {
    const Expr& lhs = *children_[0];
    const Expr& rhs = *children_[1];
    double ln = 0, rn = 0;
    if (TryEvalNumber(lhs, row, &ln) && TryEvalNumber(rhs, row, &rn)) {
      return ApplyCompare(compare_op_, ln < rn ? -1 : (ln > rn ? 1 : 0));
    }
    std::string_view lt, rt;
    if (RawText(lhs, row, &lt) && RawText(rhs, row, &rt)) {
      return ApplyCompare(compare_op_, CompareTextCI(lt, rt));
    }
  }
  return EvalBool(row);
}

std::size_t Expr::FilterBatch(RowBatch* batch) const {
  const std::size_t n = batch->size();
  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (EvalBoolFast(batch->RowRefAt(i))) batch->Keep(out++, i);
  }
  batch->TruncateSelection(out);
  return out;
}

void Expr::CollectColumns(std::vector<const Expr*>* out) const {
  if (kind_ == ExprKind::kColumn) {
    out->push_back(this);
    return;
  }
  for (const auto& child : children_) child->CollectColumns(out);
}

}  // namespace queryer
