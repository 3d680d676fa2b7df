// Unit tests for expression binding and evaluation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "plan/expr.h"
#include "plan/logical_plan.h"

namespace queryer {
namespace {

const std::vector<std::string> kColumns = {"p.id", "p.title", "p.venue",
                                           "p.year"};

ExprPtr Bound(ExprPtr expr) {
  Status st = expr->Bind(kColumns);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return expr;
}

TEST(ParseNumberTest, FullParseOnly) {
  EXPECT_EQ(ParseNumber("42"), 42.0);
  EXPECT_EQ(ParseNumber("-1.5"), -1.5);
  EXPECT_FALSE(ParseNumber("42x").has_value());
  EXPECT_FALSE(ParseNumber("").has_value());
  EXPECT_FALSE(ParseNumber("EDBT").has_value());
}

// FitsLongLong bounds the doubles whose cast to long long is defined.
TEST(FitsLongLongTest, HalfOpenInt64Range) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(FitsLongLong(0));
  EXPECT_TRUE(FitsLongLong(-9223372036854775808.0));
  EXPECT_TRUE(FitsLongLong(9223372036854774784.0));
  EXPECT_TRUE(FitsLongLong(-0.5));
  EXPECT_FALSE(FitsLongLong(9223372036854775808.0));
  EXPECT_FALSE(FitsLongLong(-9223372036854777856.0));
  EXPECT_FALSE(FitsLongLong(1e300));
  EXPECT_FALSE(FitsLongLong(inf));
  EXPECT_FALSE(FitsLongLong(-inf));
  EXPECT_FALSE(FitsLongLong(std::nan("")));
}

// A number literal prints as an integer only where it is one and a long
// long holds it; other values keep std::to_string's form.
TEST(ExprLiteralTest, NumberLiteralText) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Expr::NumberLiteral(2008)->literal().text, "2008");
  EXPECT_EQ(Expr::NumberLiteral(-9223372036854775808.0)->literal().text,
            "-9223372036854775808");
  EXPECT_EQ(Expr::NumberLiteral(0.5)->literal().text, std::to_string(0.5));
  EXPECT_EQ(Expr::NumberLiteral(1e300)->literal().text, std::to_string(1e300));
  EXPECT_EQ(Expr::NumberLiteral(9223372036854775808.0)->literal().text,
            std::to_string(9223372036854775808.0));
  EXPECT_EQ(Expr::NumberLiteral(inf)->literal().text, std::to_string(inf));
  EXPECT_EQ(*Expr::NumberLiteral(1e300)->literal().number, 1e300);
}

TEST(ExprBindTest, QualifiedAndBareNames) {
  ExprPtr qualified = Expr::Column("p", "venue");
  EXPECT_TRUE(qualified->Bind(kColumns).ok());
  EXPECT_EQ(qualified->bound_index(), 2u);

  ExprPtr bare = Expr::Column("", "year");
  EXPECT_TRUE(bare->Bind(kColumns).ok());
  EXPECT_EQ(bare->bound_index(), 3u);
}

TEST(ExprBindTest, UnknownAndAmbiguous) {
  ExprPtr unknown = Expr::Column("p", "missing");
  EXPECT_TRUE(unknown->Bind(kColumns).IsPlanError());

  std::vector<std::string> two_tables = {"a.x", "b.x"};
  ExprPtr ambiguous = Expr::Column("", "x");
  EXPECT_TRUE(ambiguous->Bind(two_tables).IsPlanError());
}

TEST(ExprEvalTest, Comparisons) {
  std::vector<std::string> row = {"7", "Entity Resolution", "EDBT", "2008"};
  EXPECT_TRUE(Bound(Expr::Compare(CompareOp::kEq, Expr::Column("p", "venue"),
                                  Expr::Literal("edbt")))
                  ->EvalBool(row));  // Case-insensitive equality.
  EXPECT_TRUE(Bound(Expr::Compare(CompareOp::kGt, Expr::Column("p", "year"),
                                  Expr::Literal("2000")))
                  ->EvalBool(row));  // Numeric comparison.
  EXPECT_FALSE(Bound(Expr::Compare(CompareOp::kLt, Expr::Column("p", "year"),
                                   Expr::Literal("101")))
                   ->EvalBool(row));  // 2008 < 101 is false numerically.
  EXPECT_TRUE(Bound(Expr::Compare(CompareOp::kNe, Expr::Column("p", "venue"),
                                  Expr::Literal("SIGMOD")))
                  ->EvalBool(row));
  EXPECT_TRUE(Bound(Expr::Compare(CompareOp::kGe, Expr::Column("p", "year"),
                                  Expr::Literal("2008")))
                  ->EvalBool(row));
  EXPECT_TRUE(Bound(Expr::Compare(CompareOp::kLe, Expr::Column("p", "id"),
                                  Expr::Literal("7")))
                  ->EvalBool(row));
}

TEST(ExprEvalTest, StringOrderingWhenNotNumeric) {
  std::vector<std::string> row = {"x", "apple", "", ""};
  EXPECT_TRUE(Bound(Expr::Compare(CompareOp::kLt, Expr::Column("p", "title"),
                                  Expr::Literal("banana")))
                  ->EvalBool(row));
}

TEST(ExprEvalTest, AndOrNot) {
  std::vector<std::string> row = {"1", "t", "EDBT", "2008"};
  ExprPtr both = Bound(Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Column("", "venue"),
                    Expr::Literal("EDBT")),
      Expr::Compare(CompareOp::kEq, Expr::Column("", "year"),
                    Expr::Literal("2008"))));
  EXPECT_TRUE(both->EvalBool(row));
  ExprPtr either = Bound(Expr::Or(
      Expr::Compare(CompareOp::kEq, Expr::Column("", "venue"),
                    Expr::Literal("SIGMOD")),
      Expr::Compare(CompareOp::kEq, Expr::Column("", "year"),
                    Expr::Literal("2008"))));
  EXPECT_TRUE(either->EvalBool(row));
  ExprPtr negated = Bound(Expr::Not(Expr::Compare(
      CompareOp::kEq, Expr::Column("", "venue"), Expr::Literal("EDBT"))));
  EXPECT_FALSE(negated->EvalBool(row));
}

TEST(ExprEvalTest, InLikeBetween) {
  std::vector<std::string> row = {"1", "Entity Resolution on Big Data",
                                  "SIGMOD", "2017"};
  std::vector<ExprPtr> list;
  list.push_back(Expr::Literal("EDBT"));
  list.push_back(Expr::Literal("sigmod"));
  EXPECT_TRUE(Bound(Expr::In(Expr::Column("", "venue"), std::move(list)))
                  ->EvalBool(row));

  EXPECT_TRUE(Bound(Expr::Like(Expr::Column("", "title"), "%big data%"))
                  ->EvalBool(row));
  EXPECT_FALSE(Bound(Expr::Like(Expr::Column("", "title"), "big data"))
                   ->EvalBool(row));

  EXPECT_TRUE(Bound(Expr::Between(Expr::Column("", "year"),
                                  Expr::Literal("2010"), Expr::Literal("2020")))
                  ->EvalBool(row));
  EXPECT_FALSE(Bound(Expr::Between(Expr::Column("", "year"),
                                   Expr::Literal("2018"), Expr::Literal("2020")))
                   ->EvalBool(row));
}

TEST(ExprEvalTest, Mod) {
  std::vector<std::string> row = {"17", "", "", ""};
  ExprPtr pred = Bound(Expr::Compare(
      CompareOp::kEq,
      Expr::Mod(Expr::Column("", "id"), Expr::NumberLiteral(10)),
      Expr::NumberLiteral(7)));
  EXPECT_TRUE(pred->EvalBool(row));
  std::vector<std::string> row2 = {"20", "", "", ""};
  EXPECT_FALSE(pred->EvalBool(row2));
  // Non-numeric input: MOD yields a non-numeric empty value, predicate false.
  std::vector<std::string> row3 = {"abc", "", "", ""};
  EXPECT_FALSE(pred->EvalBool(row3));
}

// MOD(p.year, divisor) where the integer % is undefined: a divisor that
// truncates to 0, a non-finite operand, or one outside the int64 range.
// The result is the non-numeric empty value on every evaluation path, and
// the process does not trap.
TEST(ExprEvalTest, ModUndefinedIsNonNumeric) {
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* year;
    double divisor;
  } cases[] = {
      {"2008", 0.5},   {"2008", -0.9},  {"2008", 0},
      {"2008", inf},   {"2008", -inf},  {"2008", std::nan("")},
      {"2008", 1e300}, {"2008", 9223372036854775808.0},
      {"1e300", 7},    {"-1e19", 7},    {"inf", 7},
      {"9223372036854775808", 7},
  };
  for (const auto& c : cases) {
    const std::vector<std::string> row = {"1", "", "", c.year};
    const std::string where =
        std::string("MOD(") + c.year + ", " + std::to_string(c.divisor) + ")";
    Expr::Value v = Bound(Expr::Mod(Expr::Column("p", "year"),
                                    Expr::NumberLiteral(c.divisor)))
                        ->EvalValue(row);
    EXPECT_FALSE(v.number.has_value()) << where;
    EXPECT_EQ(v.text, "") << where;
    ExprPtr pred = Bound(Expr::Compare(
        CompareOp::kEq,
        Expr::Mod(Expr::Column("p", "year"), Expr::NumberLiteral(c.divisor)),
        Expr::NumberLiteral(0)));
    EXPECT_FALSE(pred->EvalBool(row)) << where;
    EXPECT_FALSE(pred->EvalBoolFast(row)) << where;
  }
}

// In range, MOD keeps C's % over the truncated operands, at the int64
// limits too.
TEST(ExprEvalTest, ModInRangeTruncates) {
  const struct {
    const char* year;
    double divisor;
    double want;
  } cases[] = {
      {"17", 10.9, 7},
      {"17.9", 10, 7},
      {"-17", 10, -7},
      {"17", -10, 7},
      {"-9223372036854775808", -1, 0},
      {"-9223372036854775808", 10, -8},
      {"9223372036854774784", 1000, 784},
      {"2008", 1, 0},
  };
  for (const auto& c : cases) {
    const std::vector<std::string> row = {"1", "", "", c.year};
    const std::string where =
        std::string("MOD(") + c.year + ", " + std::to_string(c.divisor) + ")";
    Expr::Value v = Bound(Expr::Mod(Expr::Column("p", "year"),
                                    Expr::NumberLiteral(c.divisor)))
                        ->EvalValue(row);
    ASSERT_TRUE(v.number.has_value()) << where;
    EXPECT_EQ(*v.number, c.want) << where;
    ExprPtr pred = Bound(Expr::Compare(
        CompareOp::kEq,
        Expr::Mod(Expr::Column("p", "year"), Expr::NumberLiteral(c.divisor)),
        Expr::NumberLiteral(c.want)));
    EXPECT_TRUE(pred->EvalBool(row)) << where;
    EXPECT_TRUE(pred->EvalBoolFast(row)) << where;
  }
}

TEST(ExprCloneTest, DeepAndIndependent) {
  ExprPtr original = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Column("p", "venue"),
                    Expr::Literal("EDBT")),
      Expr::Like(Expr::Column("p", "title"), "%entity%"));
  ExprPtr clone = original->Clone();
  EXPECT_EQ(original->ToString(), clone->ToString());
  EXPECT_TRUE(clone->Bind(kColumns).ok());
  EXPECT_TRUE(clone->IsBound());
  EXPECT_FALSE(original->IsBound());  // Binding the clone left it untouched.
}

TEST(ExprCollectColumnsTest, FindsAllRefs) {
  ExprPtr expr = Expr::Or(
      Expr::Compare(CompareOp::kEq, Expr::Column("a", "x"),
                    Expr::Column("b", "y")),
      Expr::Compare(CompareOp::kLt, Expr::Mod(Expr::Column("a", "z"),
                                              Expr::NumberLiteral(2)),
                    Expr::NumberLiteral(1)));
  std::vector<const Expr*> columns;
  expr->CollectColumns(&columns);
  ASSERT_EQ(columns.size(), 3u);
}

TEST(LogicalPlanTest, ToStringRendersTree) {
  PlanPtr plan = LogicalPlan::GroupEntities(LogicalPlan::DedupJoin(
      LogicalPlan::Deduplicate(
          LogicalPlan::Filter(
              LogicalPlan::Scan("p", "p"),
              Expr::Compare(CompareOp::kEq, Expr::Column("p", "venue"),
                            Expr::Literal("EDBT"))),
          "p", "p"),
      LogicalPlan::Scan("v", "v"), Expr::Column("p", "venue"),
      Expr::Column("v", "title"), DirtySide::kRight, "v", "v"));
  std::string text = plan->ToString();
  EXPECT_NE(text.find("GroupEntities"), std::string::npos);
  EXPECT_NE(text.find("DedupJoin[Dirty-Right]"), std::string::npos);
  EXPECT_NE(text.find("Deduplicate(p)"), std::string::npos);
  EXPECT_NE(text.find("Filter(p.venue = 'EDBT')"), std::string::npos);
  EXPECT_NE(text.find("TableScan(p)"), std::string::npos);
}

}  // namespace
}  // namespace queryer
