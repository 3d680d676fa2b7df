#include "planner/planner.h"

#include <algorithm>

#include "common/string_util.h"

namespace queryer {

namespace {

// Flattens an AND tree into its conjuncts.
void CollectConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind() == ExprKind::kAnd) {
    CollectConjuncts(*expr.children()[0], out);
    CollectConjuncts(*expr.children()[1], out);
    return;
  }
  out->push_back(&expr);
}

ExprPtr ConjunctionOf(ExprPtr lhs, ExprPtr rhs) {
  if (lhs == nullptr) return rhs;
  if (rhs == nullptr) return lhs;
  return Expr::And(std::move(lhs), std::move(rhs));
}

}  // namespace

std::string_view PlannerModeToString(PlannerMode mode) {
  switch (mode) {
    case PlannerMode::kNaive: return "NES";
    case PlannerMode::kNaive2: return "NES2";
    case PlannerMode::kAdvanced: return "AES";
  }
  return "?";
}

Result<std::vector<Planner::BoundTable>> Planner::BindTables(
    const SelectStatement& stmt) {
  std::vector<BoundTable> tables;
  auto add_table = [&](const TableRef& ref) -> Status {
    for (const BoundTable& existing : tables) {
      if (EqualsIgnoreCase(existing.ref.alias, ref.alias)) {
        return Status::PlanError("duplicate table alias: " + ref.alias);
      }
    }
    QUERYER_ASSIGN_OR_RETURN(std::shared_ptr<TableRuntime> runtime,
                             FindRuntime(*runtimes_, ref.name));
    tables.push_back({ref, std::move(runtime), nullptr});
    return Status::OK();
  };
  QUERYER_RETURN_NOT_OK(add_table(stmt.from));
  for (const JoinSpec& join : stmt.joins) {
    QUERYER_RETURN_NOT_OK(add_table(join.table));
  }
  return tables;
}

Result<std::string> Planner::ResolveAlias(
    const Expr& column, const std::vector<BoundTable>& tables) {
  if (column.kind() != ExprKind::kColumn) {
    return Status::PlanError("expected column reference, got " +
                             column.ToString());
  }
  if (!column.table().empty()) {
    for (const BoundTable& table : tables) {
      if (EqualsIgnoreCase(table.ref.alias, column.table())) {
        return table.ref.alias;
      }
    }
    return Status::PlanError("unknown table alias: " + column.table());
  }
  std::string found;
  for (const BoundTable& table : tables) {
    if (table.runtime->table().schema().IndexOf(column.column()).has_value()) {
      if (!found.empty()) {
        return Status::PlanError("ambiguous column: " + column.column());
      }
      found = table.ref.alias;
    }
  }
  if (found.empty()) {
    return Status::PlanError("unknown column: " + column.column());
  }
  return found;
}

Status Planner::SplitWhere(const Expr* where, std::vector<BoundTable>* tables,
                           std::vector<JoinSpec>* extra_joins) {
  if (where == nullptr) return Status::OK();
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(*where, &conjuncts);

  for (const Expr* conjunct : conjuncts) {
    // An equality between two column refs is a WHERE-style equijoin.
    if (conjunct->kind() == ExprKind::kCompare &&
        conjunct->compare_op() == CompareOp::kEq &&
        conjunct->children()[0]->kind() == ExprKind::kColumn &&
        conjunct->children()[1]->kind() == ExprKind::kColumn) {
      QUERYER_ASSIGN_OR_RETURN(std::string left_alias,
                               ResolveAlias(*conjunct->children()[0], *tables));
      QUERYER_ASSIGN_OR_RETURN(std::string right_alias,
                               ResolveAlias(*conjunct->children()[1], *tables));
      if (!EqualsIgnoreCase(left_alias, right_alias)) {
        JoinSpec join;
        for (const BoundTable& table : *tables) {
          if (EqualsIgnoreCase(table.ref.alias, right_alias)) {
            join.table = table.ref;
          }
        }
        join.left_key = conjunct->children()[0]->Clone();
        join.right_key = conjunct->children()[1]->Clone();
        extra_joins->push_back(std::move(join));
        continue;
      }
      // Same-table column equality is an ordinary per-table predicate.
    }

    // Classify by the set of referenced tables.
    std::vector<const Expr*> columns;
    conjunct->CollectColumns(&columns);
    std::string owner;
    for (const Expr* column : columns) {
      QUERYER_ASSIGN_OR_RETURN(std::string alias,
                               ResolveAlias(*column, *tables));
      if (owner.empty()) {
        owner = alias;
      } else if (!EqualsIgnoreCase(owner, alias)) {
        return Status::NotImplemented(
            "predicate spans multiple tables (not an equijoin): " +
            conjunct->ToString());
      }
    }
    if (owner.empty()) {
      return Status::NotImplemented("constant predicate: " +
                                    conjunct->ToString());
    }
    for (BoundTable& table : *tables) {
      if (EqualsIgnoreCase(table.ref.alias, owner)) {
        table.predicate =
            ConjunctionOf(std::move(table.predicate), conjunct->Clone());
      }
    }
  }
  return Status::OK();
}

Result<PlanPtr> Planner::BuildPlan(const SelectStatement& stmt,
                                   PlannerMode mode) {
  QUERYER_ASSIGN_OR_RETURN(std::vector<BoundTable> tables, BindTables(stmt));
  std::vector<JoinSpec> joins;
  for (const JoinSpec& join : stmt.joins) {
    JoinSpec copy;
    copy.table = join.table;
    copy.left_key = join.left_key->Clone();
    copy.right_key = join.right_key->Clone();
    joins.push_back(std::move(copy));
  }
  QUERYER_RETURN_NOT_OK(SplitWhere(stmt.where.get(), &tables, &joins));

  if (!stmt.dedup) {
    return BuildPlainPlan(stmt, std::move(tables), std::move(joins));
  }
  return BuildDedupPlan(stmt, std::move(tables), std::move(joins), mode);
}

PlanPtr Planner::BuildBranch(const BoundTable& table, PlannerMode mode,
                             bool deduplicate) {
  PlanPtr plan = LogicalPlan::Scan(table.ref.name, table.ref.alias);
  if (!deduplicate) {
    if (table.predicate != nullptr) {
      plan = LogicalPlan::Filter(std::move(plan), table.predicate->Clone());
    }
    return plan;
  }
  if (mode == PlannerMode::kNaive) {
    // Fig. 5: Deduplicate above the scan; predicate applied group-aware.
    plan = LogicalPlan::Deduplicate(std::move(plan), table.ref.name,
                                    table.ref.alias);
    if (table.predicate != nullptr) {
      plan = LogicalPlan::GroupFilter(std::move(plan), table.predicate->Clone());
    }
    return plan;
  }
  // Figs. 6-8: Filter first so only |QE| entities feed the ER pipeline.
  if (table.predicate != nullptr) {
    plan = LogicalPlan::Filter(std::move(plan), table.predicate->Clone());
  }
  return LogicalPlan::Deduplicate(std::move(plan), table.ref.name,
                                  table.ref.alias);
}

Result<PlanPtr> Planner::ApplyProjection(const SelectStatement& stmt,
                                         PlanPtr plan) {
  if (stmt.select_star) return plan;
  // Validate select-list references at plan time, so unknown or ambiguous
  // columns fail before any ER work happens.
  QUERYER_ASSIGN_OR_RETURN(std::vector<BoundTable> tables, BindTables(stmt));
  std::vector<SelectItem> items;
  items.reserve(stmt.items.size());
  for (const SelectItem& item : stmt.items) {
    std::vector<const Expr*> columns;
    item.expr->CollectColumns(&columns);
    for (const Expr* column : columns) {
      QUERYER_RETURN_NOT_OK(ResolveAlias(*column, tables).status());
    }
    items.push_back({item.expr->Clone(), item.alias});
  }
  return LogicalPlan::Project(std::move(plan), std::move(items));
}

Result<PlanPtr> Planner::BuildPlainPlan(const SelectStatement& stmt,
                                        std::vector<BoundTable> tables,
                                        std::vector<JoinSpec> joins) {
  if (joins.size() + 1 < tables.size()) {
    return Status::NotImplemented("cross joins are not supported");
  }
  PlanPtr plan = BuildBranch(tables[0], PlannerMode::kNaive2, false);
  // Left-deep join chain in statement order.
  for (std::size_t i = 1; i < tables.size(); ++i) {
    const BoundTable& table = tables[i];
    // Find the join spec that connects this table.
    JoinSpec* spec = nullptr;
    for (JoinSpec& candidate : joins) {
      if (EqualsIgnoreCase(candidate.table.alias, table.ref.alias)) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      return Status::PlanError("no join condition for table " +
                               table.ref.alias);
    }
    // Orient keys: right key must reference the newly joined table.
    ExprPtr left_key = spec->left_key->Clone();
    ExprPtr right_key = spec->right_key->Clone();
    QUERYER_ASSIGN_OR_RETURN(std::string right_alias,
                             ResolveAlias(*right_key, tables));
    if (!EqualsIgnoreCase(right_alias, table.ref.alias)) {
      std::swap(left_key, right_key);
    }
    PlanPtr branch = BuildBranch(table, PlannerMode::kNaive2, false);
    plan = LogicalPlan::HashJoin(std::move(plan), std::move(branch),
                                 std::move(left_key), std::move(right_key));
  }
  return ApplyProjection(stmt, std::move(plan));
}

Result<PlanPtr> Planner::BuildDedupPlan(const SelectStatement& stmt,
                                        std::vector<BoundTable> tables,
                                        std::vector<JoinSpec> joins,
                                        PlannerMode mode) {
  if (joins.size() + 1 < tables.size()) {
    return Status::NotImplemented("cross joins are not supported");
  }

  PlanPtr plan;
  if (tables.size() == 1) {
    // SP query: straightforward placement (paper Sec. 7.2.1(ii)).
    plan = BuildBranch(tables[0], mode, true);
  } else {
    // SPJ: resolve the first two branches per mode, then fold the remaining
    // tables left-deep (each new table is the dirty side under AES).
    for (std::size_t i = 1; i < tables.size(); ++i) {
      const BoundTable& table = tables[i];
      JoinSpec* spec = nullptr;
      for (JoinSpec& candidate : joins) {
        if (EqualsIgnoreCase(candidate.table.alias, table.ref.alias)) {
          spec = &candidate;
          break;
        }
      }
      if (spec == nullptr) {
        return Status::PlanError("no join condition for table " +
                                 table.ref.alias);
      }
      ExprPtr left_key = spec->left_key->Clone();
      ExprPtr right_key = spec->right_key->Clone();
      QUERYER_ASSIGN_OR_RETURN(std::string right_alias,
                               ResolveAlias(*right_key, tables));
      if (!EqualsIgnoreCase(right_alias, table.ref.alias)) {
        std::swap(left_key, right_key);
      }

      if (mode != PlannerMode::kAdvanced) {
        // NES / NES2: both sides resolved independently, clean join.
        if (plan == nullptr) plan = BuildBranch(tables[0], mode, true);
        PlanPtr branch = BuildBranch(table, mode, true);
        plan = LogicalPlan::DedupJoin(std::move(plan), std::move(branch),
                                      std::move(left_key), std::move(right_key),
                                      DirtySide::kNone, "", "");
        continue;
      }

      // AES: deduplicate the branch with the lower estimated comparison
      // count first; the other side resolves inside the Deduplicate-Join.
      //
      // Deviation from the paper's Fig. 8 (docs/ARCHITECTURE.md, step 3):
      // the dirty branch always enters the join *unfiltered*, and its
      // predicate is applied duplicate-group-aware above the join.
      // Filtering the dirty side before the join-discard (as Alg. 1 applied
      // to Fig. 8 implies) loses selected entities whose own join value is
      // corrupted and only joins through a not-yet-discovered duplicate.
      if (plan == nullptr) {
        const BoundTable& first = tables[0];
        // Total cost of each plan: cleaning one branch under its predicate,
        // plus resolving the (unfiltered) dirty side restricted by the
        // join — approximated as join-fraction x full-table cost.
        auto estimate = [&](const BoundTable& branch, const Expr* predicate) {
          return statistics_->EstimateComparisons(branch.runtime.get(),
                                                  predicate, branch.ref.alias);
        };
        QUERYER_ASSIGN_OR_RETURN(double first_full_cost,
                                 estimate(first, nullptr));
        QUERYER_ASSIGN_OR_RETURN(double second_full_cost,
                                 estimate(table, nullptr));
        // A branch without a predicate selects its whole table.
        double first_sel_cost = first_full_cost;
        double second_sel_cost = second_full_cost;
        if (first.predicate != nullptr) {
          QUERYER_ASSIGN_OR_RETURN(first_sel_cost,
                                   estimate(first, first.predicate.get()));
        }
        if (table.predicate != nullptr) {
          QUERYER_ASSIGN_OR_RETURN(second_sel_cost,
                                   estimate(table, table.predicate.get()));
        }
        double jf_second_to_first = statistics_->JoinFraction(
            table.runtime.get(), right_key->column(), first.runtime.get(),
            left_key->column());
        double jf_first_to_second = statistics_->JoinFraction(
            first.runtime.get(), left_key->column(), table.runtime.get(),
            right_key->column());
        double dirty_right_cost =
            first_sel_cost + jf_second_to_first * second_full_cost;
        double dirty_left_cost =
            second_sel_cost + jf_first_to_second * first_full_cost;

        const Expr* dirty_predicate = nullptr;
        if (dirty_right_cost <= dirty_left_cost) {
          // Clean the left branch; right is dirty (Fig. 7, Dirty-Right).
          plan = LogicalPlan::DedupJoin(
              BuildBranch(first, mode, true),
              LogicalPlan::Scan(table.ref.name, table.ref.alias),
              std::move(left_key), std::move(right_key), DirtySide::kRight,
              table.ref.name, table.ref.alias);
          dirty_predicate = table.predicate.get();
        } else {
          // Clean the right branch; left is dirty (Fig. 8, Dirty-Left).
          plan = LogicalPlan::DedupJoin(
              LogicalPlan::Scan(first.ref.name, first.ref.alias),
              BuildBranch(table, mode, true), std::move(left_key),
              std::move(right_key), DirtySide::kLeft, first.ref.name,
              first.ref.alias);
          dirty_predicate = first.predicate.get();
        }
        if (dirty_predicate != nullptr) {
          plan = LogicalPlan::GroupFilter(std::move(plan),
                                          dirty_predicate->Clone());
        }
      } else {
        // The composite left side is already resolved; the new table joins
        // as the dirty right side.
        plan = LogicalPlan::DedupJoin(
            std::move(plan), LogicalPlan::Scan(table.ref.name, table.ref.alias),
            std::move(left_key), std::move(right_key), DirtySide::kRight,
            table.ref.name, table.ref.alias);
        if (table.predicate != nullptr) {
          plan = LogicalPlan::GroupFilter(std::move(plan),
                                          table.predicate->Clone());
        }
      }
    }
  }

  // Group duplicate entities into single records before the final Project.
  plan = LogicalPlan::GroupEntities(std::move(plan));
  return ApplyProjection(stmt, std::move(plan));
}

}  // namespace queryer
