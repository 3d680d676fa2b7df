#include "exec/executor.h"

#include <atomic>

#include "exec/dedup_join_op.h"
#include "exec/deduplicate_op.h"
#include "exec/filter.h"
#include "exec/group_entities_op.h"
#include "exec/group_filter.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/table_scan.h"

namespace queryer {

namespace {

// Binds the pair of join keys to the children, swapping them when the plan
// stored them in the opposite orientation (ON a.x = b.y vs ON b.y = a.x).
Status BindJoinKeys(const std::vector<std::string>& left_columns,
                    const std::vector<std::string>& right_columns,
                    ExprPtr* left_key, ExprPtr* right_key) {
  Status left_status = (*left_key)->Bind(left_columns);
  if (left_status.ok()) {
    return (*right_key)->Bind(right_columns);
  }
  // Try the swapped orientation.
  Status swapped_left = (*right_key)->Bind(left_columns);
  if (!swapped_left.ok()) return left_status;
  QUERYER_RETURN_NOT_OK((*left_key)->Bind(right_columns));
  std::swap(*left_key, *right_key);
  return Status::OK();
}

std::uint64_t NextSessionId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

OperatorCategory CategoryOf(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan: return OperatorCategory::kScan;
    case PlanKind::kFilter: return OperatorCategory::kFilter;
    case PlanKind::kGroupFilter: return OperatorCategory::kGroupFilter;
    case PlanKind::kProject: return OperatorCategory::kProject;
    case PlanKind::kHashJoin: return OperatorCategory::kJoin;
    case PlanKind::kDeduplicate: return OperatorCategory::kDedup;
    case PlanKind::kDedupJoin: return OperatorCategory::kDedupJoin;
    case PlanKind::kGroupEntities: return OperatorCategory::kGroup;
  }
  return OperatorCategory::kOther;
}

}  // namespace

Executor::Executor(const Catalog* catalog, RuntimeRegistry* runtimes,
                   ExecStats* stats, ThreadPool* pool, PlanProfile* profile,
                   std::shared_ptr<TraceSink> trace,
                   std::shared_ptr<const CancelContext> cancel)
    : catalog_(catalog),
      runtimes_(runtimes),
      stats_(stats),
      pool_(pool),
      profile_(profile),
      trace_(std::move(trace)),
      cancel_(std::move(cancel)),
      session_id_(NextSessionId()) {}

OperatorProfile* Executor::MakeNode(const LogicalPlan& plan,
                                    OperatorProfile* parent) {
  if (profile_ == nullptr) return nullptr;
  return profile_->NewNode(parent, plan.NodeLabel(), CategoryOf(plan.kind));
}

Result<OperatorPtr> Executor::LowerScan(const LogicalPlan& plan,
                                        OperatorProfile* parent) {
  QUERYER_ASSIGN_OR_RETURN(TablePtr table, catalog_->Get(plan.table_name));
  OperatorProfile* node = MakeNode(plan, parent);
  OperatorPtr op(new TableScanOp(std::move(table), plan.table_alias));
  op->set_profile(node);
  return op;
}

Result<OperatorPtr> Executor::Lower(const LogicalPlan& plan) {
  return LowerNode(plan, nullptr);
}

Result<OperatorPtr> Executor::LowerNode(const LogicalPlan& plan,
                                        OperatorProfile* parent) {
  switch (plan.kind) {
    case PlanKind::kScan:
      return LowerScan(plan, parent);
    case PlanKind::kFilter: {
      // Filter over Scan fuses into the scan: the predicate runs against
      // the table's stored rows, so rejected tuples are never copied. The
      // fused pair shares ONE profile node (there is one physical
      // operator), with a label that shows both halves.
      if (plan.children[0]->kind == PlanKind::kScan) {
        QUERYER_ASSIGN_OR_RETURN(OperatorPtr child,
                                 LowerNode(*plan.children[0], parent));
        ExprPtr predicate = plan.predicate->Clone();
        QUERYER_RETURN_NOT_OK(predicate->Bind(child->output_columns()));
        static_cast<TableScanOp*>(child.get())
            ->FusePredicate(std::move(predicate));
        if (child->profile() != nullptr) {
          child->profile()->label =
              plan.children[0]->NodeLabel() + " + " + plan.NodeLabel();
        }
        return child;
      }
      OperatorProfile* node = MakeNode(plan, parent);
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr child,
                               LowerNode(*plan.children[0], node));
      ExprPtr predicate = plan.predicate->Clone();
      QUERYER_RETURN_NOT_OK(predicate->Bind(child->output_columns()));
      OperatorPtr op(new FilterOp(std::move(child), std::move(predicate)));
      op->set_profile(node);
      return op;
    }
    case PlanKind::kGroupFilter: {
      OperatorProfile* node = MakeNode(plan, parent);
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr child,
                               LowerNode(*plan.children[0], node));
      ExprPtr predicate = plan.predicate->Clone();
      QUERYER_RETURN_NOT_OK(predicate->Bind(child->output_columns()));
      OperatorPtr op(new GroupFilterOp(std::move(child), std::move(predicate)));
      op->set_profile(node);
      return op;
    }
    case PlanKind::kProject: {
      OperatorProfile* node = MakeNode(plan, parent);
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr child,
                               LowerNode(*plan.children[0], node));
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (const SelectItem& item : plan.items) {
        ExprPtr expr = item.expr->Clone();
        QUERYER_RETURN_NOT_OK(expr->Bind(child->output_columns()));
        names.push_back(item.alias.empty() ? item.expr->ToString()
                                           : item.alias);
        exprs.push_back(std::move(expr));
      }
      OperatorPtr op(
          new ProjectOp(std::move(child), std::move(exprs), std::move(names)));
      op->set_profile(node);
      return op;
    }
    case PlanKind::kHashJoin: {
      OperatorProfile* node = MakeNode(plan, parent);
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr left,
                               LowerNode(*plan.children[0], node));
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr right,
                               LowerNode(*plan.children[1], node));
      ExprPtr left_key = plan.left_key->Clone();
      ExprPtr right_key = plan.right_key->Clone();
      QUERYER_RETURN_NOT_OK(BindJoinKeys(left->output_columns(),
                                         right->output_columns(), &left_key,
                                         &right_key));
      OperatorPtr op(new HashJoinOp(std::move(left), std::move(right),
                                    std::move(left_key), std::move(right_key)));
      op->set_profile(node);
      return op;
    }
    case PlanKind::kDeduplicate: {
      OperatorProfile* node = MakeNode(plan, parent);
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr child,
                               LowerNode(*plan.children[0], node));
      QUERYER_ASSIGN_OR_RETURN(std::shared_ptr<TableRuntime> runtime,
                               FindRuntime(*runtimes_, plan.table_name));
      OperatorPtr op(new DeduplicateOp(std::move(child), std::move(runtime),
                                       stats_, pool_, trace_, cancel_));
      op->set_profile(node);
      return op;
    }
    case PlanKind::kDedupJoin: {
      OperatorProfile* node = MakeNode(plan, parent);
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr left,
                               LowerNode(*plan.children[0], node));
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr right,
                               LowerNode(*plan.children[1], node));
      ExprPtr left_key = plan.left_key->Clone();
      ExprPtr right_key = plan.right_key->Clone();
      QUERYER_RETURN_NOT_OK(BindJoinKeys(left->output_columns(),
                                         right->output_columns(), &left_key,
                                         &right_key));
      std::shared_ptr<TableRuntime> runtime;
      if (plan.dirty_side != DirtySide::kNone) {
        QUERYER_ASSIGN_OR_RETURN(runtime,
                                 FindRuntime(*runtimes_, plan.table_name));
      }
      OperatorPtr op(new DedupJoinOp(
          std::move(left), std::move(right), std::move(left_key),
          std::move(right_key), plan.dirty_side, std::move(runtime), stats_,
          pool_, trace_, cancel_));
      op->set_profile(node);
      return op;
    }
    case PlanKind::kGroupEntities: {
      OperatorProfile* node = MakeNode(plan, parent);
      QUERYER_ASSIGN_OR_RETURN(OperatorPtr child,
                               LowerNode(*plan.children[0], node));
      OperatorPtr op(new GroupEntitiesOp(std::move(child), stats_, trace_));
      op->set_profile(node);
      return op;
    }
  }
  return Status::Internal("unknown plan kind");
}

}  // namespace queryer
