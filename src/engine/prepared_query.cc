#include "engine/prepared_query.h"

#include <utility>

#include "engine/query_engine.h"

namespace queryer {

PreparedQuery::PreparedQuery(
    QueryEngine* engine, std::string sql, SelectStatement statement,
    PlanPtr plan, EngineOptions options,
    std::vector<std::shared_ptr<TableRuntime>> involved)
    : engine_(engine),
      sql_(std::move(sql)),
      statement_(std::move(statement)),
      plan_(std::move(plan)),
      plan_text_(plan_->ToString()),
      options_(std::move(options)),
      involved_(std::move(involved)) {}

Result<CursorPtr> PreparedQuery::Open() const {
  return engine_->OpenPrepared(*this);
}

}  // namespace queryer
