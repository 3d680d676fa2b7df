#include "exec/table_runtime.h"

#include "common/string_util.h"

namespace queryer {

TableRuntime::TableRuntime(TablePtr table, BlockingOptions blocking,
                           MetaBlockingConfig meta_blocking,
                           MatchingConfig matching)
    : table_(std::move(table)),
      blocking_(std::move(blocking)),
      meta_blocking_(meta_blocking),
      matching_(matching),
      link_index_(table_->num_rows()) {}

const TableBlockIndex& TableRuntime::tbi() {
  // Once-guarded cold start: concurrent sessions racing the first DEDUP
  // query (or WarmIndices) all block here while one of them builds.
  std::call_once(tbi_once_, [this] {
    tbi_ = TableBlockIndex::Build(*table_, blocking_);
    tbi_built_.store(true, std::memory_order_release);
  });
  return *tbi_;
}

Status TableRuntime::WarmIndices() {
  tbi();
  attribute_weights();
  return Status::OK();
}

const AttributeWeights& TableRuntime::attribute_weights() {
  std::call_once(weights_once_, [this] {
    attribute_weights_ =
        std::make_unique<AttributeWeights>(AttributeWeights::Compute(*table_));
  });
  return *attribute_weights_;
}

bool TableRuntime::InstallBlockIndex(std::shared_ptr<TableBlockIndex> index) {
  bool installed = false;
  std::call_once(tbi_once_, [&] {
    tbi_ = std::move(index);
    tbi_built_.store(true, std::memory_order_release);
    installed = true;
  });
  return installed;
}

bool TableRuntime::InstallAttributeWeights(AttributeWeights weights) {
  bool installed = false;
  std::call_once(weights_once_, [&] {
    attribute_weights_ =
        std::make_unique<AttributeWeights>(std::move(weights));
    installed = true;
  });
  return installed;
}

Result<std::shared_ptr<TableRuntime>> FindRuntime(
    const RuntimeRegistry& registry, const std::string& table_name) {
  auto it = registry.find(ToLower(table_name));
  if (it == registry.end()) {
    return Status::NotFound("no runtime for table: " + table_name);
  }
  return it->second;
}

}  // namespace queryer
