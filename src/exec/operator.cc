#include "exec/operator.h"

#include <algorithm>

namespace queryer {

bool ReferenceRows::EmitInto(std::size_t* position, RowBatch* batch) const {
  batch->Clear();
  if (*position >= size()) return false;
  batch->BeginReference(lineage);
  const std::size_t width = lineage.num_tables();
  while (*position < size() && !batch->full()) {
    const EntityId* ids = row(*position);
    EntityId* out = batch->AppendReferenceRow(group_keys[*position]);
    std::copy(ids, ids + width, out);
    ++*position;
  }
  return true;
}

Buckets::Buckets(const std::vector<std::uint32_t>& bucket_of,
                 std::size_t num_buckets)
    : start(num_buckets + 1, 0) {
  for (std::uint32_t b : bucket_of) {
    if (b < num_buckets) ++start[b + 1];
  }
  for (std::size_t b = 1; b <= num_buckets; ++b) start[b] += start[b - 1];
  items.resize(start.back());
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < bucket_of.size(); ++i) {
    if (bucket_of[i] < num_buckets) {
      items[fill[bucket_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
}

Status DrainReferences(PhysicalOperator* op, ReferenceRows* out) {
  QUERYER_RETURN_NOT_OK(op->Open());
  RowBatch batch;
  while (true) {
    QUERYER_ASSIGN_OR_RETURN(bool has, op->Next(&batch));
    if (!has) break;
    if (batch.empty()) continue;
    if (!batch.reference_mode()) {
      return Status::ExecutionError(
          "operator input must be entity references, not projected rows");
    }
    if (out->size() == 0) out->lineage = batch.lineage();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out->Append(batch.entity_ids(i), batch.group_key(i));
    }
  }
  op->Close();
  return Status::OK();
}

}  // namespace queryer
