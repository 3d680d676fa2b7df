#include "persist/index_snapshot.h"

#include <cstring>
#include <utility>
#include <vector>

#include "persist/snapshot.h"

namespace queryer {

// Sections: [0] blocking options, [1] block keys, [2] block entity lists,
// [3] per-entity block lists (ITBI), [4] attribute weights.

Status IndexSnapshotIO::Write(const TableBlockIndex& tbi,
                              const AttributeWeights& weights,
                              const std::string& path, bool fsync) {
  SnapshotWriter writer(SnapshotKind::kIndex);

  ByteWriter options;
  options.U64(tbi.options().min_token_length);
  options.U32(static_cast<std::uint32_t>(tbi.options().excluded_attributes.size()));
  for (std::size_t attr : tbi.options().excluded_attributes) options.U64(attr);
  writer.AddSection(options.Take());

  ByteWriter keys;
  keys.U32(static_cast<std::uint32_t>(tbi.num_blocks()));
  for (std::size_t b = 0; b < tbi.num_blocks(); ++b) {
    keys.String(tbi.block_key(b));
  }
  writer.AddSection(keys.Take());

  ByteWriter blocks;
  blocks.U32(static_cast<std::uint32_t>(tbi.num_blocks()));
  for (std::size_t b = 0; b < tbi.num_blocks(); ++b) {
    const std::vector<EntityId>& entities = tbi.block_entities(b);
    blocks.U32(static_cast<std::uint32_t>(entities.size()));
    blocks.Bytes(entities.data(), entities.size() * sizeof(EntityId));
  }
  writer.AddSection(blocks.Take());

  ByteWriter itbi;
  itbi.U32(static_cast<std::uint32_t>(tbi.num_entities()));
  for (std::size_t e = 0; e < tbi.num_entities(); ++e) {
    const std::vector<std::uint32_t>& entity_blocks =
        tbi.entity_blocks(static_cast<EntityId>(e));
    itbi.U32(static_cast<std::uint32_t>(entity_blocks.size()));
    itbi.Bytes(entity_blocks.data(),
               entity_blocks.size() * sizeof(std::uint32_t));
  }
  writer.AddSection(itbi.Take());

  ByteWriter weight_bytes;
  weight_bytes.U32(static_cast<std::uint32_t>(weights.size()));
  for (std::size_t a = 0; a < weights.size(); ++a) {
    weight_bytes.F64(weights.weight(a));
  }
  writer.AddSection(weight_bytes.Take());

  return writer.Commit(path, fsync).WithContext("index snapshot");
}

namespace {

// Reads `u32 count` + per item `u32 n` + `n` raw u32s, validating every
// id against `id_limit`. Returns false on any structural problem.
bool ReadIdLists(ByteReader* reader, std::uint32_t id_limit,
                 std::vector<std::vector<std::uint32_t>>* out) {
  const std::uint32_t count = reader->U32();
  if (!reader->ok() ||
      count > reader->remaining() / sizeof(std::uint32_t)) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t n = reader->U32();
    if (!reader->ok() || n > reader->remaining() / sizeof(std::uint32_t)) {
      return false;
    }
    const std::string_view raw = reader->Bytes(n * sizeof(std::uint32_t));
    std::vector<std::uint32_t> ids(n);
    if (n > 0) std::memcpy(ids.data(), raw.data(), raw.size());
    for (std::uint32_t id : ids) {
      if (id >= id_limit) return false;
    }
    out->push_back(std::move(ids));
  }
  return reader->AtEnd();
}

}  // namespace

Result<LoadedIndexes> IndexSnapshotIO::Load(const std::string& path,
                                            std::size_t num_entities) {
  QUERYER_ASSIGN_OR_RETURN(SnapshotReader reader,
                           SnapshotReader::Open(path, SnapshotKind::kIndex));
  if (reader.num_sections() != 5) {
    return Status::Corruption("index snapshot " + path + ": expected 5 sections");
  }

  ByteReader options_reader(reader.section(0));
  BlockingOptions options;
  options.min_token_length =
      static_cast<std::size_t>(options_reader.U64());
  const std::uint32_t num_excluded = options_reader.U32();
  if (!options_reader.ok() ||
      num_excluded > options_reader.remaining() / sizeof(std::uint64_t)) {
    return Status::Corruption("index snapshot " + path + ": bad options");
  }
  for (std::uint32_t i = 0; i < num_excluded; ++i) {
    options.excluded_attributes.push_back(
        static_cast<std::size_t>(options_reader.U64()));
  }
  if (!options_reader.AtEnd()) {
    return Status::Corruption("index snapshot " + path + ": bad options");
  }

  ByteReader keys_reader(reader.section(1));
  const std::uint32_t num_blocks = keys_reader.U32();
  if (!keys_reader.ok() || num_blocks > keys_reader.remaining()) {
    return Status::Corruption("index snapshot " + path + ": bad block keys");
  }
  std::vector<std::string> block_keys;
  block_keys.reserve(num_blocks);
  bool ascending = true;
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    block_keys.emplace_back(keys_reader.String());
    // Build numbers blocks in key order, and Block-Join's output order and
    // Block Filtering's (size, block order) tie-break rest on those ids: a
    // file whose keys do not strictly ascend is no index Build produced.
    if (b > 0 && block_keys[b - 1] >= block_keys[b]) ascending = false;
  }
  if (!keys_reader.AtEnd() || !ascending) {
    return Status::Corruption("index snapshot " + path + ": bad block keys");
  }

  ByteReader blocks_reader(reader.section(2));
  std::vector<std::vector<std::uint32_t>> block_entities;
  if (!ReadIdLists(&blocks_reader, static_cast<std::uint32_t>(num_entities),
                   &block_entities) ||
      block_entities.size() != num_blocks) {
    return Status::Corruption("index snapshot " + path +
                              ": bad block entity lists");
  }

  ByteReader itbi_reader(reader.section(3));
  std::vector<std::vector<std::uint32_t>> entity_blocks;
  if (!ReadIdLists(&itbi_reader, num_blocks, &entity_blocks) ||
      entity_blocks.size() != num_entities) {
    return Status::Corruption("index snapshot " + path +
                              ": bad entity block lists");
  }

  ByteReader weights_reader(reader.section(4));
  const std::uint32_t num_weights = weights_reader.U32();
  if (!weights_reader.ok() ||
      num_weights > weights_reader.remaining() / sizeof(double)) {
    return Status::Corruption("index snapshot " + path + ": bad weights");
  }
  std::vector<double> weights;
  weights.reserve(num_weights);
  for (std::uint32_t a = 0; a < num_weights; ++a) {
    weights.push_back(weights_reader.F64());
  }
  if (!weights_reader.AtEnd()) {
    return Status::Corruption("index snapshot " + path + ": bad weights");
  }

  LoadedIndexes loaded;
  loaded.tbi = TableBlockIndex::FromParts(std::move(options),
                                          std::move(block_keys),
                                          std::move(block_entities),
                                          std::move(entity_blocks));
  loaded.weights = AttributeWeights::FromWeights(std::move(weights));
  return loaded;
}

}  // namespace queryer
