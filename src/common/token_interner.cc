#include "common/token_interner.h"

#include <algorithm>

namespace queryer {

namespace {

// FNV-1a, then Murmur3's 64-bit finalizer to spread every byte over the
// low bits the table indexes by.
std::uint32_t HashBytes(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

}  // namespace

std::uint32_t TokenInterner::Intern(std::string_view bytes) {
  if (2 * (hashes_.size() + 1) > table_.size()) Grow();
  const std::uint32_t hash = HashBytes(bytes);
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t entry = table_[i];
    if (entry == 0) {
      table_[i] = static_cast<std::uint32_t>(hashes_.size() + 1);
      hashes_.push_back(hash);
      chars_ += bytes;
      ends_.push_back(static_cast<std::uint32_t>(chars_.size()));
      return table_[i] - 1;
    }
    if (hashes_[entry - 1] == hash && token(entry - 1) == bytes) {
      return entry - 1;
    }
  }
}

void TokenInterner::Grow() {
  std::vector<std::uint32_t> table(
      std::max<std::size_t>(64, 2 * table_.size()));
  const std::size_t mask = table.size() - 1;
  for (std::size_t id = 0; id < hashes_.size(); ++id) {
    std::size_t i = hashes_[id] & mask;
    while (table[i] != 0) i = (i + 1) & mask;
    table[i] = static_cast<std::uint32_t>(id + 1);
  }
  table_.swap(table);
}

}  // namespace queryer
