// Dense ids for distinct tokens.
//
// Token Blocking (the TBI build) and the comparison kernel both tokenize
// each distinct dictionary value once and then work on integer token ids;
// the attribute weights count distinct lower-cased values the same way.
// TokenInterner assigns those ids: the first occurrence of a byte string
// gets the next id, later occurrences get the same one. The token bytes
// live in one flat buffer, so interning allocates only when a buffer grows.

#ifndef QUERYER_COMMON_TOKEN_INTERNER_H_
#define QUERYER_COMMON_TOKEN_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace queryer {

/// \brief Interns byte strings into dense u32 ids in first-seen order.
class TokenInterner {
 public:
  /// The id of the token `bytes`; a token not seen before gets id size().
  std::uint32_t Intern(std::string_view bytes);

  /// The bytes of token `id` (valid until the next Intern call).
  std::string_view token(std::uint32_t id) const {
    const std::uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(chars_.data() + begin, ends_[id] - begin);
  }

  /// Number of distinct tokens interned so far.
  std::size_t size() const { return ends_.size(); }

  /// Total bytes of the distinct tokens.
  std::size_t bytes() const { return chars_.size(); }

 private:
  void Grow();

  // Token id's bytes are chars_[ends_[id - 1] .. ends_[id]).
  std::string chars_;
  std::vector<std::uint32_t> ends_;
  // Open addressing over ids (0 = empty, else id + 1), with each id's hash
  // kept so the table can grow without rehashing the bytes.
  std::vector<std::uint32_t> table_;
  std::vector<std::uint32_t> hashes_;
};

}  // namespace queryer

#endif  // QUERYER_COMMON_TOKEN_INTERNER_H_
