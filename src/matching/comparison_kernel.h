// The comparison kernel: the profile similarity of profile_matcher.h,
// evaluated over a batch of pairs with all per-value work done once.
//
// A query executes thousands of comparisons among a few thousand entities,
// and the same attribute values (and the same token pairs) recur across
// them. The kernel is built once from the batch's pair list:
//
//  - Tokenize once per batch. Every distinct (attribute, dictionary code)
//    the pairs touch becomes one value slot: tokenized once (TokenizeAlnum,
//    min length 1), numeric-parsed once.
//  - Lexicographic token ids. Distinct tokens are interned into dense u32
//    ids ranked in lexicographic order, so a value's sorted id list iterates
//    in exactly the order its sorted token strings would. The greedy fuzzy
//    match and the cosine sums therefore visit tokens in the same order as
//    a string-based evaluation, and the doubles come out bit-identical.
//  - Memoized fuzzy token matches. Whether two distinct tokens match under
//    Jaro-Winkler is a pure function of the (ordered) pair, so the result
//    is cached in a bounded, direct-mapped memo: a collision evicts, which
//    costs a recomputation but never changes an answer. On a miss, an upper
//    bound from the tokens' character sets rejects most pairs before
//    Jaro-Winkler runs.
//  - Cosine vectors on demand. An entity's merged (token, max weight)
//    vector is built when the cosine signal is needed, and the first
//    entity's vector is reused while consecutive pairs share it (meta-
//    blocking emits pairs grouped by their first entity).
//
// Everything lives in flat arrays with offsets; Similarity() allocates
// nothing once its scratch buffers have grown. A kernel is single-threaded
// (the memo and scratch buffers mutate) and lives for one evaluation call:
// each parallel chunk builds its own.

#ifndef QUERYER_MATCHING_COMPARISON_KERNEL_H_
#define QUERYER_MATCHING_COMPARISON_KERNEL_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "matching/profile_matcher.h"
#include "metablocking/edge_pruning.h"
#include "storage/table.h"

namespace queryer {

class ComparisonKernel {
 public:
  /// Builds the kernel for the pairs in [begin, end) of `table`. `weights`
  /// may be null (uniform attribute weights). `table`, `config` and
  /// `weights` are read only here.
  ComparisonKernel(const Table& table, const Comparison* begin,
                   const Comparison* end, const MatchingConfig& config,
                   const AttributeWeights* weights);

  /// Profile similarity of two entities, both of which must occur in the
  /// pairs the kernel was built from. Same value as ProfileSimilarity.
  double Similarity(EntityId a, EntityId b);

  /// Fuzzy token-set similarity of two raw values (ValueSimilarity).
  static double ValueSimilarity(std::string_view a, std::string_view b);

  /// Memo entries overwritten by a different token pair so far.
  std::size_t memo_evictions() const { return memo_evictions_; }

 private:
  // A value-only kernel over raw values (no table, no entities).
  explicit ComparisonKernel(const std::vector<std::string_view>& values);

  // Fills entity_slots_ and returns the value of each slot.
  std::vector<std::string_view> AssignSlots(const Table& table);
  // Tokenizes and parses `values` into the slot arrays and assigns
  // lexicographic token ids.
  void BuildSlots(const std::vector<std::string_view>& values);

  // ValueSimilarity of two distinct non-empty value slots.
  double SlotSimilarity(std::uint32_t x, std::uint32_t y);
  // Whether tokens x (from the smaller set) and y match.
  bool TokensMatch(std::uint32_t x, std::uint32_t y);
  std::string_view Token(std::uint32_t id) const {
    return std::string_view(token_chars_.data() + token_begin_[id],
                            token_begin_[id + 1] - token_begin_[id]);
  }
  // Merged (token, max weight) vector of one entity; returns its norm².
  double BuildCosineVector(std::size_t entity,
                           std::vector<std::pair<std::uint32_t, double>>* out);

  // Included attributes: positions in the table and their weights.
  std::vector<std::uint32_t> attrs_;
  std::vector<double> attr_weight_;

  // Entities of the batch (sorted) and their value slots, one row of
  // attrs_.size() slots per entity.
  std::vector<EntityId> entities_;
  std::vector<std::uint32_t> entity_slots_;

  // Value slots: emptiness, finite numeric value, sorted distinct token ids
  // (slot_tokens_[slot_token_begin_[s] .. slot_token_begin_[s + 1])).
  std::vector<std::uint8_t> slot_empty_;
  std::vector<std::uint8_t> slot_numeric_;
  std::vector<double> slot_number_;
  std::vector<std::uint32_t> slot_token_begin_;
  std::vector<std::uint32_t> slot_tokens_;

  // Token strings in id (= lexicographic) order, and each token's set of
  // characters as a bit mask.
  std::vector<char> token_chars_;
  std::vector<std::uint32_t> token_begin_;
  std::vector<std::uint64_t> token_mask_;

  // Direct-mapped memo of ordered token pairs: key (x << 32 | y) with the
  // match result in bit 63 (ids stay below 2^31).
  std::vector<std::uint64_t> memo_;
  std::size_t memo_evictions_ = 0;

  // Scratch: greedy-match flags and the cosine vectors, the first one
  // cached for `cosine_a_entity_`.
  std::vector<std::uint8_t> used_;
  std::vector<std::pair<std::uint32_t, double>> cosine_a_;
  std::vector<std::pair<std::uint32_t, double>> cosine_b_;
  std::size_t cosine_a_entity_ = SIZE_MAX;
  double cosine_a_norm_ = 0;
};

}  // namespace queryer

#endif  // QUERYER_MATCHING_COMPARISON_KERNEL_H_
