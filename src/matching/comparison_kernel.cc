#include "matching/comparison_kernel.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/token_interner.h"
#include "matching/similarity.h"

namespace queryer {

namespace {

// Memo capacity, a power of two: 8K entries keep one kernel's memo at
// 64 KiB. Larger memos raised the engine's peak RSS for no measurable
// speedup; 4K entries slowed a DSD batch's similarity phase by ~10%.
constexpr int kMemoBits = 13;
constexpr std::uint64_t kMatchBit = std::uint64_t{1} << 63;

// One bit per token character: letters and digits get their own bits, any
// other byte shares one of the rest (a shared bit only weakens the bound
// below, never breaks it).
std::uint64_t CharBit(char c) {
  const unsigned char u = static_cast<unsigned char>(c);
  if (u >= 'a' && u <= 'z') return std::uint64_t{1} << (u - 'a');
  if (u >= '0' && u <= '9') return std::uint64_t{1} << (26 + u - '0');
  return std::uint64_t{1} << (36 + u % 28);
}

std::uint64_t CharMask(std::string_view token) {
  std::uint64_t mask = 0;
  for (char c : token) mask |= CharBit(c);
  return mask;
}

// An upper bound on the Jaro-Winkler similarity of two tokens, from their
// character sets: a character of one token that occurs nowhere in the
// other can never be a match, so at most `m` characters match and the
// transposition term is at most 1.
double JaroUpperBound(std::string_view a, std::string_view b,
                      std::uint64_t mask_a, std::uint64_t mask_b) {
  std::size_t a_only = 0;
  for (char c : a) a_only += (mask_b & CharBit(c)) == 0;
  std::size_t b_only = 0;
  for (char c : b) b_only += (mask_a & CharBit(c)) == 0;
  const double m = static_cast<double>(
      std::min(a.size() - a_only, b.size() - b_only));
  if (m == 0) return 0.0;
  const double jaro = (m / static_cast<double>(a.size()) +
                       m / static_cast<double>(b.size()) + 1.0) /
                      3.0;
  std::size_t prefix = 0;
  const std::size_t max_prefix =
      std::min<std::size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

}  // namespace

ComparisonKernel::ComparisonKernel(const Table& table, const Comparison* begin,
                                   const Comparison* end,
                                   const MatchingConfig& config,
                                   const AttributeWeights* weights) {
  for (std::size_t i = 0; i < table.num_attributes(); ++i) {
    if (std::find(config.excluded_attributes.begin(),
                  config.excluded_attributes.end(),
                  i) != config.excluded_attributes.end()) {
      continue;
    }
    attrs_.push_back(static_cast<std::uint32_t>(i));
    attr_weight_.push_back(weights == nullptr ? 1.0 : weights->weight(i));
  }

  entities_.reserve(2 * static_cast<std::size_t>(end - begin));
  for (const Comparison* pair = begin; pair != end; ++pair) {
    entities_.push_back(pair->first);
    entities_.push_back(pair->second);
  }
  std::sort(entities_.begin(), entities_.end());
  entities_.erase(std::unique(entities_.begin(), entities_.end()),
                  entities_.end());

  // The build's scratch is freed before the memo is allocated, so the
  // kernel's peak footprint is the larger of the two, not their sum.
  BuildSlots(AssignSlots(table));
  memo_.assign(std::size_t{1} << kMemoBits, 0);
}

std::vector<std::string_view> ComparisonKernel::AssignSlots(
    const Table& table) {
  // One value slot per distinct (included attribute, dictionary code):
  // attribute by attribute, sort the batch's (code, entity) pairs and give
  // each run of equal codes the next slot.
  const std::size_t width = attrs_.size();
  entity_slots_.resize(entities_.size() * width);
  std::vector<std::string_view> values;
  std::vector<std::uint64_t> by_code(entities_.size());
  for (std::size_t k = 0; k < width; ++k) {
    const Dictionary& dictionary = table.dictionary(attrs_[k]);
    for (std::size_t e = 0; e < entities_.size(); ++e) {
      by_code[e] =
          std::uint64_t{table.CodeAt(entities_[e], attrs_[k])} << 32 | e;
    }
    std::sort(by_code.begin(), by_code.end());
    for (std::size_t i = 0; i < by_code.size(); ++i) {
      const DictCode code = static_cast<DictCode>(by_code[i] >> 32);
      if (i == 0 || code != static_cast<DictCode>(by_code[i - 1] >> 32)) {
        values.push_back(dictionary.value(code));
      }
      entity_slots_[(by_code[i] & 0xFFFFFFFFu) * width + k] =
          static_cast<std::uint32_t>(values.size() - 1);
    }
  }
  return values;
}

ComparisonKernel::ComparisonKernel(
    const std::vector<std::string_view>& values) {
  BuildSlots(values);
  memo_.assign(std::size_t{1} << kMemoBits, 0);
}

void ComparisonKernel::BuildSlots(
    const std::vector<std::string_view>& values) {
  const std::size_t num_slots = values.size();
  slot_empty_.resize(num_slots);
  slot_numeric_.resize(num_slots);
  slot_number_.resize(num_slots);
  slot_token_begin_.resize(num_slots + 1);

  TokenInterner interner;
  std::string value_chars;
  std::vector<std::uint32_t> value_ends;
  for (std::size_t s = 0; s < num_slots; ++s) {
    const std::string_view value = values[s];
    slot_empty_[s] = value.empty();
    // Only a finite number compares numerically: strtod also accepts
    // "nan" and "inf", which would make identical strings score 0.
    const std::optional<double> number =
        value.empty() ? std::nullopt : ParseNumber(value);
    slot_numeric_[s] = number.has_value() && std::isfinite(*number);
    slot_number_[s] = number.value_or(0.0);
    slot_token_begin_[s] = static_cast<std::uint32_t>(slot_tokens_.size());
    value_chars.clear();
    value_ends.clear();
    AppendAlnumTokens(value, 1, &value_chars, &value_ends);
    std::uint32_t token_begin = 0;
    for (const std::uint32_t token_end : value_ends) {
      const std::string_view token(value_chars.data() + token_begin,
                                   token_end - token_begin);
      token_begin = token_end;
      slot_tokens_.push_back(interner.Intern(token));
    }
  }
  slot_token_begin_[num_slots] =
      static_cast<std::uint32_t>(slot_tokens_.size());
  const std::size_t num_tokens = interner.size();
  QUERYER_DCHECK(num_tokens < (std::size_t{1} << 31));

  // Renumber by lexicographic rank and lay the token bytes out in id order.
  std::vector<std::uint32_t> order(num_tokens);
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return interner.token(x) < interner.token(y);
  });
  std::vector<std::uint32_t> rank(num_tokens);
  token_begin_.resize(num_tokens + 1);
  token_mask_.resize(num_tokens);
  token_chars_.reserve(interner.bytes());
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    const std::string_view token = interner.token(order[r]);
    rank[order[r]] = r;
    token_begin_[r] = static_cast<std::uint32_t>(token_chars_.size());
    token_chars_.insert(token_chars_.end(), token.begin(), token.end());
    token_mask_[r] = CharMask(token);
  }
  token_begin_[num_tokens] = static_cast<std::uint32_t>(token_chars_.size());

  // Each slot's ids, sorted and deduplicated, compacted in place (a slot's
  // new range never starts after its old one).
  std::uint32_t out = 0;
  for (std::size_t s = 0; s < num_slots; ++s) {
    const auto first = slot_tokens_.begin() + slot_token_begin_[s];
    const auto last = slot_tokens_.begin() + slot_token_begin_[s + 1];
    for (auto it = first; it != last; ++it) *it = rank[*it];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    slot_token_begin_[s] = out;
    for (auto it = first; it != unique_end; ++it) slot_tokens_[out++] = *it;
  }
  slot_token_begin_[num_slots] = out;
  slot_tokens_.resize(out);
}

double ComparisonKernel::ValueSimilarity(std::string_view a,
                                         std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  ComparisonKernel kernel({a, b});
  return kernel.SlotSimilarity(0, 1);
}

bool ComparisonKernel::TokensMatch(std::uint32_t x, std::uint32_t y) {
  if (x == y) return true;
  const std::string_view tx = Token(x);
  const std::string_view ty = Token(y);
  // Single-letter abbreviation: "e" (from "E.R.") matches "entity".
  if (tx.size() == 1 || ty.size() == 1) return tx[0] == ty[0];
  // x != y, so no key is 0 and a zeroed entry never hits.
  const std::uint64_t key = std::uint64_t{x} << 32 | y;
  std::uint64_t& entry =
      memo_[(key * 0x9E3779B97F4A7C15ull) >> (64 - kMemoBits)];
  if ((entry & ~kMatchBit) == key) return (entry & kMatchBit) != 0;
  // The bound only rejects pairs it puts clearly below the threshold: the
  // 1e-9 margin dwarfs the rounding of either computation.
  const bool match =
      JaroUpperBound(tx, ty, token_mask_[x], token_mask_[y]) >=
          kTokenMatchThreshold - 1e-9 &&
      JaroWinklerSimilarity(tx, ty) >= kTokenMatchThreshold;
  if (entry != 0) ++memo_evictions_;
  entry = key | (match ? kMatchBit : 0);
  return match;
}

double ComparisonKernel::SlotSimilarity(std::uint32_t x, std::uint32_t y) {
  // Numeric values: string distance between numbers is meaningless.
  if (slot_numeric_[x] && slot_numeric_[y]) {
    return slot_number_[x] == slot_number_[y] ? 1.0 : 0.0;
  }
  const std::uint32_t* tokens_a = slot_tokens_.data() + slot_token_begin_[x];
  const std::size_t size_a = slot_token_begin_[x + 1] - slot_token_begin_[x];
  const std::uint32_t* tokens_b = slot_tokens_.data() + slot_token_begin_[y];
  const std::size_t size_b = slot_token_begin_[y + 1] - slot_token_begin_[y];
  if (size_a == 0 || size_b == 0) {
    return (size_a == 0) == (size_b == 0) ? 1.0 : 0.0;
  }

  // Greedy fuzzy matching from the smaller token set into the larger.
  const bool a_small = size_a <= size_b;
  const std::uint32_t* small = a_small ? tokens_a : tokens_b;
  const std::size_t small_size = a_small ? size_a : size_b;
  const std::uint32_t* large = a_small ? tokens_b : tokens_a;
  const std::size_t large_size = a_small ? size_b : size_a;
  used_.assign(large_size, 0);
  std::size_t shared = 0;
  for (std::size_t i = 0; i < small_size; ++i) {
    for (std::size_t j = 0; j < large_size; ++j) {
      if (used_[j] || !TokensMatch(small[i], large[j])) continue;
      used_[j] = 1;
      ++shared;
      break;
    }
  }
  return static_cast<double>(shared) /
         static_cast<double>(size_a + size_b - shared);
}

double ComparisonKernel::BuildCosineVector(
    std::size_t entity, std::vector<std::pair<std::uint32_t, double>>* out) {
  // Each token carries the weight of the attribute it came from, the max
  // across occurrences.
  out->clear();
  const std::uint32_t* slots = entity_slots_.data() + entity * attrs_.size();
  for (std::size_t k = 0; k < attrs_.size(); ++k) {
    const std::uint32_t slot = slots[k];
    for (std::uint32_t t = slot_token_begin_[slot];
         t < slot_token_begin_[slot + 1]; ++t) {
      out->emplace_back(slot_tokens_[t], attr_weight_[k]);
    }
  }
  std::sort(out->begin(), out->end());
  std::size_t size = 0;
  for (std::size_t i = 0; i < out->size(); ++i) {
    if (size > 0 && (*out)[size - 1].first == (*out)[i].first) {
      (*out)[size - 1].second =
          std::max((*out)[size - 1].second, (*out)[i].second);
    } else {
      (*out)[size++] = (*out)[i];
    }
  }
  out->resize(size);
  double norm = 0;
  for (const auto& [token, w] : *out) norm += w * w;
  return norm;
}

double ComparisonKernel::Similarity(EntityId a, EntityId b) {
  const auto index_of = [&](EntityId e) {
    const auto it = std::lower_bound(entities_.begin(), entities_.end(), e);
    QUERYER_DCHECK(it != entities_.end() && *it == e);
    return static_cast<std::size_t>(it - entities_.begin());
  };
  const std::size_t ia = index_of(a);
  const std::size_t ib = index_of(b);
  const std::size_t width = attrs_.size();
  const std::uint32_t* slots_a = entity_slots_.data() + ia * width;
  const std::uint32_t* slots_b = entity_slots_.data() + ib * width;

  // Signal 1: aligned attribute similarity, distinctiveness-weighted.
  double aligned_total = 0;
  double aligned_weight = 0;
  double total_weight = 0;
  for (std::size_t k = 0; k < width; ++k) {
    const double w = attr_weight_[k];
    total_weight += w;
    const std::uint32_t x = slots_a[k];
    const std::uint32_t y = slots_b[k];
    if (slot_empty_[x] || slot_empty_[y]) continue;  // No evidence.
    // One slot per (attribute, dictionary code): equal slots are identical
    // values, which score 1 by construction.
    aligned_total += w * (x == y ? 1.0 : SlotSimilarity(x, y));
    aligned_weight += w;
  }
  double aligned = aligned_weight == 0 ? 0.0 : aligned_total / aligned_weight;
  // Evidence floor: a profile stripped of most of its descriptive content
  // (e.g. a record with only a code-list attribute left) must not match on
  // the little that remains.
  if (total_weight > 0 && aligned_weight < 0.5 * total_weight) {
    aligned *= aligned_weight / (0.5 * total_weight);
  }
  // The aligned signal alone already decides a match: skip the cosine.
  if (aligned >= kMatchThreshold) return aligned;

  // Signal 2: whole-profile token cosine (order- and attribute-agnostic).
  if (cosine_a_entity_ != ia) {
    cosine_a_norm_ = BuildCosineVector(ia, &cosine_a_);
    cosine_a_entity_ = ia;
  }
  const double norm_a = cosine_a_norm_;
  const double norm_b = BuildCosineVector(ib, &cosine_b_);
  double cosine = 0;
  if (!cosine_a_.empty() && !cosine_b_.empty()) {
    double dot = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < cosine_a_.size() && j < cosine_b_.size()) {
      if (cosine_a_[i].first == cosine_b_[j].first) {
        dot += cosine_a_[i].second * cosine_b_[j].second;
        ++i;
        ++j;
      } else if (cosine_a_[i].first < cosine_b_[j].first) {
        ++i;
      } else {
        ++j;
      }
    }
    if (norm_a > 0 && norm_b > 0 && dot > 0) {
      cosine = dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
    }
  }
  // Rescale so kMatchThreshold applies to both signals (see
  // kCosineThreshold).
  return std::max(aligned, cosine * kMatchThreshold / kCosineThreshold);
}

}  // namespace queryer
