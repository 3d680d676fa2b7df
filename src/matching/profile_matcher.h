// Schema-agnostic entity matching (paper Sec. 6.1(iv)): "we compare the
// values of all corresponding attributes between entity pairs ... it
// requires no configuration from the user".
//
// The profile similarity combines two schema-agnostic signals:
//
//  1. Aligned attribute similarity — the mean, over attributes where both
//     entities have a value, of a fuzzy token-set Jaccard: two tokens count
//     as shared when they are equal, when one is a single-letter
//     abbreviation of the other ("e." ~ "entity", "j" ~ "jane"), or when
//     their Jaro-Winkler similarity clears kTokenMatchThreshold (typos).
//     Values that parse to finite numbers compare by equality (string
//     distance between numbers is meaningless).
//
//  2. Whole-profile token cosine — cosine similarity over the token
//     multiset of *all* attribute values, which catches duplicates whose
//     content migrated across attributes (the motivating example's V1/V4,
//     where one record's title is the other's description).
//
// Both signals are weighted by per-attribute *distinctiveness* — the ratio
// of distinct non-empty values to non-empty rows, computed once per table.
// This is the schema-agnostic analogue of a Fellegi-Sunter u-probability:
// agreeing on a near-unique attribute (a title, a phone number) is strong
// evidence; agreeing on a code-list attribute (a country, a state) is weak.
// Without it, low-arity tables (e.g. organisations with only name+country)
// produce false matches whenever the weak attribute agrees.
//
// The profile score is the max of the two signals; a pair matches when the
// score reaches kMatchThreshold. The entity-identifier attribute (the
// paper's e_id) is excluded: it names the row, it does not describe the
// entity.

#ifndef QUERYER_MATCHING_PROFILE_MATCHER_H_
#define QUERYER_MATCHING_PROFILE_MATCHER_H_

#include <string_view>
#include <vector>

#include "matching/similarity.h"
#include "storage/table.h"

namespace queryer {

/// Profile similarity at or above this value declares a match.
inline constexpr double kMatchThreshold = 0.65;
/// The cosine signal needs a stricter bar than the aligned signal: two
/// short values sharing most tokens ("geneva institute" / "turin
/// institute") reach 2/3 cosine without being the same entity. The cosine
/// is folded into the profile score scaled by
/// kMatchThreshold / kCosineThreshold, so one kMatchThreshold check covers
/// both.
inline constexpr double kCosineThreshold = 0.72;
/// Tokens whose Jaro-Winkler similarity is >= this are the same token.
inline constexpr double kTokenMatchThreshold = 0.88;

/// \brief Resolution-function configuration.
struct MatchingConfig {
  /// Attribute positions excluded from matching (the e_id column; set
  /// automatically by the engine for the column named "id").
  std::vector<std::size_t> excluded_attributes;
};

/// \brief Per-attribute distinctiveness weights of one table (see above).
class AttributeWeights {
 public:
  AttributeWeights() = default;

  /// weight_i = |distinct non-empty values of attribute i| / |non-empty
  /// rows of attribute i| (0 when the attribute is always empty).
  static AttributeWeights Compute(const Table& table);

  /// Restores weights previously produced by Compute (the persist tier's
  /// snapshot loader).
  static AttributeWeights FromWeights(std::vector<double> weights) {
    AttributeWeights w;
    w.weights_ = std::move(weights);
    return w;
  }

  double weight(std::size_t attribute) const {
    return attribute < weights_.size() ? weights_[attribute] : 1.0;
  }
  std::size_t size() const { return weights_.size(); }

 private:
  std::vector<double> weights_;
};

/// \brief Fuzzy token-set similarity of two attribute values (see above).
/// Returns 1 when both are empty, 0 when exactly one is. Comparison is
/// case-insensitive by construction (tokens are lower-cased, numeric
/// parsing ignores case), so callers pass raw values — typically
/// string_views straight out of a table's column dictionaries. Only values
/// that parse to finite numbers compare numerically; "nan" or "inf" go
/// through token matching like any other word.
double ValueSimilarity(std::string_view a, std::string_view b);

/// \brief Schema-agnostic profile similarity of two entities of one table
/// (see above). Reads attribute values as string_views out of the columnar
/// storage; attributes whose dictionary codes are equal short-circuit to
/// similarity 1 without touching the strings. `weights` may be null
/// (uniform attribute weights).
///
/// A one-pair entry point: it builds a ComparisonKernel
/// (matching/comparison_kernel.h) for the single pair. Batches of pairs
/// should build one kernel and call its Similarity instead.
double ProfileSimilarity(const Table& table, EntityId a, EntityId b,
                         const MatchingConfig& config,
                         const AttributeWeights* weights = nullptr);

/// \brief Convenience predicate: ProfileSimilarity >= kMatchThreshold.
bool ProfilesMatch(const Table& table, EntityId a, EntityId b,
                   const MatchingConfig& config,
                   const AttributeWeights* weights = nullptr);

}  // namespace queryer

#endif  // QUERYER_MATCHING_PROFILE_MATCHER_H_
