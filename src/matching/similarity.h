// String similarity for entity matching.
//
// The paper uses Jaro-Winkler as the resolution function (Sec. 9.1) and
// treats matching as orthogonal to blocking. Jaro-Winkler is the token
// kernel of the schema-agnostic profile comparison QueryER's
// Comparison-Execution applies (matching/profile_matcher.h).

#ifndef QUERYER_MATCHING_SIMILARITY_H_
#define QUERYER_MATCHING_SIMILARITY_H_

#include <string_view>

namespace queryer {

/// \brief Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// \brief Jaro-Winkler similarity: Jaro boosted by up to 4 chars of common
/// prefix with scaling factor `prefix_scale` (standard 0.1).
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1);

}  // namespace queryer

#endif  // QUERYER_MATCHING_SIMILARITY_H_
