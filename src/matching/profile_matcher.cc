#include "matching/profile_matcher.h"

#include <optional>

#include "common/string_util.h"
#include "common/token_interner.h"
#include "matching/comparison_kernel.h"

namespace queryer {

double ValueSimilarity(std::string_view a, std::string_view b) {
  return ComparisonKernel::ValueSimilarity(a, b);
}

AttributeWeights AttributeWeights::Compute(const Table& table) {
  AttributeWeights result;
  result.weights_.resize(table.num_attributes(), 0.0);
  for (std::size_t attr = 0; attr < table.num_attributes(); ++attr) {
    const ColumnView column = table.column(attr);
    const Dictionary& dictionary = column.dictionary();
    // Every dictionary entry occurs in at least one row, so the distinct
    // set over rows equals the distinct set over dictionary values —
    // O(distinct) lower-cased copies instead of O(rows).
    TokenInterner distinct;
    for (DictCode code = 0; code < dictionary.size(); ++code) {
      const std::string_view value = dictionary.value(code);
      if (!value.empty()) distinct.Intern(ToLower(value));
    }
    std::size_t non_empty = table.num_rows();
    if (std::optional<DictCode> empty_code = dictionary.Find("")) {
      for (const DictCode code : column.codes()) {
        if (code == *empty_code) --non_empty;
      }
    }
    if (non_empty > 0) {
      result.weights_[attr] = static_cast<double>(distinct.size()) /
                              static_cast<double>(non_empty);
    }
  }
  return result;
}

double ProfileSimilarity(const Table& table, EntityId a, EntityId b,
                         const MatchingConfig& config,
                         const AttributeWeights* weights) {
  const Comparison pair(a, b);
  ComparisonKernel kernel(table, &pair, &pair + 1, config, weights);
  return kernel.Similarity(a, b);
}

bool ProfilesMatch(const Table& table, EntityId a, EntityId b,
                   const MatchingConfig& config,
                   const AttributeWeights* weights) {
  return ProfileSimilarity(table, a, b, config, weights) >= kMatchThreshold;
}

}  // namespace queryer
