#include "matching/similarity.h"

#include <algorithm>
#include <vector>

namespace queryer {

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  const std::size_t len_a = a.size();
  const std::size_t len_b = b.size();
  const std::size_t match_window =
      std::max<std::size_t>(1, std::max(len_a, len_b) / 2) - 1;

  std::vector<bool> a_matched(len_a, false);
  std::vector<bool> b_matched(len_b, false);

  std::size_t matches = 0;
  for (std::size_t i = 0; i < len_a; ++i) {
    const std::size_t lo = i > match_window ? i - match_window : 0;
    const std::size_t hi = std::min(len_b, i + match_window + 1);
    for (std::size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions among matched characters.
  std::size_t transpositions = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < len_a; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }

  const double m = static_cast<double>(matches);
  const double t = static_cast<double>(transpositions) / 2.0;
  return (m / static_cast<double>(len_a) + m / static_cast<double>(len_b) +
          (m - t) / m) /
         3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale) {
  const double jaro = JaroSimilarity(a, b);
  std::size_t prefix = 0;
  const std::size_t max_prefix = std::min<std::size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * prefix_scale * (1.0 - jaro);
}

}  // namespace queryer
