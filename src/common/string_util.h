// String helpers shared across QueryER: case folding, trimming, splitting,
// joining, and the schema-agnostic tokenizer used by Token Blocking.

#ifndef QUERYER_COMMON_STRING_UTIL_H_
#define QUERYER_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace queryer {

/// \brief ASCII lower-cases a string.
std::string ToLower(std::string_view s);

/// \brief ASCII upper-cases a string.
std::string ToUpper(std::string_view s);

/// \brief Removes leading/trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// \brief Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delimiter);

/// \brief Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// \brief True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// \brief Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief Extracts the lower-cased alphanumeric tokens of a value.
///
/// This is the blocking-key tokenizer of Token Blocking (paper Sec. 6.1(i)):
/// every maximal run of [A-Za-z0-9] characters becomes one token; tokens are
/// lower-cased so "EDBT" and "edbt" share a block. Tokens shorter than
/// `min_length` are dropped (single characters are usually noise).
std::vector<std::string> TokenizeAlnum(std::string_view value,
                                       std::size_t min_length = 2);

/// \brief TokenizeAlnum without a string per token: appends the tokens'
/// lower-cased bytes to `chars` and each token's end offset in `chars` to
/// `ends`, in order. A token starts where the previous one ended (or at
/// the size `chars` had on entry).
void AppendAlnumTokens(std::string_view value, std::size_t min_length,
                       std::string* chars, std::vector<std::uint32_t>* ends);

/// \brief SQL LIKE pattern match ('%' = any run, '_' = any one char).
///
/// Matching is case-insensitive, following the engine's string semantics.
bool LikeMatch(std::string_view value, std::string_view pattern);

/// \brief Formats a double with fixed precision (no locale surprises).
std::string FormatDouble(double value, int precision);

/// \brief Parses `text` as a full double; nullopt if any trailing garbage.
std::optional<double> ParseNumber(std::string_view text);

/// \brief True iff static_cast<long long>(value) is defined: `value` is
/// finite and lies in [-2^63, 2^63). NaN and the infinities are outside.
inline bool FitsLongLong(double value) {
  constexpr double kTwoTo63 = 9223372036854775808.0;
  // NaN fails every comparison, so it is rejected with the infinities.
  return value >= -kTwoTo63 && value < kTwoTo63;
}

}  // namespace queryer

#endif  // QUERYER_COMMON_STRING_UTIL_H_
