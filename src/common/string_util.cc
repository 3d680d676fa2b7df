#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace queryer {

namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
// ASCII case and alphanumerics, independent of the process locale: a byte
// outside ASCII is never alphanumeric and lower-cases to itself.
char LowerChar(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
bool IsAlnumChar(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

// Calls fn(start, end) for every maximal alphanumeric run of `value` at
// least `min_length` long: the one scanner behind both tokenizer forms.
template <typename Fn>
void ForEachAlnumRun(std::string_view value, std::size_t min_length,
                     const Fn& fn) {
  std::size_t i = 0;
  while (i < value.size()) {
    while (i < value.size() && !IsAlnumChar(value[i])) ++i;
    std::size_t start = i;
    while (i < value.size() && IsAlnumChar(value[i])) ++i;
    if (i - start >= min_length) fn(start, i);
  }
}

}  // namespace

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), LowerChar);
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](char c) {
    return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  });
  return out;
}

std::string_view TrimView(std::string_view s) {
  std::size_t begin = 0;
  while (begin < s.size() && IsSpace(s[begin])) ++begin;
  std::size_t end = s.size();
  while (end > begin && IsSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::vector<std::string> Split(std::string_view s, char delimiter) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(s.substr(start));
      break;
    }
    pieces.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (LowerChar(a[i]) != LowerChar(b[i])) return false;
  }
  return true;
}

std::vector<std::string> TokenizeAlnum(std::string_view value,
                                       std::size_t min_length) {
  std::vector<std::string> tokens;
  ForEachAlnumRun(value, min_length, [&](std::size_t start, std::size_t end) {
    std::string token;
    token.reserve(end - start);
    for (std::size_t j = start; j < end; ++j) token += LowerChar(value[j]);
    tokens.push_back(std::move(token));
  });
  return tokens;
}

void AppendAlnumTokens(std::string_view value, std::size_t min_length,
                       std::string* chars, std::vector<std::uint32_t>* ends) {
  ForEachAlnumRun(value, min_length, [&](std::size_t start, std::size_t end) {
    for (std::size_t j = start; j < end; ++j) {
      chars->push_back(LowerChar(value[j]));
    }
    ends->push_back(static_cast<std::uint32_t>(chars->size()));
  });
}

namespace {

// Recursive matcher over lower-cased views. '%' matches any run (possibly
// empty); '_' matches exactly one character.
bool LikeMatchImpl(std::string_view value, std::string_view pattern) {
  std::size_t v = 0;
  std::size_t p = 0;
  // Track the most recent '%' so we can backtrack iteratively (avoids
  // exponential recursion on patterns with many wildcards).
  std::size_t star_p = std::string_view::npos;
  std::size_t star_v = 0;
  while (v < value.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || LowerChar(pattern[p]) == LowerChar(value[v]))) {
      ++p;
      ++v;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace

bool LikeMatch(std::string_view value, std::string_view pattern) {
  return LikeMatchImpl(value, pattern);
}

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::optional<double> ParseNumber(std::string_view text) {
  if (text.empty()) return std::nullopt;
  // Fast path: plain decimal integers (the common shape of id columns)
  // convert without the locale-aware strtod machinery. Up to 15 digits a
  // double represents the value exactly, so this matches strtod bit for
  // bit; anything else (signs, dots, exponents, hex, whitespace, longer
  // digit runs) falls through to the general parse.
  if (text.size() <= 15) {
    std::uint64_t integer = 0;
    bool all_digits = true;
    for (const char c : text) {
      if (c < '0' || c > '9') {
        all_digits = false;
        break;
      }
      integer = integer * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (all_digits) return static_cast<double>(integer);
  }
  // strtod needs NUL termination. Every value the engine parses views into
  // a buffer with a readable byte one past the end — std::string guarantees
  // it and StringArena appends one — so when that byte is NUL the parse
  // runs in place; otherwise (a substring, a foreign buffer) it copies out
  // first.
  char stack_buf[64];
  std::string heap_buf;
  const char* begin = text.data();
  if (begin[text.size()] != '\0') {
    if (text.size() < sizeof(stack_buf)) {
      std::memcpy(stack_buf, text.data(), text.size());
      stack_buf[text.size()] = '\0';
      begin = stack_buf;
    } else {
      heap_buf.assign(text.data(), text.size());
      begin = heap_buf.c_str();
    }
  }
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  // Embedded NUL bytes stop strtod early and fail this full-parse check,
  // exactly as they did when parsing from std::string::c_str().
  if (end != begin + text.size()) return std::nullopt;
  return value;
}

}  // namespace queryer
