// String utility routines provided by the Moira library (paper section
// 5.6.3): whitespace trimming, case folding, and the Ingres-style wildcard
// matching used by the retrieval queries of section 7.
#ifndef MOIRA_SRC_COMMON_STRUTIL_H_
#define MOIRA_SRC_COMMON_STRUTIL_H_

#include <cctype>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace moira {

// Removes leading and trailing whitespace.
std::string_view TrimWhitespace(std::string_view s);

// The case fold of one byte (std::tolower, so ASCII in the C locale).  Every
// case-insensitive comparison here and every folded index key in src/db uses
// it, so they agree on which strings are equal and in what order.
inline char FoldLower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

// Case folding (ASCII).
std::string ToUpperCopy(std::string_view s);
std::string ToLowerCopy(std::string_view s);
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);
// The same split as views into `s`, replacing the contents of `fields` (so a
// caller splitting many lines reuses one vector's storage).
void SplitViews(std::string_view s, char sep, std::vector<std::string_view>* fields);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Concatenates `parts` into one string, allocated once.
std::string StrCat(std::initializer_list<std::string_view> parts);

// Matches `value` against `pattern` where '*' matches any run of characters
// and '?' matches any single character.  Optionally case-insensitive.
bool WildcardMatch(std::string_view pattern, std::string_view value,
                   bool case_insensitive = false);

// True if the pattern contains a wildcard metacharacter.
bool HasWildcard(std::string_view pattern);

// Parses a base-10 integer; returns nullopt on any non-numeric content.
std::optional<int64_t> ParseInt(std::string_view s);

// True if every character of `s` is in the legal set for Moira name fields:
// printable ASCII excluding the characters that break the colon-separated
// server file formats (':', '*', '?', '"', and whitespace other than space).
bool IsLegalNameChars(std::string_view s);

// Canonicalizes a hostname: uppercases and strips a trailing dot (paper
// section 5.6.3, "canonicalize hostname"; all machine names are stored in
// uppercase per section 7.0.2).
std::string CanonicalizeHostname(std::string_view name);

}  // namespace moira

#endif  // MOIRA_SRC_COMMON_STRUTIL_H_
