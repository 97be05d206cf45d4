#include "src/common/strutil.h"

#include <cctype>

namespace moira {
namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

}  // namespace

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsSpace(s[begin])) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && IsSpace(s[end - 1])) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToUpperCopy(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string ToLowerCopy(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = FoldLower(c);
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (FoldLower(a[i]) != FoldLower(b[i])) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string_view> fields;
  SplitViews(s, sep, &fields);
  return std::vector<std::string>(fields.begin(), fields.end());
}

void SplitViews(std::string_view s, char sep, std::vector<std::string_view>* fields) {
  fields->clear();
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      fields->push_back(s.substr(start));
      return;
    }
    fields->push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string StrCat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) {
    size += part.size();
  }
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) {
    out.append(part);
  }
  return out;
}

bool WildcardMatch(std::string_view pattern, std::string_view value, bool case_insensitive) {
  // Iterative glob match with single-star backtracking.
  size_t p = 0;
  size_t v = 0;
  size_t star = std::string_view::npos;
  size_t star_v = 0;
  auto eq = [&](char a, char b) {
    return case_insensitive ? FoldLower(a) == FoldLower(b) : a == b;
  };
  while (v < value.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || eq(pattern[p], value[v]))) {
      ++p;
      ++v;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_v = v;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

bool HasWildcard(std::string_view pattern) {
  return pattern.find_first_of("*?") != std::string_view::npos;
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) {
    return std::nullopt;
  }
  size_t i = 0;
  bool negative = false;
  if (s[0] == '-' || s[0] == '+') {
    negative = s[0] == '-';
    i = 1;
    if (i == s.size()) {
      return std::nullopt;
    }
  }
  int64_t out = 0;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return std::nullopt;
    }
    out = out * 10 + (s[i] - '0');
  }
  return negative ? -out : out;
}

bool IsLegalNameChars(std::string_view s) {
  for (char c : s) {
    auto uc = static_cast<unsigned char>(c);
    if (uc < 0x20 || uc >= 0x7f) {
      return false;
    }
    if (c == ':' || c == '*' || c == '?' || c == '"') {
      return false;
    }
  }
  return true;
}

std::string CanonicalizeHostname(std::string_view name) {
  std::string_view trimmed = TrimWhitespace(name);
  if (!trimmed.empty() && trimmed.back() == '.') {
    trimmed.remove_suffix(1);
  }
  return ToUpperCopy(trimmed);
}

}  // namespace moira
