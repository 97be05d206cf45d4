#include "src/hesiod/hesiod.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/common/strutil.h"

namespace moira {
namespace {

constexpr int kMaxCnameDepth = 8;

// Splits a record line into whitespace-separated tokens, keeping a trailing
// quoted string as one token (quotes stripped).
bool TokenizeLine(std::string_view line, std::vector<std::string_view>* tokens) {
  tokens->clear();
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    if (i >= line.size()) {
      break;
    }
    if (line[i] == '"') {
      size_t end = line.find('"', i + 1);
      if (end == std::string_view::npos) {
        return false;
      }
      tokens->emplace_back(line.substr(i + 1, end - i - 1));
      i = end + 1;
    } else {
      size_t end = i;
      while (end < line.size() && line[end] != ' ' && line[end] != '\t') {
        ++end;
      }
      tokens->emplace_back(line.substr(i, end - i));
      i = end;
    }
  }
  return true;
}

}  // namespace

int HesiodServer::AppendDb(std::string_view text) {
  // Appends `s` to text_, lowercased if `lower`; returns where it starts.
  auto append = [this](std::string_view s, bool lower) {
    if (s.size() > std::numeric_limits<uint32_t>::max() - text_.size()) {
      std::fprintf(stderr, "moira: Hesiod records pass 2^32 - 1 bytes: record spans are 32-bit\n");
      std::abort();
    }
    const auto pos = static_cast<uint32_t>(text_.size());
    text_.append(s);
    if (lower) {
      for (size_t i = pos; i < text_.size(); ++i) {
        text_[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(text_[i])));
      }
    }
    return pos;
  };
  int loaded = 0;
  size_t pos = 0;
  std::vector<std::string_view> tokens;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = eol == std::string_view::npos ? text.substr(pos)
                                                          : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    line = TrimWhitespace(line);
    if (line.empty() || line[0] == ';') {
      continue;
    }
    if (!TokenizeLine(line, &tokens) || tokens.size() < 4 || tokens[1] != "HS") {
      return -1;
    }
    Record record;
    if (tokens[2] == "CNAME") {
      record.cname = true;
    } else if (tokens[2] != "UNSPECA") {
      return -1;
    }
    record.data_pos = append(tokens[3], /*lower=*/record.cname);
    record.data_len = static_cast<uint32_t>(tokens[3].size());
    record.key_pos = append(tokens[0], /*lower=*/true);
    record.key_len = static_cast<uint32_t>(tokens[0].size());
    records_.push_back(record);
    ++loaded;
  }
  return loaded;
}

void HesiodServer::SortRecords() {
  std::stable_sort(records_.begin(), records_.end(),
                   [this](const Record& a, const Record& b) { return KeyOf(a) < KeyOf(b); });
}

int HesiodServer::LoadDb(std::string_view text) {
  int loaded = AppendDb(text);
  SortRecords();
  return loaded;
}

void HesiodServer::Clear() {
  text_.clear();
  records_.clear();
}

std::vector<std::string> HesiodServer::Resolve(std::string_view name,
                                               std::string_view type) const {
  std::string key = ToLowerCopy(std::string(name) + "." + std::string(type));
  std::vector<std::string> out;
  for (int depth = 0; depth < kMaxCnameDepth; ++depth) {
    auto it = std::lower_bound(
        records_.begin(), records_.end(), key,
        [this](const Record& r, const std::string& k) { return KeyOf(r) < k; });
    if (it == records_.end() || KeyOf(*it) != key) {
      return out;
    }
    std::string next_key;
    for (; it != records_.end() && KeyOf(*it) == key; ++it) {
      if (!it->cname) {
        out.emplace_back(DataOf(*it));
      } else if (next_key.empty()) {
        next_key = DataOf(*it);
      }
    }
    if (!out.empty() || next_key.empty()) {
      return out;
    }
    key = next_key;  // chase the CNAME
  }
  return out;
}

int HesiodServer::Reload(const std::vector<std::string>& db_texts) {
  Clear();
  int total = 0;
  for (const std::string& text : db_texts) {
    int loaded = AppendDb(text);
    if (loaded < 0) {
      SortRecords();
      return -1;
    }
    total += loaded;
  }
  SortRecords();
  ++reload_count_;
  return total;
}

}  // namespace moira
