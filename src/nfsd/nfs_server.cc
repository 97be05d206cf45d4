#include "src/nfsd/nfs_server.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>

#include "src/common/random.h"
#include "src/common/strutil.h"

namespace moira {
namespace {

// Applies `fn` to each non-empty line.
template <typename Fn>
int ForEachLine(const std::string& contents, Fn fn) {
  size_t pos = 0;
  while (pos <= contents.size()) {
    size_t eol = contents.find('\n', pos);
    std::string_view line = eol == std::string::npos
                                ? std::string_view(contents).substr(pos)
                                : std::string_view(contents).substr(pos, eol - pos);
    pos = eol == std::string::npos ? contents.size() + 1 : eol + 1;
    line = TrimWhitespace(line);
    if (!line.empty() && !fn(line)) {
      return 1;
    }
  }
  return 0;
}

// Parses one trimmed credentials line, "login:uid[:gid...]", into `out`;
// false if the line is malformed.  `fields` is scratch.
bool ParseCredential(std::string_view line, std::vector<std::string_view>* fields,
                     NfsCredential* out) {
  SplitViews(line, ':', fields);
  if (fields->size() < 2) {
    return false;
  }
  std::optional<int64_t> uid = ParseInt((*fields)[1]);
  if (!uid.has_value()) {
    return false;
  }
  out->uid = *uid;
  out->gids.clear();
  for (size_t i = 2; i < fields->size(); ++i) {
    std::optional<int64_t> gid = ParseInt((*fields)[i]);
    if (!gid.has_value()) {
      return false;
    }
    out->gids.push_back(*gid);
  }
  return true;
}

// A credentials line's login: its text before the first ':'.
std::string_view LoginOf(std::string_view line) { return line.substr(0, line.find(':')); }

constexpr char kDefaultCshrc[] = "# Athena default .cshrc\nsource /usr/athena/lib/cshrc\n";
constexpr char kDefaultLogin[] = "# Athena default .login\nsource /usr/athena/lib/login\n";

}  // namespace

NfsServerSim::NfsServerSim(SimHost* host)
    : host_(host), cshrc_(MakeFileBytes(kDefaultCshrc)), login_(MakeFileBytes(kDefaultLogin)) {}

int NfsServerSim::ApplyCredentials(FileBytes contents) {
  if (contents->size() > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr, "moira: a %zu-byte credentials file does not fit 32-bit line spans\n",
                 contents->size());
    std::abort();
  }
  credentials_file_ = std::move(contents);
  credentials_.clear();
  const std::string& text = *credentials_file_;
  std::vector<std::string_view> fields;
  NfsCredential credential;
  bool ascending = true;  // strictly, so no login repeats
  std::string_view last;
  int status = ForEachLine(text, [&](std::string_view line) {
    if (!ParseCredential(line, &fields, &credential)) {
      return false;
    }
    ascending = ascending && (credentials_.empty() || last < fields[0]);
    last = fields[0];
    credentials_.push_back(LineSpan{static_cast<uint32_t>(line.data() - text.data()),
                                    static_cast<uint32_t>(line.size())});
    return true;
  });
  // The generated file is strictly ascending by login.  Anything else is
  // stable-sorted, so one login's lines stay in file order, and the last of
  // them is kept.
  if (!ascending) {
    auto by_login = [this](LineSpan a, LineSpan b) {
      return LoginOf(LineOf(a)) < LoginOf(LineOf(b));
    };
    if (!std::is_sorted(credentials_.begin(), credentials_.end(), by_login)) {
      std::stable_sort(credentials_.begin(), credentials_.end(), by_login);
    }
    size_t kept = 0;
    for (size_t i = 0; i < credentials_.size(); ++i) {
      if (kept > 0 && !by_login(credentials_[kept - 1], credentials_[i])) {
        credentials_[kept - 1] = credentials_[i];
      } else {
        credentials_[kept++] = credentials_[i];
      }
    }
    credentials_.resize(kept);
  }
  return status;
}

int NfsServerSim::ApplyQuotas(const std::string& partition, const std::string& contents) {
  std::set<int64_t> seen;
  std::vector<std::string_view> fields;
  return ForEachLine(contents, [&](std::string_view line) {
    SplitViews(line, ' ', &fields);
    if (fields.size() != 2) {
      return false;
    }
    std::optional<int64_t> uid = ParseInt(fields[0]);
    std::optional<int64_t> quota = ParseInt(fields[1]);
    if (!uid.has_value() || !quota.has_value()) {
      return false;
    }
    if (*quota < 0) {
      return false;  // negative units are malformed, not "no quota"
    }
    if (!seen.insert(*uid).second) {
      return false;  // duplicate uid within one partition file
    }
    // setquota <quota>
    quotas_[*uid] = *quota;
    partition_of_[*uid] = partition;
    return true;
  });
}

int NfsServerSim::ApplyDirs(const std::string& contents) {
  std::vector<std::string_view> fields;
  return ForEachLine(contents, [&](std::string_view line) {
    SplitViews(line, ' ', &fields);
    if (fields.size() != 4) {
      return false;
    }
    std::optional<int64_t> uid = ParseInt(fields[1]);
    std::optional<int64_t> gid = ParseInt(fields[2]);
    if (!uid.has_value() || !gid.has_value()) {
      return false;
    }
    std::string_view path = fields[0];
    if (lockers_.contains(path)) {
      return true;  // "If the directory does not already exist..."
    }
    // mkdir, chown, chgrp, chmod.
    std::string dir(path);
    lockers_.emplace(dir, NfsLocker{dir, *uid, *gid, std::string(fields[3])});
    ++lockers_created_;
    // HOMEDIR lockers are loaded with the default init files.
    if (fields[3] == "HOMEDIR") {
      host_->WriteFileDirect(dir + "/.cshrc", cshrc_);
      host_->WriteFileDirect(dir + "/.login", login_);
    }
    return true;
  });
}

int NfsServerSim::ApplyMoiraFiles(const std::string& dir) {
  std::string prefix = dir + "/";
  int status = 0;
  for (const std::string& path : host_->ListFiles(prefix)) {
    // Shared, not borrowed: applying .dirs writes the host's files.
    FileBytes contents = host_->ShareFile(path);
    if (path == prefix + "credentials") {
      status |= ApplyCredentials(std::move(contents));
    } else if (path.ends_with(".quotas")) {
      std::string stem =
          path.substr(prefix.size(), path.size() - prefix.size() - 7 /* ".quotas" */);
      status |= ApplyQuotas(stem, *contents);
    } else if (path.ends_with(".dirs")) {
      status |= ApplyDirs(*contents);
    }
  }
  return status;
}

const NfsLocker* NfsServerSim::FindLocker(std::string_view path) const {
  auto it = lockers_.find(path);
  return it != lockers_.end() ? &it->second : nullptr;
}

std::optional<int64_t> NfsServerSim::QuotaFor(int64_t uid) const {
  auto it = quotas_.find(uid);
  return it != quotas_.end() ? std::optional<int64_t>(it->second) : std::nullopt;
}

int64_t NfsServerSim::UsageFor(int64_t uid) const {
  auto it = usage_.find(uid);
  return it != usage_.end() ? it->second : 0;
}

void NfsServerSim::ChurnUsage(uint64_t seed) {
  SplitMix64 rng(seed);
  for (const auto& [uid, quota] : quotas_) {
    int64_t& used = usage_[uid];
    // Biased toward growth so the population drifts across its soft limits:
    // 70% grow, 20% shrink, 10% idle.  Steps scale with the quota so small
    // and large lockers churn proportionally.
    int64_t step = std::max<int64_t>(int64_t{1}, quota / 8);
    uint64_t roll = rng.Below(10);
    if (roll < 7) {
      used += rng.Between(1, step);
    } else if (roll < 9) {
      used -= rng.Between(1, std::max<int64_t>(int64_t{1}, used / 2));
    }
    used = std::max<int64_t>(int64_t{0}, used);
  }
}

std::vector<UsageReportLine> NfsServerSim::DrainUsageReports() {
  std::vector<UsageReportLine> out;
  for (const auto& [uid, used] : usage_) {
    int64_t& last = reported_[uid];
    if (used == last) {
      continue;
    }
    auto pit = partition_of_.find(uid);
    if (pit == partition_of_.end()) {
      continue;  // usage for a uid that never appeared in a .quotas file
    }
    out.push_back(UsageReportLine{pit->second, uid, used - last, ++report_seq_});
    last = used;
  }
  return out;
}

std::string_view NfsServerSim::LineOf(LineSpan span) const {
  return std::string_view(*credentials_file_).substr(span.pos, span.len);
}

const NfsServerSim::LineSpan* NfsServerSim::FindCredential(std::string_view login) const {
  auto it = std::lower_bound(
      credentials_.begin(), credentials_.end(), login,
      [this](LineSpan span, std::string_view key) { return LoginOf(LineOf(span)) < key; });
  return it != credentials_.end() && LoginOf(LineOf(*it)) == login ? &*it : nullptr;
}

bool NfsServerSim::HasCredential(std::string_view login) const {
  return FindCredential(login) != nullptr;
}

std::optional<NfsCredential> NfsServerSim::CredentialFor(std::string_view login) const {
  const LineSpan* span = FindCredential(login);
  if (span == nullptr) {
    return std::nullopt;
  }
  std::vector<std::string_view> fields;
  NfsCredential credential;
  ParseCredential(LineOf(*span), &fields, &credential);  // checked when applied
  return credential;
}

void InstallNfsUpdateCommand(SimHost* host, NfsServerSim* server,
                             const std::string& moira_dir) {
  host->RegisterCommand("update_lockers", [server, moira_dir](SimHost&) {
    return server->ApplyMoiraFiles(moira_dir);
  });
}

}  // namespace moira
