#include "src/nfsd/nfs_server.h"

#include <algorithm>
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

constexpr char kDefaultCshrc[] = "# Athena default .cshrc\nsource /usr/athena/lib/cshrc\n";
constexpr char kDefaultLogin[] = "# Athena default .login\nsource /usr/athena/lib/login\n";

}  // namespace

int NfsServerSim::ApplyCredentials(const std::string& contents) {
  credentials_.clear();
  std::vector<std::string_view> fields;
  return ForEachLine(contents, [&](std::string_view line) {
    SplitViews(line, ':', &fields);
    if (fields.size() < 2) {
      return false;
    }
    std::optional<int64_t> uid = ParseInt(fields[1]);
    if (!uid.has_value()) {
      return false;
    }
    NfsCredential credential;
    credential.uid = *uid;
    for (size_t i = 2; i < fields.size(); ++i) {
      std::optional<int64_t> gid = ParseInt(fields[i]);
      if (!gid.has_value()) {
        return false;
      }
      credential.gids.push_back(*gid);
    }
    // The file is sorted by login, so each insert lands at the end.
    credentials_.insert_or_assign(credentials_.end(), std::string(fields[0]),
                                  std::move(credential));
    return true;
  });
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
      host_->WriteFileDirect(dir + "/.cshrc", kDefaultCshrc);
      host_->WriteFileDirect(dir + "/.login", kDefaultLogin);
    }
    return true;
  });
}

int NfsServerSim::ApplyMoiraFiles(const std::string& dir) {
  std::string prefix = dir + "/";
  int status = 0;
  for (const std::string& path : host_->ListFiles()) {
    if (!path.starts_with(prefix)) {
      continue;
    }
    const std::string& contents = *host_->ReadFile(path);
    if (path == prefix + "credentials") {
      status |= ApplyCredentials(contents);
    } else if (path.ends_with(".quotas")) {
      std::string stem =
          path.substr(prefix.size(), path.size() - prefix.size() - 7 /* ".quotas" */);
      status |= ApplyQuotas(stem, contents);
    } else if (path.ends_with(".dirs")) {
      status |= ApplyDirs(contents);
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

bool NfsServerSim::HasCredential(std::string_view login) const {
  return credentials_.contains(login);
}

const NfsCredential* NfsServerSim::CredentialFor(std::string_view login) const {
  auto it = credentials_.find(login);
  return it != credentials_.end() ? &it->second : nullptr;
}

void InstallNfsUpdateCommand(SimHost* host, NfsServerSim* server,
                             const std::string& moira_dir) {
  host->RegisterCommand("update_lockers", [server, moira_dir](SimHost&) {
    return server->ApplyMoiraFiles(moira_dir);
  });
}

}  // namespace moira
