// NFS fileserver substrate (paper section 5.8.2).
//
// Consumes the three Moira-generated files on a server host — credentials,
// <partition>.quotas, and <partition>.dirs — and performs what the paper's
// shell script does: "mkdir <username>, chown, chgrp, chmod - using
// directories file; setquota <quota> - using quotas file".  Lockers of type
// HOMEDIR are loaded with the default init files, every locker's copy
// sharing one buffer per file.  Creation is idempotent: an existing locker
// is never re-created, so user files survive updates.
//
// The quota engine (DESIGN.md "Quota engine") closes the loop in the other
// direction: the server tracks per-uid simulated disk usage (grown by the
// seeded churn driver), and DrainUsageReports ships the accumulated deltas
// back to Moira as sequenced per-partition report lines.
#ifndef MOIRA_SRC_NFSD_NFS_SERVER_H_
#define MOIRA_SRC_NFSD_NFS_SERVER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/update/sim_host.h"

namespace moira {

struct NfsLocker {
  std::string path;
  int64_t uid = 0;
  int64_t gid = 0;
  std::string type;  // HOMEDIR, PROJECT, ...
};

struct NfsCredential {
  int64_t uid = 0;
  std::vector<int64_t> gids;
};

// One usage delta bound for Moira's report_quota_usage query.  seq is the
// server's monotone report sequence: the ingest side drops anything at or
// below the last applied sequence, so at-least-once delivery stays
// exactly-once in the accounting.
struct UsageReportLine {
  std::string partition;  // partition stem, as in the .quotas file name
  int64_t uid = 0;
  int64_t delta = 0;  // units since the last drained report
  int64_t seq = 0;
};

class NfsServerSim {
 public:
  // The server owns no files itself; it reads and writes through the host's
  // simulated filesystem.
  explicit NfsServerSim(SimHost* host);

  // The update_lockers script: parses every credentials/*.quotas/*.dirs file
  // under `dir` and applies it.  Returns 0 on success, 1 on a parse error —
  // the exit status the DCM's exec instruction reports.
  int ApplyMoiraFiles(const std::string& dir);

  // --- resulting state ---
  const NfsLocker* FindLocker(std::string_view path) const;
  size_t locker_count() const { return lockers_.size(); }
  int lockers_created() const { return lockers_created_; }

  // Quota in units for a uid; nullopt if the uid has no quota assigned
  // (distinct from an explicit 0-unit quota).
  std::optional<int64_t> QuotaFor(int64_t uid) const;

  // Credentials lookups, as the server would consult for NFS access mapping.
  // They answer from the credentials file last applied, even after the host
  // overwrites or removes it.  CredentialFor parses the login's line on each
  // call; nullopt if absent.
  bool HasCredential(std::string_view login) const;
  std::optional<NfsCredential> CredentialFor(std::string_view login) const;

  // --- simulated usage accounting ---
  // Grows/shrinks every quota-holding uid's usage deterministically from
  // `seed` (biased toward growth, clamped at zero).
  void ChurnUsage(uint64_t seed);
  // Sets a uid's usage directly (tests and targeted scenarios).
  void SetUsage(int64_t uid, int64_t units) { usage_[uid] = units < 0 ? 0 : units; }
  int64_t UsageFor(int64_t uid) const;
  const std::map<int64_t, int64_t>& usage() const { return usage_; }
  // Returns one sequenced report line per uid whose usage moved since the
  // last drain, and marks those amounts reported.  Lines are ordered by uid;
  // sequences are monotone across the server's lifetime.
  std::vector<UsageReportLine> DrainUsageReports();
  int64_t report_seq() const { return report_seq_; }

 private:
  // One credentials line ("login:uid[:gid...]", trimmed) in credentials_file_.
  struct LineSpan {
    uint32_t pos = 0;
    uint32_t len = 0;
  };

  int ApplyCredentials(FileBytes contents);
  int ApplyQuotas(const std::string& partition, const std::string& contents);
  int ApplyDirs(const std::string& contents);
  std::string_view LineOf(LineSpan span) const;
  // The span of `login`'s line, or nullptr.
  const LineSpan* FindCredential(std::string_view login) const;

  SimHost* host_;
  std::map<std::string, NfsLocker, std::less<>> lockers_;
  std::map<int64_t, int64_t> quotas_;              // uid -> units
  std::map<int64_t, std::string> partition_of_;    // uid -> partition stem
  std::map<int64_t, int64_t> usage_;               // uid -> live units
  std::map<int64_t, int64_t> reported_;            // uid -> last drained units
  int64_t report_seq_ = 0;
  // The applied credentials file, a reference to the host file's buffer
  // rather than a copy, and one span of it per login, ascending by login.
  FileBytes credentials_file_;
  std::vector<LineSpan> credentials_;
  // The default init files every HOMEDIR locker on the host shares.
  FileBytes cshrc_;
  FileBytes login_;
  int lockers_created_ = 0;
};

// Registers the "update_lockers" exec command on `host`, backed by `server`
// (which must outlive the host's command registry).
void InstallNfsUpdateCommand(SimHost* host, NfsServerSim* server,
                             const std::string& moira_dir = "/site/moira");

}  // namespace moira

#endif  // MOIRA_SRC_NFSD_NFS_SERVER_H_
