#include "src/backup/dbck.h"

#include <map>
#include <set>
#include <utility>

#include "src/core/schema.h"

namespace moira {
namespace {

// Renders "table row <n>: <what>".
DbckIssue Issue(const char* table, size_t row, const std::string& what, bool repairable) {
  return DbckIssue{table, "row " + std::to_string(row) + ": " + what, repairable};
}

}  // namespace

bool DbConsistencyChecker::UserIdExists(int64_t users_id) {
  return mc_->ExactOne(mc_->users(), "users_id", Value(users_id), MR_USER).code ==
         MR_SUCCESS;
}

bool DbConsistencyChecker::ListIdExists(int64_t list_id) {
  return mc_->ListById(list_id).code == MR_SUCCESS;
}

bool DbConsistencyChecker::MachineIdExists(int64_t mach_id) {
  return mc_->ExactOne(mc_->machine(), "mach_id", Value(mach_id), MR_MACHINE).code ==
         MR_SUCCESS;
}

bool DbConsistencyChecker::StringIdExists(int64_t string_id) {
  return mc_->ExactOne(mc_->strings(), "string_id", Value(string_id), MR_STRING).code ==
         MR_SUCCESS;
}

void DbConsistencyChecker::CheckUsers(std::vector<DbckIssue>* issues) {
  Table* users = mc_->users();
  std::set<std::string> logins;
  std::set<int64_t> ids;
  users->Scan([&](size_t row, const Row&) {
    const std::string& login = MoiraContext::StrCell(users, row, "login");
    if (!logins.insert(login).second) {
      issues->push_back(Issue("users", row, "duplicate login " + login, false));
    }
    int64_t users_id = MoiraContext::IntCell(users, row, "users_id");
    if (!ids.insert(users_id).second) {
      issues->push_back(
          Issue("users", row, "duplicate users_id " + std::to_string(users_id), false));
    }
    const std::string& potype = MoiraContext::StrCell(users, row, "potype");
    if (potype == "POP" &&
        !MachineIdExists(MoiraContext::IntCell(users, row, "pop_id"))) {
      issues->push_back(Issue("users", row, login + " POP box on missing machine", true));
    }
    if (potype == "SMTP" &&
        !StringIdExists(MoiraContext::IntCell(users, row, "box_id"))) {
      issues->push_back(Issue("users", row, login + " SMTP box string missing", true));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckLists(std::vector<DbckIssue>* issues) {
  Table* lists = mc_->list();
  lists->Scan([&](size_t row, const Row&) {
    const std::string& acl_type = MoiraContext::StrCell(lists, row, "acl_type");
    int64_t acl_id = MoiraContext::IntCell(lists, row, "acl_id");
    const std::string& name = MoiraContext::StrCell(lists, row, "name");
    if (acl_type == "USER" && !UserIdExists(acl_id)) {
      issues->push_back(Issue("list", row, name + " ACE user missing", false));
    }
    if (acl_type == "LIST" && !ListIdExists(acl_id)) {
      issues->push_back(Issue("list", row, name + " ACE list missing", false));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckMembers(std::vector<DbckIssue>* issues) {
  Table* members = mc_->members();
  members->Scan([&](size_t row, const Row& r) {
    int64_t list_id = r[members->ColumnIndex("list_id")].AsInt();
    std::string_view type = r[members->ColumnIndex("member_type")].AsString();
    int64_t member_id = r[members->ColumnIndex("member_id")].AsInt();
    if (!ListIdExists(list_id)) {
      issues->push_back(Issue("members", row, "membership in missing list", true));
      return true;
    }
    bool resolved = (type == "USER" && UserIdExists(member_id)) ||
                    (type == "LIST" && ListIdExists(member_id)) ||
                    (type == "STRING" && StringIdExists(member_id));
    if (!resolved) {
      issues->push_back(
          Issue("members", row, "dangling " + std::string(type) + " member", true));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckMachinesAndClusters(std::vector<DbckIssue>* issues) {
  Table* mcmap = mc_->mcmap();
  mcmap->Scan([&](size_t row, const Row& r) {
    if (!MachineIdExists(r[0].AsInt())) {
      issues->push_back(Issue("mcmap", row, "mapping for missing machine", true));
    }
    if (mc_->ExactOne(mc_->cluster(), "clu_id", Value(r[1].AsInt()), MR_CLUSTER).code !=
        MR_SUCCESS) {
      issues->push_back(Issue("mcmap", row, "mapping for missing cluster", true));
    }
    return true;
  });
  Table* svc = mc_->svc();
  svc->Scan([&](size_t row, const Row& r) {
    if (mc_->ExactOne(mc_->cluster(), "clu_id", Value(r[0].AsInt()), MR_CLUSTER).code !=
        MR_SUCCESS) {
      issues->push_back(Issue("svc", row, "service data for missing cluster", true));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckFilesys(std::vector<DbckIssue>* issues) {
  Table* filesys = mc_->filesys();
  filesys->Scan([&](size_t row, const Row&) {
    const std::string& label = MoiraContext::StrCell(filesys, row, "label");
    if (!MachineIdExists(MoiraContext::IntCell(filesys, row, "mach_id"))) {
      issues->push_back(Issue("filesys", row, label + " on missing machine", false));
    }
    if (!UserIdExists(MoiraContext::IntCell(filesys, row, "owner"))) {
      issues->push_back(Issue("filesys", row, label + " owner missing", false));
    }
    if (!ListIdExists(MoiraContext::IntCell(filesys, row, "owners"))) {
      issues->push_back(Issue("filesys", row, label + " owners list missing", false));
    }
    if (MoiraContext::StrCell(filesys, row, "type") == "NFS") {
      int64_t phys_id = MoiraContext::IntCell(filesys, row, "phys_id");
      if (mc_->ExactOne(mc_->nfsphys(), "nfsphys_id", Value(phys_id), MR_NFSPHYS).code !=
          MR_SUCCESS) {
        issues->push_back(Issue("filesys", row, label + " on missing partition", false));
      }
    }
    return true;
  });
}

void DbConsistencyChecker::CheckQuotasAndAllocation(std::vector<DbckIssue>* issues) {
  Table* quota = mc_->nfsquota();
  std::map<int64_t, int64_t> allocation;  // phys_id -> summed quota
  quota->Scan([&](size_t row, const Row& r) {
    bool dangling = false;
    if (!UserIdExists(r[quota->ColumnIndex("users_id")].AsInt())) {
      issues->push_back(Issue("nfsquota", row, "quota for missing user", true));
      dangling = true;
    }
    int64_t filsys_id = r[quota->ColumnIndex("filsys_id")].AsInt();
    if (mc_->ExactOne(mc_->filesys(), "filsys_id", Value(filsys_id), MR_FILESYS).code !=
        MR_SUCCESS) {
      issues->push_back(Issue("nfsquota", row, "quota for missing filesystem", true));
      dangling = true;
    }
    if (!dangling) {
      allocation[r[quota->ColumnIndex("phys_id")].AsInt()] +=
          r[quota->ColumnIndex("quota")].AsInt();
    }
    return true;
  });
  Table* phys = mc_->nfsphys();
  phys->Scan([&](size_t row, const Row&) {
    int64_t phys_id = MoiraContext::IntCell(phys, row, "nfsphys_id");
    int64_t recorded = MoiraContext::IntCell(phys, row, "allocated");
    int64_t actual = allocation.contains(phys_id) ? allocation[phys_id] : 0;
    if (recorded != actual) {
      issues->push_back(Issue("nfsphys", row,
                              "allocated=" + std::to_string(recorded) +
                                  " but quotas sum to " + std::to_string(actual),
                              true));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckQuotaUsage(std::vector<DbckIssue>* issues) {
  Table* quota = mc_->nfsquota();
  // Keys of the quota rows that survive Repair(): (users_id, phys_id) of
  // every nfsquota row whose user and filesystem both still exist.  The
  // dangling rows themselves are reported by CheckQuotasAndAllocation.
  std::set<std::pair<int64_t, int64_t>> quota_keys;
  quota->Scan([&](size_t row, const Row& r) {
    int64_t hard = r[quota->ColumnIndex("quota")].AsInt();
    int64_t soft = r[quota->ColumnIndex("soft")].AsInt();
    if (soft < 0) {
      issues->push_back(
          Issue("nfsquota", row, "negative soft limit " + std::to_string(soft), true));
    } else if (soft > hard) {
      issues->push_back(Issue("nfsquota", row,
                              "soft limit " + std::to_string(soft) +
                                  " exceeds hard quota " + std::to_string(hard),
                              true));
    }
    bool dangling =
        !UserIdExists(r[quota->ColumnIndex("users_id")].AsInt()) ||
        mc_->ExactOne(mc_->filesys(), "filsys_id",
                      Value(r[quota->ColumnIndex("filsys_id")].AsInt()), MR_FILESYS)
                .code != MR_SUCCESS;
    if (!dangling) {
      quota_keys.insert({r[quota->ColumnIndex("users_id")].AsInt(),
                         r[quota->ColumnIndex("phys_id")].AsInt()});
    }
    return true;
  });
  // Usage rows must point at a live user, filesystem, and quota row; the
  // rollup expectations below count only the rows that pass (with negative
  // usage treated as the 0 that Repair() clamps it to).
  Table* usage = mc_->quotausage();
  std::map<std::pair<std::string, int64_t>, std::pair<int64_t, int64_t>> sums;
  usage->Scan([&](size_t row, const Row& r) {
    int64_t users_id = r[usage->ColumnIndex("users_id")].AsInt();
    int64_t filsys_id = r[usage->ColumnIndex("filsys_id")].AsInt();
    int64_t phys_id = r[usage->ColumnIndex("phys_id")].AsInt();
    int64_t used = r[usage->ColumnIndex("usage")].AsInt();
    int64_t reports = r[usage->ColumnIndex("reports")].AsInt();
    if (!UserIdExists(users_id)) {
      issues->push_back(Issue("quotausage", row, "usage for missing user", true));
      return true;
    }
    if (mc_->ExactOne(mc_->filesys(), "filsys_id", Value(filsys_id), MR_FILESYS).code !=
        MR_SUCCESS) {
      issues->push_back(Issue("quotausage", row, "usage for missing filesystem", true));
      return true;
    }
    if (!quota_keys.contains({users_id, phys_id})) {
      issues->push_back(Issue("quotausage", row, "usage with no matching quota", true));
      return true;
    }
    if (used < 0) {
      issues->push_back(
          Issue("quotausage", row, "negative usage " + std::to_string(used), true));
      used = 0;
    }
    sums[{kRollupUser, users_id}].first += used;
    sums[{kRollupUser, users_id}].second += reports;
    sums[{kRollupFilesys, filsys_id}].first += used;
    sums[{kRollupFilesys, filsys_id}].second += reports;
    return true;
  });
  Table* rollup = mc_->quotarollup();
  std::set<std::pair<std::string, int64_t>> seen;
  rollup->Scan([&](size_t row, const Row&) {
    const std::string& kind = MoiraContext::StrCell(rollup, row, "kind");
    int64_t id = MoiraContext::IntCell(rollup, row, "id");
    if (kind != kRollupUser && kind != kRollupFilesys) {
      issues->push_back(Issue("quotarollup", row, "unknown rollup kind " + kind, true));
      return true;
    }
    if (!seen.insert({kind, id}).second) {
      issues->push_back(Issue("quotarollup", row,
                              "duplicate " + kind + " rollup for id " + std::to_string(id),
                              true));
      return true;
    }
    auto it = sums.find({kind, id});
    int64_t want_usage = it == sums.end() ? 0 : it->second.first;
    int64_t want_reports = it == sums.end() ? 0 : it->second.second;
    if (MoiraContext::IntCell(rollup, row, "usage") != want_usage ||
        MoiraContext::IntCell(rollup, row, "reports") != want_reports) {
      issues->push_back(
          Issue("quotarollup", row,
                kind + " " + std::to_string(id) + " rollup usage=" +
                    std::to_string(MoiraContext::IntCell(rollup, row, "usage")) +
                    " but usage rows sum to " + std::to_string(want_usage),
                true));
    }
    return true;
  });
  for (const auto& [key, totals] : sums) {
    if ((totals.first != 0 || totals.second != 0) && !seen.contains(key)) {
      issues->push_back(DbckIssue{
          "quotarollup",
          "missing " + key.first + " rollup for id " + std::to_string(key.second), true});
    }
  }
}

void DbConsistencyChecker::CheckServerHosts(std::vector<DbckIssue>* issues) {
  Table* sh = mc_->serverhosts();
  sh->Scan([&](size_t row, const Row&) {
    const std::string& service = MoiraContext::StrCell(sh, row, "service");
    if (mc_->ServiceByName(service).code != MR_SUCCESS) {
      issues->push_back(Issue("serverhosts", row, "host for missing service " + service,
                              true));
    }
    if (!MachineIdExists(MoiraContext::IntCell(sh, row, "mach_id"))) {
      issues->push_back(Issue("serverhosts", row, service + " on missing machine", true));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckAcls(std::vector<DbckIssue>* issues) {
  Table* capacls = mc_->capacls();
  capacls->Scan([&](size_t row, const Row& r) {
    if (!ListIdExists(r[capacls->ColumnIndex("list_id")].AsInt())) {
      issues->push_back(Issue("capacls", row, "capability points at missing list", true));
    }
    return true;
  });
  Table* hostaccess = mc_->hostaccess();
  hostaccess->Scan([&](size_t row, const Row&) {
    if (!MachineIdExists(MoiraContext::IntCell(hostaccess, row, "mach_id"))) {
      issues->push_back(Issue("hostaccess", row, "access entry for missing machine",
                              true));
    }
    return true;
  });
}

std::vector<DbckIssue> DbConsistencyChecker::Check() {
  std::vector<DbckIssue> issues;
  CheckUsers(&issues);
  CheckLists(&issues);
  CheckMembers(&issues);
  CheckMachinesAndClusters(&issues);
  CheckFilesys(&issues);
  CheckQuotasAndAllocation(&issues);
  CheckQuotaUsage(&issues);
  CheckServerHosts(&issues);
  CheckAcls(&issues);
  return issues;
}

int DbConsistencyChecker::Repair(std::vector<std::string>* log) {
  int repairs = 0;
  // Counts a repair and, when the caller asked for the per-violation report,
  // records one line describing it.
  auto note = [&](const char* table, size_t row, const std::string& what) {
    ++repairs;
    if (log != nullptr) {
      log->push_back(std::string(table) + " row " + std::to_string(row) + ": " + what);
    }
  };
  // Dangling members.
  Table* members = mc_->members();
  std::vector<size_t> drop;
  members->Scan([&](size_t row, const Row& r) {
    int64_t list_id = r[0].AsInt();
    std::string_view type = r[1].AsString();
    int64_t member_id = r[2].AsInt();
    bool ok = ListIdExists(list_id) &&
              ((type == "USER" && UserIdExists(member_id)) ||
               (type == "LIST" && ListIdExists(member_id)) ||
               (type == "STRING" && StringIdExists(member_id)));
    if (!ok) {
      drop.push_back(row);
    }
    return true;
  });
  for (size_t row : drop) {
    members->Delete(row);
    note("members", row, "dropped dangling membership");
  }
  // Dangling quotas.
  Table* quota = mc_->nfsquota();
  drop.clear();
  quota->Scan([&](size_t row, const Row& r) {
    int64_t filsys_id = r[quota->ColumnIndex("filsys_id")].AsInt();
    if (!UserIdExists(r[quota->ColumnIndex("users_id")].AsInt()) ||
        mc_->ExactOne(mc_->filesys(), "filsys_id", Value(filsys_id), MR_FILESYS).code !=
            MR_SUCCESS) {
      drop.push_back(row);
    }
    return true;
  });
  for (size_t row : drop) {
    quota->Delete(row);
    note("nfsquota", row, "dropped quota for missing user or filesystem");
  }
  // Soft limits clamped into [0, hard quota].
  quota->Scan([&](size_t row, const Row& r) {
    int64_t hard = r[quota->ColumnIndex("quota")].AsInt();
    int64_t soft = r[quota->ColumnIndex("soft")].AsInt();
    int64_t fixed = soft < 0 ? 0 : (soft > hard ? hard : soft);
    if (fixed != soft) {
      MoiraContext::SetCell(quota, row, "soft", Value(fixed));
      note("nfsquota", row,
           "clamped soft limit " + std::to_string(soft) + " -> " + std::to_string(fixed));
    }
    return true;
  });
  // Usage rows without a live user, filesystem, or backing quota row are
  // dropped; negative usage is clamped to zero.
  std::set<std::pair<int64_t, int64_t>> quota_keys;
  quota->Scan([&](size_t, const Row& r) {
    quota_keys.insert({r[quota->ColumnIndex("users_id")].AsInt(),
                       r[quota->ColumnIndex("phys_id")].AsInt()});
    return true;
  });
  Table* usage = mc_->quotausage();
  std::vector<std::pair<size_t, std::string>> doomed_usage;
  usage->Scan([&](size_t row, const Row& r) {
    int64_t users_id = r[usage->ColumnIndex("users_id")].AsInt();
    int64_t filsys_id = r[usage->ColumnIndex("filsys_id")].AsInt();
    int64_t phys_id = r[usage->ColumnIndex("phys_id")].AsInt();
    if (!UserIdExists(users_id)) {
      doomed_usage.emplace_back(row, "dropped usage for missing user");
    } else if (mc_->ExactOne(mc_->filesys(), "filsys_id", Value(filsys_id), MR_FILESYS)
                   .code != MR_SUCCESS) {
      doomed_usage.emplace_back(row, "dropped usage for missing filesystem");
    } else if (!quota_keys.contains({users_id, phys_id})) {
      doomed_usage.emplace_back(row, "dropped usage with no matching quota");
    } else if (int64_t used = r[usage->ColumnIndex("usage")].AsInt(); used < 0) {
      MoiraContext::SetCell(usage, row, "usage", Value(int64_t{0}));
      note("quotausage", row, "clamped negative usage " + std::to_string(used) + " -> 0");
    }
    return true;
  });
  for (const auto& [row, what] : doomed_usage) {
    usage->Delete(row);
    note("quotausage", row, what);
  }
  // Rebuild the rollup aggregates from the surviving usage rows.
  std::map<std::pair<std::string, int64_t>, std::pair<int64_t, int64_t>> sums;
  usage->Scan([&](size_t, const Row& r) {
    int64_t used = r[usage->ColumnIndex("usage")].AsInt();
    int64_t reports = r[usage->ColumnIndex("reports")].AsInt();
    sums[{kRollupUser, r[usage->ColumnIndex("users_id")].AsInt()}].first += used;
    sums[{kRollupUser, r[usage->ColumnIndex("users_id")].AsInt()}].second += reports;
    sums[{kRollupFilesys, r[usage->ColumnIndex("filsys_id")].AsInt()}].first += used;
    sums[{kRollupFilesys, r[usage->ColumnIndex("filsys_id")].AsInt()}].second += reports;
    return true;
  });
  Table* rollup = mc_->quotarollup();
  std::set<std::pair<std::string, int64_t>> seen_rollups;
  std::vector<std::pair<size_t, std::string>> stray_rollups;
  rollup->Scan([&](size_t row, const Row&) {
    const std::string& kind = MoiraContext::StrCell(rollup, row, "kind");
    int64_t id = MoiraContext::IntCell(rollup, row, "id");
    if (kind != kRollupUser && kind != kRollupFilesys) {
      stray_rollups.emplace_back(row, "dropped rollup with unknown kind " + kind);
      return true;
    }
    if (!seen_rollups.insert({kind, id}).second) {
      stray_rollups.emplace_back(
          row, "dropped duplicate " + kind + " rollup for id " + std::to_string(id));
      return true;
    }
    auto it = sums.find({kind, id});
    int64_t want_usage = it == sums.end() ? 0 : it->second.first;
    int64_t want_reports = it == sums.end() ? 0 : it->second.second;
    int64_t have_usage = MoiraContext::IntCell(rollup, row, "usage");
    if (have_usage != want_usage ||
        MoiraContext::IntCell(rollup, row, "reports") != want_reports) {
      MoiraContext::SetCell(rollup, row, "usage", Value(want_usage));
      MoiraContext::SetCell(rollup, row, "reports", Value(want_reports));
      MoiraContext::SetCell(rollup, row, "modtime", Value(mc_->Now()));
      note("quotarollup", row,
           kind + " " + std::to_string(id) + " rollup usage " +
               std::to_string(have_usage) + " -> " + std::to_string(want_usage));
    }
    return true;
  });
  for (const auto& [row, what] : stray_rollups) {
    rollup->Delete(row);
    note("quotarollup", row, what);
  }
  for (const auto& [key, totals] : sums) {
    if ((totals.first != 0 || totals.second != 0) && !seen_rollups.contains(key)) {
      size_t row = rollup->Append({Value(key.first), Value(key.second),
                                   Value(totals.first), Value(totals.second),
                                   Value(mc_->Now())});
      note("quotarollup", row,
           "recreated " + key.first + " rollup for id " + std::to_string(key.second));
    }
  }
  // Dangling mcmap / svc / serverhosts / capacls / hostaccess rows.
  auto drop_where = [&](Table* table, const char* name, const char* what, auto bad) {
    std::vector<size_t> doomed;
    table->Scan([&](size_t row, const Row& r) {
      if (bad(row, r)) {
        doomed.push_back(row);
      }
      return true;
    });
    for (size_t row : doomed) {
      table->Delete(row);
      note(name, row, what);
    }
  };
  drop_where(mc_->mcmap(), "mcmap", "dropped dangling mapping",
             [&](size_t, const Row& r) {
               return !MachineIdExists(r[0].AsInt()) ||
                      mc_->ExactOne(mc_->cluster(), "clu_id", Value(r[1].AsInt()),
                                    MR_CLUSTER)
                              .code != MR_SUCCESS;
             });
  drop_where(mc_->svc(), "svc", "dropped service data for missing cluster",
             [&](size_t, const Row& r) {
               return mc_->ExactOne(mc_->cluster(), "clu_id", Value(r[0].AsInt()),
                                    MR_CLUSTER)
                          .code != MR_SUCCESS;
             });
  Table* sh = mc_->serverhosts();
  drop_where(sh, "serverhosts", "dropped dangling server host",
             [&](size_t row, const Row&) {
               return mc_->ServiceByName(MoiraContext::StrCell(sh, row, "service")).code !=
                          MR_SUCCESS ||
                      !MachineIdExists(MoiraContext::IntCell(sh, row, "mach_id"));
             });
  Table* capacls = mc_->capacls();
  drop_where(capacls, "capacls", "dropped capability for missing list",
             [&](size_t row, const Row&) {
               return !ListIdExists(MoiraContext::IntCell(capacls, row, "list_id"));
             });
  Table* hostaccess = mc_->hostaccess();
  drop_where(hostaccess, "hostaccess", "dropped access entry for missing machine",
             [&](size_t row, const Row&) {
               return !MachineIdExists(MoiraContext::IntCell(hostaccess, row, "mach_id"));
             });
  // Poboxes pointing nowhere are cleared to NONE.
  Table* users = mc_->users();
  users->Scan([&](size_t row, const Row&) {
    const std::string& potype = MoiraContext::StrCell(users, row, "potype");
    bool broken =
        (potype == "POP" &&
         !MachineIdExists(MoiraContext::IntCell(users, row, "pop_id"))) ||
        (potype == "SMTP" && !StringIdExists(MoiraContext::IntCell(users, row, "box_id")));
    if (broken) {
      MoiraContext::SetCell(users, row, "potype", Value("NONE"));
      note("users", row, "cleared " + potype + " pobox to NONE");
    }
    return true;
  });
  // Recompute partition allocations from the surviving quotas.
  std::map<int64_t, int64_t> allocation;
  quota->Scan([&](size_t, const Row& r) {
    allocation[r[quota->ColumnIndex("phys_id")].AsInt()] +=
        r[quota->ColumnIndex("quota")].AsInt();
    return true;
  });
  Table* phys = mc_->nfsphys();
  phys->Scan([&](size_t row, const Row&) {
    int64_t phys_id = MoiraContext::IntCell(phys, row, "nfsphys_id");
    int64_t actual = allocation.contains(phys_id) ? allocation[phys_id] : 0;
    int64_t recorded = MoiraContext::IntCell(phys, row, "allocated");
    if (recorded != actual) {
      MoiraContext::SetCell(phys, row, "allocated", Value(actual));
      note("nfsphys", row,
           "recomputed allocated " + std::to_string(recorded) + " -> " +
               std::to_string(actual));
    }
    return true;
  });
  return repairs;
}

}  // namespace moira
