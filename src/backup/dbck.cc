#include "src/backup/dbck.h"

#include <map>

namespace moira {
namespace {

// A finding about `row` of `table`, rendered "row <n>: <what>"; Repair()
// leaves it to a human.
DbckIssue Issue(const char* table, size_t row, const std::string& what) {
  return DbckIssue{table, "row " + std::to_string(row) + ": " + what, false, {}};
}

// A finding Repair() fixes by deleting the row.
DbckIssue Drop(const char* table, size_t row, const std::string& what, std::string note) {
  DbckIssue issue = Issue(table, row, what);
  issue.repairable = true;
  issue.repair = DbckRepair{row, nullptr, Value(), std::move(note)};
  return issue;
}

// A finding Repair() fixes by writing `value` into `column` of the row.
DbckIssue Set(const char* table, size_t row, const std::string& what, const char* column,
              Value value, std::string note) {
  DbckIssue issue = Issue(table, row, what);
  issue.repairable = true;
  issue.repair = DbckRepair{row, column, std::move(value), std::move(note)};
  return issue;
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
      issues->push_back(Issue("users", row, "duplicate login " + login));
    }
    int64_t users_id = MoiraContext::IntCell(users, row, "users_id");
    if (!ids.insert(users_id).second) {
      issues->push_back(Issue("users", row, "duplicate users_id " + std::to_string(users_id)));
    }
    const std::string& potype = MoiraContext::StrCell(users, row, "potype");
    if (potype == "POP" &&
        !MachineIdExists(MoiraContext::IntCell(users, row, "pop_id"))) {
      issues->push_back(Set("users", row, login + " POP box on missing machine", "potype",
                            Value("NONE"), "cleared POP pobox to NONE"));
    }
    if (potype == "SMTP" &&
        !StringIdExists(MoiraContext::IntCell(users, row, "box_id"))) {
      issues->push_back(Set("users", row, login + " SMTP box string missing", "potype",
                            Value("NONE"), "cleared SMTP pobox to NONE"));
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
      issues->push_back(Issue("list", row, name + " ACE user missing"));
    }
    if (acl_type == "LIST" && !ListIdExists(acl_id)) {
      issues->push_back(Issue("list", row, name + " ACE list missing"));
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
      issues->push_back(Drop("members", row, "membership in missing list",
                             "dropped dangling membership"));
      return true;
    }
    bool resolved = (type == "USER" && UserIdExists(member_id)) ||
                    (type == "LIST" && ListIdExists(member_id)) ||
                    (type == "STRING" && StringIdExists(member_id));
    if (!resolved) {
      issues->push_back(Drop("members", row, "dangling " + std::string(type) + " member",
                             "dropped dangling membership"));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckMachinesAndClusters(std::vector<DbckIssue>* issues) {
  Table* mcmap = mc_->mcmap();
  mcmap->Scan([&](size_t row, const Row& r) {
    if (!MachineIdExists(r[0].AsInt())) {
      issues->push_back(
          Drop("mcmap", row, "mapping for missing machine", "dropped dangling mapping"));
    }
    if (mc_->ExactOne(mc_->cluster(), "clu_id", Value(r[1].AsInt()), MR_CLUSTER).code !=
        MR_SUCCESS) {
      issues->push_back(
          Drop("mcmap", row, "mapping for missing cluster", "dropped dangling mapping"));
    }
    return true;
  });
  Table* svc = mc_->svc();
  svc->Scan([&](size_t row, const Row& r) {
    if (mc_->ExactOne(mc_->cluster(), "clu_id", Value(r[0].AsInt()), MR_CLUSTER).code !=
        MR_SUCCESS) {
      issues->push_back(Drop("svc", row, "service data for missing cluster",
                             "dropped service data for missing cluster"));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckFilesys(std::vector<DbckIssue>* issues) {
  Table* filesys = mc_->filesys();
  filesys->Scan([&](size_t row, const Row&) {
    const std::string& label = MoiraContext::StrCell(filesys, row, "label");
    if (!MachineIdExists(MoiraContext::IntCell(filesys, row, "mach_id"))) {
      issues->push_back(Issue("filesys", row, label + " on missing machine"));
    }
    if (!UserIdExists(MoiraContext::IntCell(filesys, row, "owner"))) {
      issues->push_back(Issue("filesys", row, label + " owner missing"));
    }
    if (!ListIdExists(MoiraContext::IntCell(filesys, row, "owners"))) {
      issues->push_back(Issue("filesys", row, label + " owners list missing"));
    }
    if (MoiraContext::StrCell(filesys, row, "type") == "NFS") {
      int64_t phys_id = MoiraContext::IntCell(filesys, row, "phys_id");
      if (mc_->ExactOne(mc_->nfsphys(), "nfsphys_id", Value(phys_id), MR_NFSPHYS).code !=
          MR_SUCCESS) {
        issues->push_back(Issue("filesys", row, label + " on missing partition"));
      }
    }
    return true;
  });
}

void DbConsistencyChecker::CheckQuotasAndAllocation(
    std::vector<DbckIssue>* issues, std::set<std::pair<int64_t, int64_t>>* live_quotas) {
  Table* quota = mc_->nfsquota();
  std::map<int64_t, int64_t> allocation;  // phys_id -> summed quota
  quota->Scan([&](size_t row, const Row& r) {
    constexpr const char* kDrop = "dropped quota for missing user or filesystem";
    int64_t users_id = r[quota->ColumnIndex("users_id")].AsInt();
    int64_t phys_id = r[quota->ColumnIndex("phys_id")].AsInt();
    bool dangling = false;
    if (!UserIdExists(users_id)) {
      issues->push_back(Drop("nfsquota", row, "quota for missing user", kDrop));
      dangling = true;
    }
    int64_t filsys_id = r[quota->ColumnIndex("filsys_id")].AsInt();
    if (mc_->ExactOne(mc_->filesys(), "filsys_id", Value(filsys_id), MR_FILESYS).code !=
        MR_SUCCESS) {
      issues->push_back(Drop("nfsquota", row, "quota for missing filesystem", kDrop));
      dangling = true;
    }
    if (!dangling) {
      allocation[phys_id] += r[quota->ColumnIndex("quota")].AsInt();
      live_quotas->insert({users_id, phys_id});
    }
    return true;
  });
  Table* phys = mc_->nfsphys();
  phys->Scan([&](size_t row, const Row&) {
    int64_t phys_id = MoiraContext::IntCell(phys, row, "nfsphys_id");
    int64_t recorded = MoiraContext::IntCell(phys, row, "allocated");
    int64_t actual = allocation.contains(phys_id) ? allocation[phys_id] : 0;
    if (recorded != actual) {
      issues->push_back(Set("nfsphys", row,
                            "allocated=" + std::to_string(recorded) + " but quotas sum to " +
                                std::to_string(actual),
                            "allocated", Value(actual),
                            "recomputed allocated " + std::to_string(recorded) + " -> " +
                                std::to_string(actual)));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckQuotaUsage(
    std::vector<DbckIssue>* issues, const std::set<std::pair<int64_t, int64_t>>& live_quotas) {
  // Soft limits belong in [0, hard quota].  A dangling quota row is flagged
  // too, though Repair() drops it before the clamp would apply.
  Table* quota = mc_->nfsquota();
  quota->Scan([&](size_t row, const Row& r) {
    int64_t hard = r[quota->ColumnIndex("quota")].AsInt();
    int64_t soft = r[quota->ColumnIndex("soft")].AsInt();
    if (soft < 0) {
      issues->push_back(Set("nfsquota", row, "negative soft limit " + std::to_string(soft),
                            "soft", Value(int64_t{0}),
                            "clamped soft limit " + std::to_string(soft) + " -> 0"));
    } else if (soft > hard) {
      issues->push_back(Set("nfsquota", row,
                            "soft limit " + std::to_string(soft) + " exceeds hard quota " +
                                std::to_string(hard),
                            "soft", Value(hard),
                            "clamped soft limit " + std::to_string(soft) + " -> " +
                                std::to_string(hard)));
    }
    return true;
  });
  // Usage rows must point at a live user, filesystem, and surviving quota row.
  Table* usage = mc_->quotausage();
  usage->Scan([&](size_t row, const Row& r) {
    int64_t users_id = r[usage->ColumnIndex("users_id")].AsInt();
    int64_t filsys_id = r[usage->ColumnIndex("filsys_id")].AsInt();
    int64_t phys_id = r[usage->ColumnIndex("phys_id")].AsInt();
    int64_t used = r[usage->ColumnIndex("usage")].AsInt();
    if (!UserIdExists(users_id)) {
      issues->push_back(Drop("quotausage", row, "usage for missing user",
                             "dropped usage for missing user"));
    } else if (mc_->ExactOne(mc_->filesys(), "filsys_id", Value(filsys_id), MR_FILESYS)
                   .code != MR_SUCCESS) {
      issues->push_back(Drop("quotausage", row, "usage for missing filesystem",
                             "dropped usage for missing filesystem"));
    } else if (!live_quotas.contains({users_id, phys_id})) {
      issues->push_back(Drop("quotausage", row, "usage with no matching quota",
                             "dropped usage with no matching quota"));
    } else if (used < 0) {
      issues->push_back(Set("quotausage", row, "negative usage " + std::to_string(used),
                            "usage", Value(int64_t{0}),
                            "clamped negative usage " + std::to_string(used) + " -> 0"));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckServerHosts(std::vector<DbckIssue>* issues) {
  Table* sh = mc_->serverhosts();
  sh->Scan([&](size_t row, const Row&) {
    const std::string& service = MoiraContext::StrCell(sh, row, "service");
    if (mc_->ServiceByName(service).code != MR_SUCCESS) {
      issues->push_back(Drop("serverhosts", row, "host for missing service " + service,
                             "dropped dangling server host"));
    }
    if (!MachineIdExists(MoiraContext::IntCell(sh, row, "mach_id"))) {
      issues->push_back(Drop("serverhosts", row, service + " on missing machine",
                             "dropped dangling server host"));
    }
    return true;
  });
}

void DbConsistencyChecker::CheckAcls(std::vector<DbckIssue>* issues) {
  Table* capacls = mc_->capacls();
  capacls->Scan([&](size_t row, const Row& r) {
    if (!ListIdExists(r[capacls->ColumnIndex("list_id")].AsInt())) {
      issues->push_back(Drop("capacls", row, "capability points at missing list",
                             "dropped capability for missing list"));
    }
    return true;
  });
  Table* hostaccess = mc_->hostaccess();
  hostaccess->Scan([&](size_t row, const Row&) {
    if (!MachineIdExists(MoiraContext::IntCell(hostaccess, row, "mach_id"))) {
      issues->push_back(Drop("hostaccess", row, "access entry for missing machine",
                             "dropped access entry for missing machine"));
    }
    return true;
  });
}

std::vector<DbckIssue> DbConsistencyChecker::Check() {
  std::vector<DbckIssue> issues;
  std::set<std::pair<int64_t, int64_t>> live_quotas;
  CheckUsers(&issues);
  CheckLists(&issues);
  CheckMembers(&issues);
  CheckMachinesAndClusters(&issues);
  CheckFilesys(&issues);
  CheckQuotasAndAllocation(&issues, &live_quotas);
  CheckQuotaUsage(&issues, live_quotas);
  CheckServerHosts(&issues);
  CheckAcls(&issues);
  return issues;
}

int DbConsistencyChecker::Repair(std::vector<std::string>* log) {
  int repairs = 0;
  for (const DbckIssue& issue : Check()) {
    Table* table = mc_->db().GetTable(issue.table);
    const DbckRepair& fix = issue.repair;
    if (!issue.repairable || !table->IsLive(fix.row)) {
      continue;  // for a human, or the row is already gone
    }
    if (fix.column == nullptr) {
      table->Delete(fix.row);
    } else {
      MoiraContext::SetCell(table, fix.row, fix.column, fix.value);
    }
    ++repairs;
    if (log != nullptr) {
      log->push_back(issue.table + " row " + std::to_string(fix.row) + ": " + fix.note);
    }
  }
  return repairs;
}

}  // namespace moira
