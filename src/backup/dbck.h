// dbck — the database consistency checker (paper section 5.9.1: "a complete
// set of recovery tools" for bringing Moira up with consistent data after a
// catastrophic crash; the production system shipped exactly such a tool).
//
// Check() walks every cross-relation reference in the section 6 schema and
// reports violations, each with the repair it implies when one can be made
// mechanically; Repair() applies those repairs (removing dangling references
// and recomputing derived values such as nfsphys.allocated), the automatable
// subset of the manual intervention the paper anticipates.
#ifndef MOIRA_SRC_BACKUP_DBCK_H_
#define MOIRA_SRC_BACKUP_DBCK_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/context.h"

namespace moira {

// What Repair() does about a finding: delete `row` of the finding's table,
// or, when `column` is set, write `value` into that cell of the row.
struct DbckRepair {
  size_t row = 0;
  const char* column = nullptr;  // nullptr: drop the row
  Value value;
  std::string note;  // the repair-log line, after "<table> row <n>: "
};

struct DbckIssue {
  std::string table;        // relation the problem lives in
  std::string description;  // human-readable finding
  bool repairable = false;  // whether Repair() can fix it mechanically
  DbckRepair repair;        // how, when repairable
};

class DbConsistencyChecker {
 public:
  explicit DbConsistencyChecker(MoiraContext* mc) : mc_(mc) {}

  // Runs every check; an empty result means the database is consistent.
  std::vector<DbckIssue> Check();

  // Applies the repairs of Check()'s findings in rule order: deletes
  // dangling membership, quota, usage, mcmap, svc, serverhost, capacls, and
  // hostaccess rows; clears poboxes pointing nowhere; clamps soft limits and
  // negative usage; recomputes partition allocations.  A repair of a row an
  // earlier repair already deleted is skipped.  Returns the number of
  // repairs applied; with `log` given, one line is appended per repair (the
  // per-violation repair report).  Idempotent: a second run repairs nothing.
  int Repair(std::vector<std::string>* log = nullptr);

 private:
  void CheckUsers(std::vector<DbckIssue>* issues);
  void CheckLists(std::vector<DbckIssue>* issues);
  void CheckMembers(std::vector<DbckIssue>* issues);
  void CheckMachinesAndClusters(std::vector<DbckIssue>* issues);
  void CheckFilesys(std::vector<DbckIssue>* issues);
  // Fills `live_quotas` with the (users_id, phys_id) keys of the quota rows
  // whose user and filesystem exist: the rows that survive Repair().
  void CheckQuotasAndAllocation(std::vector<DbckIssue>* issues,
                                std::set<std::pair<int64_t, int64_t>>* live_quotas);
  void CheckQuotaUsage(std::vector<DbckIssue>* issues,
                       const std::set<std::pair<int64_t, int64_t>>& live_quotas);
  void CheckServerHosts(std::vector<DbckIssue>* issues);
  void CheckAcls(std::vector<DbckIssue>* issues);

  bool UserIdExists(int64_t users_id);
  bool ListIdExists(int64_t list_id);
  bool MachineIdExists(int64_t mach_id);
  bool StringIdExists(int64_t string_id);

  MoiraContext* mc_;
};

}  // namespace moira

#endif  // MOIRA_SRC_BACKUP_DBCK_H_
