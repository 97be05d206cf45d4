// The Moira database schema: every relation of paper section 6.
//
// Table and column names follow the paper exactly.  Finger and pobox fields
// live in the users relation (as in the paper's USERS description); TBLSTATS
// is maintained by the engine and materialized on demand.
#ifndef MOIRA_SRC_CORE_SCHEMA_H_
#define MOIRA_SRC_CORE_SCHEMA_H_

#include <string>
#include <string_view>

#include "src/db/database.h"

namespace moira {

// Relation names.
inline constexpr char kUsersTable[] = "users";
inline constexpr char kMachineTable[] = "machine";
inline constexpr char kClusterTable[] = "cluster";
inline constexpr char kMcmapTable[] = "mcmap";
inline constexpr char kSvcTable[] = "svc";
inline constexpr char kListTable[] = "list";
inline constexpr char kMembersTable[] = "members";
inline constexpr char kServersTable[] = "servers";
inline constexpr char kServerHostsTable[] = "serverhosts";
inline constexpr char kFilesysTable[] = "filesys";
inline constexpr char kNfsPhysTable[] = "nfsphys";
inline constexpr char kNfsQuotaTable[] = "nfsquota";
inline constexpr char kQuotaUsageTable[] = "quotausage";
inline constexpr char kZephyrTable[] = "zephyr";
inline constexpr char kHostAccessTable[] = "hostaccess";
inline constexpr char kStringsTable[] = "strings";
inline constexpr char kServicesTable[] = "services";
inline constexpr char kPrintcapTable[] = "printcap";
inline constexpr char kCapAclsTable[] = "capacls";
inline constexpr char kAliasTable[] = "alias";
inline constexpr char kValuesTable[] = "values";

// User account statuses (paper section 6, USERS.status).
enum UserStatus : int {
  kUserNotRegistered = 0,   // not registered, but registerable
  kUserActive = 1,          // active account
  kUserHalfRegistered = 2,  // half-registered
  kUserDeleted = 3,         // marked for deletion
  kUserNotRegisterable = 4,
};

// NFSPHYS.status bit assignments (paper section 6).
enum NfsPhysStatus : int {
  kFsStudent = 1 << 0,
  kFsFaculty = 1 << 1,
  kFsStaff = 1 << 2,
  kFsMisc = 1 << 3,
};

// NFSQUOTA.qflags bits (quota engine, DESIGN.md "Quota engine").
enum QuotaFlags : int {
  kQuotaGraceExpired = 1 << 0,  // soft limit exceeded past the grace window
  kQuotaHardNoticed = 1 << 1,   // a hard-limit Zephyr notice is outstanding
};

// Flattens an NFSPHYS.dir ("/u1", "/a/b", "/") into the file-name stem
// ("u1", "a_b", "root") that names a partition's generated .dirs/.quotas
// files and keys the fileservers' usage reports.
std::string PartitionStem(std::string_view dir);

// Sentinels used by add_user / add_list (paper section 7, <moira.h>).
inline constexpr int64_t kUniqueUid = -1;
inline constexpr int64_t kUniqueGid = -1;
inline constexpr char kUniqueLogin[] = "#UNIQUE";

// Creates every Moira relation (with indexes) in `db`.  `db` must be empty.
void CreateMoiraSchema(Database* db);

// Seeds the alias type-checking entries, the values relation hints and the
// "dbadmin" bootstrap list (paper section 6 ALIAS/VALUES).  The CAPACLS rows
// pointing every query at dbadmin come from QueryRegistry::SeedCapacls.
void SeedMoiraDefaults(Database* db);

}  // namespace moira

#endif  // MOIRA_SRC_CORE_SCHEMA_H_
