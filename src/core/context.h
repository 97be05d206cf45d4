// Shared state and helpers for the Moira query layer.
//
// MoiraContext wraps the database and clock and provides the operations every
// predefined query needs: exact-one name resolution, id allocation from the
// values relation, string interning, alias type checking, and modtime
// stamping.  All query handlers (src/core/queries_*.cc) and the DCM
// generators run against this context.  StrCell hands out a copy of a
// string cell: a cell keeps a short string inside itself (src/db/value.h),
// so there is no std::string in the table to return a reference to.
#ifndef MOIRA_SRC_CORE_CONTEXT_H_
#define MOIRA_SRC_CORE_CONTEXT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/comerr/moira_errors.h"
#include "src/common/stat_counter.h"
#include "src/core/schema.h"
#include "src/db/database.h"

namespace moira {

// Result of resolving a name that must match exactly one row.
struct RowRef {
  int32_t code = MR_SUCCESS;  // MR_SUCCESS, or the query-specific error
  size_t row = 0;             // valid only when code == MR_SUCCESS
};

// Counters for the memoized list-closure cache (ContainingListClosure).
// StatCounters because MoiraServer::access_path_stats() reads them from
// whatever thread asks, while the request thread may be bumping them.
struct ListClosureStats {
  StatCounter hits = 0;           // lookups answered from a memoized closure
  StatCounter misses = 0;         // lookups that computed a fresh closure
  StatCounter invalidations = 0;  // wholesale flushes after a members write
};

class MoiraContext {
 public:
  explicit MoiraContext(Database* db) : db_(db) {}

  Database& db() { return *db_; }
  const Database& db() const { return *db_; }
  UnixTime Now() const { return db_->clock().Now(); }

  Table* users() { return db_->GetTable(kUsersTable); }
  Table* machine() { return db_->GetTable(kMachineTable); }
  Table* cluster() { return db_->GetTable(kClusterTable); }
  Table* mcmap() { return db_->GetTable(kMcmapTable); }
  Table* svc() { return db_->GetTable(kSvcTable); }
  Table* list() { return db_->GetTable(kListTable); }
  Table* members() { return db_->GetTable(kMembersTable); }
  Table* servers() { return db_->GetTable(kServersTable); }
  Table* serverhosts() { return db_->GetTable(kServerHostsTable); }
  Table* filesys() { return db_->GetTable(kFilesysTable); }
  Table* nfsphys() { return db_->GetTable(kNfsPhysTable); }
  Table* nfsquota() { return db_->GetTable(kNfsQuotaTable); }
  Table* quotausage() { return db_->GetTable(kQuotaUsageTable); }
  Table* zephyr() { return db_->GetTable(kZephyrTable); }
  Table* hostaccess() { return db_->GetTable(kHostAccessTable); }
  Table* strings() { return db_->GetTable(kStringsTable); }
  Table* services() { return db_->GetTable(kServicesTable); }
  Table* printcap() { return db_->GetTable(kPrintcapTable); }
  Table* capacls() { return db_->GetTable(kCapAclsTable); }
  Table* alias() { return db_->GetTable(kAliasTable); }
  Table* values() { return db_->GetTable(kValuesTable); }

  // --- Exact-one resolution (queries require "must match exactly one") ---

  // Matches `pattern` (no wildcards honoured) against `column` of `table`;
  // returns `missing_code` if zero matches, MR_NOT_UNIQUE if several.
  RowRef ExactOne(Table* table, const char* column, const Value& key,
                  int32_t missing_code) const;

  RowRef UserByLogin(std::string_view login);
  RowRef UserByUid(int64_t uid);
  RowRef MachineByName(std::string_view name);  // canonicalizes to uppercase
  RowRef ClusterByName(std::string_view name);
  RowRef ListByName(std::string_view name);
  RowRef ListById(int64_t list_id);
  RowRef FilesysByLabel(std::string_view label);
  RowRef ServiceByName(std::string_view name);  // servers relation, uppercased

  // --- Id allocation via the values relation hints (paper section 6) ---

  // Allocates the next unused id of the named counter, checking uniqueness
  // against `table.column`.  Returns MR_NO_ID on exhaustion.
  int32_t AllocateId(const char* counter, Table* unique_in, const char* column,
                     int64_t* out);

  // Reads / writes a value from the values relation.  Missing: MR_NO_MATCH.
  int32_t GetValue(std::string_view name, int64_t* out) const;
  int32_t SetValue(std::string_view name, int64_t value);

  // --- Strings relation interning (paper section 6, STRINGS) ---

  // Returns the id for `s`, interning if necessary.
  int64_t InternString(std::string_view s);
  // Returns the id only if already interned; nullopt otherwise.
  std::optional<int64_t> LookupString(std::string_view s) const;
  // Returns the string for an id ("" if unknown).
  std::string StringById(int64_t string_id) const;

  // --- Alias type checking (paper sections 5.2.1 and 6, ALIAS) ---

  // True if (name, "TYPE", value) is present (value compared exactly).
  bool IsLegalType(std::string_view type_name, std::string_view value) const;

  // --- Transitive list membership (memoized closure cache) ---

  // Sorted list_ids of every list the (type, id) entity — type USER, LIST,
  // or STRING — belongs to directly or through sub-list containment, to a
  // fixed point (membership cycles are handled by the visited set, not a
  // depth cap).  Closures are memoized per entity and the whole cache is
  // keyed on the members-table write version, so any members mutation
  // lazily invalidates everything on the next lookup; the returned
  // reference is only valid until then.  Backs IsUserInList (src/core/acl.cc),
  // recursive get_lists_of_member, and RUSER/RLIST ACE expansion.
  const std::vector<int64_t>& ContainingListClosure(std::string_view type, int64_t id);

  const ListClosureStats& closure_stats() const { return closure_stats_; }

  // --- ACE resolution ---

  // Validates an ace (type in USER/LIST/NONE, name resolvable) and returns
  // its id (users_id, list_id, or 0).  MR_ACE on failure.
  int32_t ResolveAce(std::string_view ace_type, std::string_view ace_name, int64_t* ace_id);

  // Renders an ace id back to its name ("NONE" for type NONE).
  std::string AceName(std::string_view ace_type, int64_t ace_id);

  // --- modtime stamping ---

  // Sets <prefix>modtime/<prefix>modby/<prefix>modwith on a row.  Prefix ""
  // is the main triple; "f" the finger triple; "p" the pobox triple.
  void Stamp(Table* table, size_t row, std::string_view who, std::string_view with,
             const char* prefix = "");

  // --- Cell convenience ---

  static int64_t IntCell(const Table* table, size_t row, const char* column);
  // "" for an int cell.  Table::Cell(...).AsString() is the copy-free view.
  static std::string StrCell(const Table* table, size_t row, const char* column);
  static void SetCell(Table* table, size_t row, const char* column, Value v);
  // DCM-internal variant: does not count in TBLSTATS (see Table::UpdateNoStats).
  static void SetCellInternal(Table* table, size_t row, const char* column, Value v);

 private:
  // The members-table write version the cached closures were computed at:
  // the mutation counters (monotonic; every members write goes through
  // Append/Update/Delete, never the no-stats DCM path).
  int64_t MembersVersion() const;

  Database* db_;
  std::map<std::pair<std::string, int64_t>, std::vector<int64_t>> closures_;
  int64_t closure_version_ = -1;
  ListClosureStats closure_stats_;
};

}  // namespace moira

#endif  // MOIRA_SRC_CORE_CONTEXT_H_
