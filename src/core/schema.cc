#include "src/core/schema.h"

#include <cassert>

namespace moira {
namespace {

constexpr ColumnType kInt = ColumnType::kInt;
constexpr ColumnType kStr = ColumnType::kString;

void MakeTable(Database* db, const char* name, std::vector<ColumnDef> columns,
               std::vector<const char*> indexes,
               std::vector<const char*> folded_indexes = {}) {
  Table* table = db->CreateTable(TableSchema{name, std::move(columns)});
  assert(table != nullptr);
  for (const char* column : indexes) {
    table->CreateIndex(column);
  }
  for (const char* column : folded_indexes) {
    table->CreateFoldedIndex(column);
  }
}

}  // namespace

void CreateMoiraSchema(Database* db) {
  // USERS: account, finger, and pobox information (paper section 6).
  MakeTable(db, kUsersTable,
            {
                {"login", kStr},      {"users_id", kInt},    {"uid", kInt},
                {"shell", kStr},      {"last", kStr},        {"first", kStr},
                {"middle", kStr},     {"status", kInt},      {"mit_id", kStr},
                {"mit_year", kStr},   {"modtime", kInt},     {"modby", kStr},
                {"modwith", kStr},    {"fullname", kStr},    {"nickname", kStr},
                {"home_addr", kStr},  {"home_phone", kStr},  {"office_addr", kStr},
                {"office_phone", kStr}, {"mit_dept", kStr},  {"mit_affil", kStr},
                {"fmodtime", kInt},   {"fmodby", kStr},      {"fmodwith", kStr},
                {"potype", kStr},     {"pop_id", kInt},      {"box_id", kInt},
                {"pmodtime", kInt},   {"pmodby", kStr},      {"pmodwith", kStr},
            },
            // status backs the active-user sweeps (`status >= 1`), which the
            // planner runs as an ordered-index range scan.
            {"login", "users_id", "uid", "mit_id", "status"},
            // Folded-case indexes back the case-insensitive name retrievals
            // (and prefix-prune their wildcard forms).
            {"login", "last"});

  MakeTable(db, kMachineTable,
            {
                {"name", kStr},
                {"mach_id", kInt},
                {"type", kStr},
                {"modtime", kInt},
                {"modby", kStr},
                {"modwith", kStr},
            },
            {"name", "mach_id"});

  MakeTable(db, kClusterTable,
            {
                {"name", kStr},
                {"clu_id", kInt},
                {"desc", kStr},
                {"location", kStr},
                {"modtime", kInt},
                {"modby", kStr},
                {"modwith", kStr},
            },
            {"name", "clu_id"});

  MakeTable(db, kMcmapTable,
            {
                {"mach_id", kInt},
                {"clu_id", kInt},
            },
            {"mach_id", "clu_id"});

  MakeTable(db, kSvcTable,
            {
                {"clu_id", kInt},
                {"serv_label", kStr},
                {"serv_cluster", kStr},
            },
            {"clu_id"});

  MakeTable(db, kListTable,
            {
                {"name", kStr},    {"list_id", kInt},  {"active", kInt},
                {"public", kInt},  {"hidden", kInt},   {"maillist", kInt},
                {"grouplist", kInt}, {"gid", kInt},    {"desc", kStr},
                {"acl_type", kStr}, {"acl_id", kInt},  {"modtime", kInt},
                {"modby", kStr},   {"modwith", kStr},
            },
            // gid backs AllocateId's free-gid probe for group lists.
            {"name", "list_id", "gid"}, {"name"});

  MakeTable(db, kMembersTable,
            {
                {"list_id", kInt},
                {"member_type", kStr},
                {"member_id", kInt},
            },
            {"list_id", "member_id"});

  // last_gen_seq: the journal sequence covered by the service's last
  // successful generation pass — the low-water mark for incremental
  // (delta-based) regeneration (DESIGN.md "Incremental propagation").
  MakeTable(db, kServersTable,
            {
                {"name", kStr},       {"update_int", kInt}, {"target_file", kStr},
                {"script", kStr},     {"dfgen", kInt},      {"dfcheck", kInt},
                {"type", kStr},       {"enable", kInt},     {"inprogress", kInt},
                {"harderror", kInt},  {"errmsg", kStr},     {"acl_type", kStr},
                {"acl_id", kInt},     {"modtime", kInt},    {"modby", kStr},
                {"modwith", kStr},    {"last_gen_seq", kInt},
            },
            {"name"});

  // consec_soft / breaker / breaker_until / breaker_opens persist the DCM's
  // per-host circuit breaker (DESIGN.md resilience layer): consecutive soft
  // failures, breaker state (0 closed / 1 open / 2 half-open), the cool-down
  // expiry, and how many times the host has been quarantined.
  MakeTable(db, kServerHostsTable,
            {
                {"service", kStr},    {"mach_id", kInt},   {"enable", kInt},
                {"override", kInt},   {"success", kInt},   {"inprogress", kInt},
                {"hosterror", kInt},  {"hosterrmsg", kStr}, {"ltt", kInt},
                {"lts", kInt},        {"consec_soft", kInt}, {"breaker", kInt},
                {"breaker_until", kInt}, {"breaker_opens", kInt},
                {"value1", kInt},     {"value2", kInt},
                {"value3", kStr},     {"modtime", kInt},   {"modby", kStr},
                {"modwith", kStr},
            },
            {"service", "mach_id"});

  MakeTable(db, kFilesysTable,
            {
                {"label", kStr},      {"order_no", kInt},  {"filsys_id", kInt},
                {"phys_id", kInt},    {"type", kStr},      {"mach_id", kInt},
                {"name", kStr},       {"mount", kStr},     {"access", kStr},
                {"comments", kStr},   {"owner", kInt},     {"owners", kInt},
                {"createflg", kInt},  {"lockertype", kStr}, {"modtime", kInt},
                {"modby", kStr},      {"modwith", kStr},
            },
            {"label", "filsys_id", "mach_id"}, {"label"});

  MakeTable(db, kNfsPhysTable,
            {
                {"nfsphys_id", kInt}, {"mach_id", kInt},  {"dir", kStr},
                {"device", kStr},     {"status", kInt},   {"allocated", kInt},
                {"size", kInt},       {"modtime", kInt},  {"modby", kStr},
                {"modwith", kStr},
            },
            {"nfsphys_id", "mach_id"});

  // quota is the hard limit shipped to fileservers; soft is the advisory
  // limit backing the grace timer (0 means "same as quota"), sexceeded is the
  // clock time the soft limit was first exceeded (0 when under), and qflags
  // carries the QuotaFlags sweep bits (DESIGN.md "Quota engine").
  MakeTable(db, kNfsQuotaTable,
            {
                {"users_id", kInt},
                {"filsys_id", kInt},
                {"phys_id", kInt},
                {"quota", kInt},
                {"soft", kInt},
                {"sexceeded", kInt},
                {"qflags", kInt},
                {"modtime", kInt},
                {"modby", kStr},
                {"modwith", kStr},
            },
            {"users_id", "filsys_id", "phys_id"});

  // QUOTAUSAGE: live per-user/per-partition usage accounting fed by the
  // fileserver usage-report path.  reports counts applied delta reports.
  // get_quota_status sums these rows through the users_id and filsys_id
  // indexes.
  MakeTable(db, kQuotaUsageTable,
            {
                {"users_id", kInt},
                {"filsys_id", kInt},
                {"phys_id", kInt},
                {"usage", kInt},
                {"reports", kInt},
                {"modtime", kInt},
            },
            {"users_id", "filsys_id", "phys_id"});

  MakeTable(db, kZephyrTable,
            {
                {"class", kStr},     {"xmt_type", kStr}, {"xmt_id", kInt},
                {"sub_type", kStr},  {"sub_id", kInt},   {"iws_type", kStr},
                {"iws_id", kInt},    {"iui_type", kStr}, {"iui_id", kInt},
                {"modtime", kInt},   {"modby", kStr},    {"modwith", kStr},
            },
            {"class"});

  MakeTable(db, kHostAccessTable,
            {
                {"mach_id", kInt},
                {"acl_type", kStr},
                {"acl_id", kInt},
                {"modtime", kInt},
                {"modby", kStr},
                {"modwith", kStr},
            },
            {"mach_id"});

  MakeTable(db, kStringsTable,
            {
                {"string_id", kInt},
                {"string", kStr},
            },
            {"string_id", "string"});

  MakeTable(db, kServicesTable,
            {
                {"name", kStr},
                {"protocol", kStr},
                {"port", kInt},
                {"desc", kStr},
                {"modtime", kInt},
                {"modby", kStr},
                {"modwith", kStr},
            },
            {"name"});

  MakeTable(db, kPrintcapTable,
            {
                {"name", kStr},
                {"mach_id", kInt},
                {"dir", kStr},
                {"rp", kStr},
                {"comments", kStr},
                {"modtime", kInt},
                {"modby", kStr},
                {"modwith", kStr},
            },
            {"name"});

  MakeTable(db, kCapAclsTable,
            {
                {"capability", kStr},
                {"tag", kStr},
                {"list_id", kInt},
            },
            {"capability"});

  MakeTable(db, kAliasTable,
            {
                {"name", kStr},
                {"type", kStr},
                {"trans", kStr},
            },
            {"name"});

  MakeTable(db, kValuesTable,
            {
                {"name", kStr},
                {"value", kInt},
            },
            {"name"});
}

void SeedMoiraDefaults(Database* db) {
  Table* alias = db->GetTable(kAliasTable);
  auto add_alias = [&](const char* name, const char* type, const char* trans) {
    alias->Append({name, type, trans});
  };
  // Legal alias types themselves (paper section 6, ALIAS).
  for (const char* t : {"TYPE", "PRINTER", "SERVICE", "FILESYS", "TYPEDATA"}) {
    add_alias("aliastype", "TYPE", t);
  }
  // Type-checked field vocabularies.
  for (const char* c : {"1989", "1990", "1991", "1992", "G", "STAFF", "FACULTY", "OTHER"}) {
    add_alias("class", "TYPE", c);
  }
  for (const char* t : {"RT", "VAX"}) {
    add_alias("mach_type", "TYPE", t);
  }
  for (const char* t : {"UNIQUE", "REPLICAT"}) {
    add_alias("service-type", "TYPE", t);
  }
  for (const char* t : {"NFS", "RVD", "ERR"}) {
    add_alias("filesys", "TYPE", t);
  }
  for (const char* t : {"HOMEDIR", "PROJECT", "COURSE", "SYSTEM", "OTHER"}) {
    add_alias("lockertype", "TYPE", t);
  }
  for (const char* t : {"POP", "SMTP", "NONE"}) {
    add_alias("pobox", "TYPE", t);
  }
  for (const char* t : {"TCP", "UDP"}) {
    add_alias("protocol", "TYPE", t);
  }
  for (const char* t : {"USER", "LIST", "NONE"}) {
    add_alias("ace_type", "TYPE", t);
  }
  for (const char* t : {"USER", "LIST", "STRING"}) {
    add_alias("member", "TYPE", t);
  }
  for (const char* t : {"usrlib", "syslib", "zephyr", "lpr"}) {
    add_alias("slabel", "TYPE", t);
  }
  // Type translations (paper: "data stored with an SMTP pobox is of type
  // string").
  add_alias("POP", "TYPEDATA", "machine");
  add_alias("SMTP", "TYPEDATA", "string");
  add_alias("NONE", "TYPEDATA", "none");

  // VALUES: id allocation hints and state variables (paper section 6).
  Table* values = db->GetTable(kValuesTable);
  auto add_value = [&](const char* name, int64_t v) { values->Append({name, v}); };
  add_value("users_id", 100);
  add_value("uid", 6500);
  add_value("list_id", 100);
  add_value("gid", 10900);
  add_value("mach_id", 100);
  add_value("clu_id", 100);
  add_value("filsys_id", 100);
  add_value("nfsphys_id", 100);
  add_value("string_id", 100);
  add_value("def_quota", 300);
  add_value("dcm_enable", 1);
  // Soft-quota grace window in seconds (7 days, MooseFS-style default).
  add_value("quota_grace", 604800);

  // Bootstrap administrator list; capacls rows are appended per-query by the
  // registry (see QueryRegistry::SeedCapacls).
  Table* list = db->GetTable(kListTable);
  list->Append({
      "dbadmin", int64_t{1}, int64_t{1}, int64_t{0}, int64_t{1}, int64_t{0},
      int64_t{0}, int64_t{-1}, "Moira database administrators", "LIST", int64_t{1},
      int64_t{0}, "root", "setup",
  });
}

std::string PartitionStem(std::string_view dir) {
  std::string out;
  for (char c : dir) {
    if (c == '/') {
      if (!out.empty()) {
        out += '_';
      }
    } else {
      out += c;
    }
  }
  return out.empty() ? "root" : out;
}

}  // namespace moira
