// Zephyr, host access, network services, printcap, alias, values, table
// statistics, and built-in special queries (paper sections 7.0.6 - 7.0.8).
#include "src/core/queries_common.h"

namespace moira {
namespace {

// --- zephyr classes ---

// The four (type, id) ACE pairs of a zephyr class, in column order.
constexpr const char* kZephyrAcePrefixes[4] = {"xmt", "sub", "iws", "iui"};

int32_t ParseZephyrAces(MoiraContext& mc, const std::vector<std::string>& args, size_t base,
                        int64_t ids[4]) {
  for (int i = 0; i < 4; ++i) {
    if (int32_t code = mc.ResolveAce(args[base + 2 * i], args[base + 2 * i + 1], &ids[i]);
        code != MR_SUCCESS) {
      return code;
    }
  }
  return MR_SUCCESS;
}

int32_t GetZephyrClass(QueryCall& call) {
  MoiraContext& mc = call.mc;
  Table* zephyr = mc.zephyr();
  From(zephyr).WhereWild("class", call.args[0]).Emit([&](const std::vector<size_t>& rows) {
    size_t row = rows[0];
    Tuple tuple = {MoiraContext::StrCell(zephyr, row, "class")};
    for (const char* prefix : kZephyrAcePrefixes) {
      std::string type_col = std::string(prefix) + "_type";
      std::string id_col = std::string(prefix) + "_id";
      const std::string& type = MoiraContext::StrCell(zephyr, row, type_col.c_str());
      tuple.push_back(type);
      tuple.push_back(mc.AceName(type, MoiraContext::IntCell(zephyr, row, id_col.c_str())));
    }
    tuple.push_back(IntStr(zephyr, row, "modtime"));
    tuple.push_back(MoiraContext::StrCell(zephyr, row, "modby"));
    tuple.push_back(MoiraContext::StrCell(zephyr, row, "modwith"));
    call.emit(std::move(tuple));
  });
  return MR_SUCCESS;
}

int32_t AddZephyrClass(QueryCall& call) {
  MoiraContext& mc = call.mc;
  if (int32_t code = RequireLegalChars(call.args[0]); code != MR_SUCCESS) {
    return code;
  }
  Table* zephyr = mc.zephyr();
  if (mc.ExactOne(zephyr, "class", Value(call.args[0]), MR_ZEPHYR).code == MR_SUCCESS) {
    return MR_EXISTS;
  }
  int64_t ids[4];
  if (int32_t code = ParseZephyrAces(mc, call.args, 1, ids); code != MR_SUCCESS) {
    return code;
  }
  size_t row = zephyr->Append({Value(call.args[0]), Value(call.args[1]), Value(ids[0]),
                               Value(call.args[3]), Value(ids[1]), Value(call.args[5]),
                               Value(ids[2]), Value(call.args[7]), Value(ids[3]),
                               Value(int64_t{0}), Value(""), Value("")});
  mc.Stamp(zephyr, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateZephyrClass(QueryCall& call) {
  MoiraContext& mc = call.mc;
  Table* zephyr = mc.zephyr();
  RowRef klass = mc.ExactOne(zephyr, "class", Value(call.args[0]), MR_ZEPHYR);
  if (klass.code != MR_SUCCESS) {
    return klass.code;
  }
  const std::string& newname = call.args[1];
  if (newname != call.args[0] &&
      mc.ExactOne(zephyr, "class", Value(newname), MR_ZEPHYR).code == MR_SUCCESS) {
    return MR_NOT_UNIQUE;
  }
  int64_t ids[4];
  if (int32_t code = ParseZephyrAces(mc, call.args, 2, ids); code != MR_SUCCESS) {
    return code;
  }
  MoiraContext::SetCell(zephyr, klass.row, "class", Value(newname));
  for (int i = 0; i < 4; ++i) {
    std::string type_col = std::string(kZephyrAcePrefixes[i]) + "_type";
    std::string id_col = std::string(kZephyrAcePrefixes[i]) + "_id";
    MoiraContext::SetCell(zephyr, klass.row, type_col.c_str(), Value(call.args[2 + 2 * i]));
    MoiraContext::SetCell(zephyr, klass.row, id_col.c_str(), Value(ids[i]));
  }
  mc.Stamp(zephyr, klass.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t DeleteZephyrClass(QueryCall& call) {
  MoiraContext& mc = call.mc;
  Table* zephyr = mc.zephyr();
  RowRef klass = mc.ExactOne(zephyr, "class", Value(call.args[0]), MR_ZEPHYR);
  if (klass.code != MR_SUCCESS) {
    return klass.code;
  }
  zephyr->Delete(klass.row);
  return MR_SUCCESS;
}

// --- host access (/.klogin generation) ---

int32_t GetServerHostAccess(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const Table* machine = mc.machine();
  Table* hostaccess = mc.hostaccess();
  std::string pattern = ToUpperCopy(call.args[0]);
  From(machine)
      .WhereWild("name", pattern)
      .Join(hostaccess, "mach_id", "mach_id")
      .Emit([&](const std::vector<size_t>& rows) {
        size_t row = rows[1];
        const std::string& type = MoiraContext::StrCell(hostaccess, row, "acl_type");
        call.emit({MoiraContext::StrCell(machine, rows[0], "name"), type,
                   mc.AceName(type, MoiraContext::IntCell(hostaccess, row, "acl_id")),
                   IntStr(hostaccess, row, "modtime"),
                   MoiraContext::StrCell(hostaccess, row, "modby"),
                   MoiraContext::StrCell(hostaccess, row, "modwith")});
      });
  return MR_SUCCESS;
}

int32_t AddServerHostAccess(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t ace_id = 0;
  if (int32_t code = mc.ResolveAce(call.args[1], call.args[2], &ace_id);
      code != MR_SUCCESS) {
    return code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  Table* hostaccess = mc.hostaccess();
  if (From(hostaccess).WhereEq("mach_id", Value(mach_id)).Any()) {
    return MR_EXISTS;
  }
  size_t row = hostaccess->Append({Value(mach_id), Value(call.args[1]), Value(ace_id),
                                   Value(int64_t{0}), Value(""), Value("")});
  mc.Stamp(hostaccess, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateServerHostAccess(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t ace_id = 0;
  if (int32_t code = mc.ResolveAce(call.args[1], call.args[2], &ace_id);
      code != MR_SUCCESS) {
    return code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  Table* hostaccess = mc.hostaccess();
  RowRef entry = mc.ExactOne(hostaccess, "mach_id", Value(mach_id), MR_NO_MATCH);
  if (entry.code != MR_SUCCESS) {
    return entry.code;
  }
  MoiraContext::SetCell(hostaccess, entry.row, "acl_type", Value(call.args[1]));
  MoiraContext::SetCell(hostaccess, entry.row, "acl_id", Value(ace_id));
  mc.Stamp(hostaccess, entry.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t DeleteServerHostAccess(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  Table* hostaccess = mc.hostaccess();
  RowRef entry = mc.ExactOne(hostaccess, "mach_id", Value(mach_id), MR_NO_MATCH);
  if (entry.code != MR_SUCCESS) {
    return entry.code;
  }
  hostaccess->Delete(entry.row);
  return MR_SUCCESS;
}

// --- network services (/etc/services) ---

int32_t GetService(QueryCall& call) {
  Table* services = call.mc.services();
  From(services).WhereWild("name", call.args[0]).Emit([&](const std::vector<size_t>& rows) {
    size_t row = rows[0];
    call.emit({MoiraContext::StrCell(services, row, "name"),
               MoiraContext::StrCell(services, row, "protocol"), IntStr(services, row, "port"),
               MoiraContext::StrCell(services, row, "desc"), IntStr(services, row, "modtime"),
               MoiraContext::StrCell(services, row, "modby"),
               MoiraContext::StrCell(services, row, "modwith")});
  });
  return MR_SUCCESS;
}

int32_t AddService(QueryCall& call) {
  MoiraContext& mc = call.mc;
  if (int32_t code = RequireLegalChars(call.args[0]); code != MR_SUCCESS) {
    return code;
  }
  if (!mc.IsLegalType("protocol", ToUpperCopy(call.args[1]))) {
    return MR_TYPE;
  }
  int64_t port = 0;
  if (int32_t code = RequireInt(call.args[2], &port); code != MR_SUCCESS) {
    return code;
  }
  Table* services = mc.services();
  if (mc.ExactOne(services, "name", Value(call.args[0]), MR_SERVICE).code == MR_SUCCESS) {
    return MR_EXISTS;
  }
  size_t row = services->Append({Value(call.args[0]), Value(ToUpperCopy(call.args[1])),
                                 Value(port), Value(call.args[3]), Value(int64_t{0}),
                                 Value(""), Value("")});
  mc.Stamp(services, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t DeleteService(QueryCall& call) {
  MoiraContext& mc = call.mc;
  Table* services = mc.services();
  RowRef service = mc.ExactOne(services, "name", Value(call.args[0]), MR_SERVICE);
  if (service.code != MR_SUCCESS) {
    return service.code;
  }
  services->Delete(service.row);
  return MR_SUCCESS;
}

// --- printcap ---

int32_t GetPrintcap(QueryCall& call) {
  MoiraContext& mc = call.mc;
  Table* printcap = mc.printcap();
  From(printcap).WhereWild("name", call.args[0]).Emit([&](const std::vector<size_t>& rows) {
    size_t row = rows[0];
    int64_t mach_id = MoiraContext::IntCell(printcap, row, "mach_id");
    RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(mach_id), MR_MACHINE);
    call.emit({MoiraContext::StrCell(printcap, row, "name"),
               mach.code == MR_SUCCESS
                   ? MoiraContext::StrCell(mc.machine(), mach.row, "name")
                   : "???",
               MoiraContext::StrCell(printcap, row, "dir"),
               MoiraContext::StrCell(printcap, row, "rp"),
               MoiraContext::StrCell(printcap, row, "comments"),
               MoiraContext::StrCell(printcap, row, "modby"),
               MoiraContext::StrCell(printcap, row, "modwith")});
  });
  return MR_SUCCESS;
}

int32_t AddPrintcap(QueryCall& call) {
  MoiraContext& mc = call.mc;
  if (int32_t code = RequireLegalChars(call.args[0]); code != MR_SUCCESS) {
    return code;
  }
  Table* printcap = mc.printcap();
  if (mc.ExactOne(printcap, "name", Value(call.args[0]), MR_NO_MATCH).code == MR_SUCCESS) {
    return MR_EXISTS;
  }
  RowRef mach = mc.MachineByName(call.args[1]);
  if (mach.code != MR_SUCCESS) {
    return MR_MACHINE;
  }
  size_t row = printcap->Append({Value(call.args[0]),
                                 Value(MoiraContext::IntCell(mc.machine(), mach.row,
                                                             "mach_id")),
                                 Value(call.args[2]), Value(call.args[3]),
                                 Value(call.args[4]), Value(int64_t{0}), Value(""),
                                 Value("")});
  mc.Stamp(printcap, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t DeletePrintcap(QueryCall& call) {
  MoiraContext& mc = call.mc;
  Table* printcap = mc.printcap();
  RowRef printer = mc.ExactOne(printcap, "name", Value(call.args[0]), MR_NO_MATCH);
  if (printer.code != MR_SUCCESS) {
    return printer.code;
  }
  printcap->Delete(printer.row);
  return MR_SUCCESS;
}

// --- aliases ---

int32_t GetAlias(QueryCall& call) {
  Table* alias = call.mc.alias();
  From(alias)
      .WhereWild("name", call.args[0])
      .WhereWild("type", call.args[1])
      .WhereWild("trans", call.args[2])
      .Emit([&](const std::vector<size_t>& rows) {
        call.emit({MoiraContext::StrCell(alias, rows[0], "name"),
                   MoiraContext::StrCell(alias, rows[0], "type"),
                   MoiraContext::StrCell(alias, rows[0], "trans")});
      });
  return MR_SUCCESS;
}

int32_t AddAlias(QueryCall& call) {
  MoiraContext& mc = call.mc;
  if (!mc.IsLegalType("aliastype", call.args[1])) {
    return MR_TYPE;
  }
  Table* alias = mc.alias();
  // Exact duplicates are rejected; duplicate translations for a (name, type)
  // pair are allowed.
  if (From(alias)
          .WhereEq("name", Value(call.args[0]))
          .WhereEq("type", Value(call.args[1]))
          .WhereEq("trans", Value(call.args[2]))
          .Any()) {
    return MR_EXISTS;
  }
  alias->Append({Value(call.args[0]), Value(call.args[1]), Value(call.args[2])});
  return MR_SUCCESS;
}

int32_t DeleteAlias(QueryCall& call) {
  Table* alias = call.mc.alias();
  std::vector<size_t> rows = From(alias)
                                 .WhereEq("name", Value(call.args[0]))
                                 .WhereEq("type", Value(call.args[1]))
                                 .WhereEq("trans", Value(call.args[2]))
                                 .Rows();
  if (rows.empty()) {
    return MR_NO_MATCH;
  }
  if (rows.size() > 1) {
    return MR_NOT_UNIQUE;
  }
  alias->Delete(rows[0]);
  return MR_SUCCESS;
}

// --- values ---

int32_t GetValueQuery(QueryCall& call) {
  int64_t value = 0;
  if (int32_t code = call.mc.GetValue(call.args[0], &value); code != MR_SUCCESS) {
    return code;
  }
  call.emit({std::to_string(value)});
  return MR_SUCCESS;
}

int32_t AddValue(QueryCall& call) {
  MoiraContext& mc = call.mc;
  int64_t value = 0;
  if (int32_t code = RequireInt(call.args[1], &value); code != MR_SUCCESS) {
    return code;
  }
  int64_t existing = 0;
  if (mc.GetValue(call.args[0], &existing) == MR_SUCCESS) {
    return MR_EXISTS;
  }
  mc.values()->Append({Value(call.args[0]), Value(value)});
  return MR_SUCCESS;
}

int32_t UpdateValue(QueryCall& call) {
  int64_t value = 0;
  if (int32_t code = RequireInt(call.args[1], &value); code != MR_SUCCESS) {
    return code;
  }
  return call.mc.SetValue(call.args[0], value);
}

int32_t DeleteValue(QueryCall& call) {
  MoiraContext& mc = call.mc;
  Table* values = mc.values();
  RowRef ref = mc.ExactOne(values, "name", Value(call.args[0]), MR_NO_MATCH);
  if (ref.code != MR_SUCCESS) {
    return ref.code;
  }
  values->Delete(ref.row);
  return MR_SUCCESS;
}

// --- table statistics ---

int32_t GetAllTableStats(QueryCall& call) {
  MoiraContext& mc = call.mc;
  for (const std::string& name : mc.db().TableNames()) {
    const Table* table = mc.db().GetTable(name);
    const TableStats& stats = table->stats();
    // retrieves is obsolete and unused for performance reasons (paper
    // section 6, TBLSTATS): always reported as 0.
    call.emit({name, "0", std::to_string(stats.appends), std::to_string(stats.updates),
               std::to_string(stats.deletes), std::to_string(stats.modtime)});
  }
  return MR_SUCCESS;
}

// Per-table access-path statistics: how queries actually executed.  A row per
// table: mutation counters plus planner counters (index hits, prefix-pruned
// scans, range scans, full scans, rows examined vs emitted, join reorders,
// set probes): 12 columns.  Privileged (dbadmin only via CAPACLS; not
// world_ok) since it exposes workload shape.
int32_t GetTableStatistics(QueryCall& call) {
  MoiraContext& mc = call.mc;
  for (const std::string& name : mc.db().TableNames()) {
    const Table* table = mc.db().GetTable(name);
    const TableStats& stats = table->stats();
    call.emit({name, std::to_string(stats.appends), std::to_string(stats.updates),
               std::to_string(stats.deletes), std::to_string(stats.index_hits),
               std::to_string(stats.prefix_scans), std::to_string(stats.range_scans),
               std::to_string(stats.full_scans), std::to_string(stats.rows_examined),
               std::to_string(stats.rows_emitted), std::to_string(stats.join_reorders),
               std::to_string(stats.set_probes)});
  }
  return MR_SUCCESS;
}

// --- built-in special queries (paper section 7.0.8) ---

int32_t HelpQuery(QueryCall& call) {
  const QueryDef* def = QueryRegistry::Instance().Find(call.args[0]);
  if (def == nullptr) {
    return MR_NO_HANDLE;
  }
  std::string help = std::string(def->shortname) + " (" +
                     std::string(QueryClassName(def->qclass)) + ") args: [" + def->argspec +
                     "] returns: [" + def->retspec + "]";
  call.emit({std::move(help)});
  return MR_SUCCESS;
}

int32_t ListQueries(QueryCall& call) {
  for (const QueryDef& def : QueryRegistry::Instance().All()) {
    call.emit({def.name, def.shortname});
  }
  return MR_SUCCESS;
}

// trigger_dcm is a pseudo-query: its CAPACLS entry gates the Trigger_DCM
// major request (paper section 5.3); executing it through the query path is a
// no-op handled by the server.
int32_t TriggerDcmNoop(QueryCall& call) {
  (void)call;
  return MR_SUCCESS;
}

// get_replica_status is likewise server-state backed: the Moira server
// answers it from its replica directory, and its CAPACLS entry also gates the
// journal-streaming ReplFetch/ReplSnapshot major requests (src/repl).
// Through the direct glue path there is no replica directory to report.
int32_t GetReplicaStatusNoop(QueryCall& call) {
  (void)call;
  return MR_SUCCESS;
}

}  // namespace

void AppendMiscQueries(std::vector<QueryDef>* defs) {
  defs->insert(
      defs->end(),
      {
          {"get_zephyr_class", "gzcl", QueryClass::kRetrieve, 1, false, "class",
           "class, xmt_type, xmt_name, sub_type, sub_name, iws_type, iws_name, iui_type, "
           "iui_name, modtime, modby, modwith",
           nullptr, GetZephyrClass},
          {"add_zephyr_class", "azcl", QueryClass::kAppend, 9, false,
           "class, xmt_type, xmt_name, sub_type, sub_name, iws_type, iws_name, iui_type, "
           "iui_name",
           "", nullptr, AddZephyrClass},
          {"update_zephyr_class", "uzcl", QueryClass::kUpdate, 10, false,
           "class, newclass, xmt_type, xmt_name, sub_type, sub_name, iws_type, iws_name, "
           "iui_type, iui_name",
           "", nullptr, UpdateZephyrClass},
          {"delete_zephyr_class", "dzcl", QueryClass::kDelete, 1, false, "class", "",
           nullptr, DeleteZephyrClass},
          {"get_server_host_access", "gsha", QueryClass::kRetrieve, 1, false, "machine",
           "machine, ace_type, ace_name, modtime, modby, modwith", nullptr,
           GetServerHostAccess},
          {"add_server_host_access", "asha", QueryClass::kAppend, 3, false,
           "machine, ace_type, ace_name", "", nullptr, AddServerHostAccess},
          {"update_server_host_access", "usha", QueryClass::kUpdate, 3, false,
           "machine, ace_type, ace_name", "", nullptr, UpdateServerHostAccess},
          {"delete_server_host_access", "dsha", QueryClass::kDelete, 1, false, "machine", "",
           nullptr, DeleteServerHostAccess},
          {"get_service", "gsvc", QueryClass::kRetrieve, 1, true, "service",
           "service, protocol, port, description, modtime, modby, modwith", nullptr,
           GetService},
          {"add_service", "asvc", QueryClass::kAppend, 4, false,
           "service, protocol, port, description", "", nullptr, AddService},
          {"delete_service", "dsvc", QueryClass::kDelete, 1, false, "service", "", nullptr,
           DeleteService},
          {"get_printcap", "gpcp", QueryClass::kRetrieve, 1, true, "printer",
           "printer, spool_host, spool_directory, rprinter, comments, modby, modwith",
           nullptr, GetPrintcap},
          {"add_printcap", "apcp", QueryClass::kAppend, 5, false,
           "printer, spool_host, spool_directory, rprinter, comments", "", nullptr,
           AddPrintcap},
          {"delete_printcap", "dpcp", QueryClass::kDelete, 1, false, "printer", "", nullptr,
           DeletePrintcap},
          {"get_alias", "gali", QueryClass::kRetrieve, 3, true, "name, type, translation",
           "name, type, translation", nullptr, GetAlias},
          {"add_alias", "aali", QueryClass::kAppend, 3, false, "name, type, translation", "",
           nullptr, AddAlias},
          {"delete_alias", "dali", QueryClass::kDelete, 3, false, "name, type, translation",
           "", nullptr, DeleteAlias},
          {"get_value", "gval", QueryClass::kRetrieve, 1, true, "variable", "value", nullptr,
           GetValueQuery},
          {"add_value", "aval", QueryClass::kAppend, 2, false, "variable, value", "",
           nullptr, AddValue},
          {"update_value", "uval", QueryClass::kUpdate, 2, false, "variable, value", "",
           nullptr, UpdateValue},
          {"delete_value", "dval", QueryClass::kDelete, 1, false, "variable", "", nullptr,
           DeleteValue},
          {"get_all_table_stats", "gats", QueryClass::kRetrieve, 0, true, "",
           "table, retrieves, appends, updates, deletes, modtime", nullptr,
           GetAllTableStats},
          {"get_table_statistics", "gtst", QueryClass::kRetrieve, 0, false, "",
           "table, appends, updates, deletes, index_hits, prefix_scans, range_scans, "
           "full_scans, rows_examined, rows_emitted, join_reorders, set_probes",
           nullptr, GetTableStatistics},
          {"_help", "help", QueryClass::kRetrieve, 1, true, "query", "help_message", nullptr,
           HelpQuery},
          {"_list_queries", "lque", QueryClass::kRetrieve, 0, true, "",
           "long_query_name, short_query_name", nullptr, ListQueries},
          {"trigger_dcm", "tdcm", QueryClass::kUpdate, 0, false, "", "", nullptr,
           TriggerDcmNoop},
          {"get_replica_status", "grst", QueryClass::kRetrieve, 0, false, "",
           "replica, applied_seq, primary_seq, lag, last_contact", nullptr,
           GetReplicaStatusNoop},
      });
}

}  // namespace moira
