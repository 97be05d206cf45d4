// Server and serverhost queries (paper section 7.0.4): the per-service and
// per-host state driving the Data Control Manager.
#include "src/core/queries_common.h"

namespace moira {
namespace {

Tuple ServerInfoTuple(MoiraContext& mc, size_t row) {
  const Table* servers = mc.servers();
  return {MoiraContext::StrCell(servers, row, "name"),
          IntStr(servers, row, "update_int"),
          MoiraContext::StrCell(servers, row, "target_file"),
          MoiraContext::StrCell(servers, row, "script"),
          IntStr(servers, row, "dfgen"),
          IntStr(servers, row, "dfcheck"),
          MoiraContext::StrCell(servers, row, "type"),
          IntStr(servers, row, "enable"),
          IntStr(servers, row, "inprogress"),
          IntStr(servers, row, "harderror"),
          MoiraContext::StrCell(servers, row, "errmsg"),
          MoiraContext::StrCell(servers, row, "acl_type"),
          mc.AceName(MoiraContext::StrCell(servers, row, "acl_type"),
                     MoiraContext::IntCell(servers, row, "acl_id")),
          IntStr(servers, row, "modtime"),
          MoiraContext::StrCell(servers, row, "modby"),
          MoiraContext::StrCell(servers, row, "modwith")};
}

int32_t GetServerInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  Table* servers = mc.servers();
  std::string pattern = ToUpperCopy(call.args[0]);
  From(servers).WhereWild("name", pattern).Emit([&](const std::vector<size_t>& rows) {
    call.emit(ServerInfoTuple(mc, rows[0]));
  });
  return MR_SUCCESS;
}

int32_t QualifiedGetServer(QueryCall& call) {
  int tri[3];
  for (int i = 0; i < 3; ++i) {
    if (int32_t code = RequireTriState(call.args[i], &tri[i]); code != MR_SUCCESS) {
      return code;
    }
  }
  const Table* servers = call.mc.servers();
  static constexpr const char* kFlagCols[3] = {"enable", "inprogress", "harderror"};
  Selector sel = From(servers);
  for (int i = 0; i < 3; ++i) {
    WhereTriState(&sel, kFlagCols[i], tri[i]);
  }
  sel.Emit([&](const std::vector<size_t>& rows) {
    call.emit({MoiraContext::StrCell(servers, rows[0], "name")});
  });
  return MR_SUCCESS;
}

// Parses the shared add/update argument block {service, interval, target,
// script, type, enable, ace_type, ace_name}.
struct ServerArgs {
  std::string name;
  int64_t interval = 0;
  int64_t enable = 0;
  int64_t ace_id = 0;
};

int32_t ParseServerArgs(QueryCall& call, ServerArgs* out) {
  MoiraContext& mc = call.mc;
  out->name = ToUpperCopy(call.args[0]);
  if (int32_t code = RequireInt(call.args[1], &out->interval); code != MR_SUCCESS) {
    return code;
  }
  if (!mc.IsLegalType("service-type", call.args[4])) {
    return MR_TYPE;
  }
  if (int32_t code = RequireBool(call.args[5], &out->enable); code != MR_SUCCESS) {
    return code;
  }
  return mc.ResolveAce(call.args[6], call.args[7], &out->ace_id);
}

int32_t AddServerInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  ServerArgs parsed;
  if (int32_t code = ParseServerArgs(call, &parsed); code != MR_SUCCESS) {
    return code;
  }
  if (mc.ServiceByName(parsed.name).code == MR_SUCCESS) {
    return MR_EXISTS;
  }
  size_t row = mc.servers()->Append({
      Value(parsed.name), Value(parsed.interval), Value(call.args[2]), Value(call.args[3]),
      Value(int64_t{0}) /* dfgen */, Value(int64_t{0}) /* dfcheck */, Value(call.args[4]),
      Value(parsed.enable), Value(int64_t{0}) /* inprogress */,
      Value(int64_t{0}) /* harderror */, Value("") /* errmsg */, Value(call.args[6]),
      Value(parsed.ace_id), Value(int64_t{0}), Value(""), Value(""),
      Value(int64_t{0}) /* last_gen_seq */,
  });
  mc.Stamp(mc.servers(), row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateServerInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  ServerArgs parsed;
  if (int32_t code = ParseServerArgs(call, &parsed); code != MR_SUCCESS) {
    return code;
  }
  RowRef service = mc.ServiceByName(parsed.name);
  if (service.code != MR_SUCCESS) {
    return service.code;
  }
  Table* servers = mc.servers();
  MoiraContext::SetCell(servers, service.row, "update_int", Value(parsed.interval));
  MoiraContext::SetCell(servers, service.row, "target_file", Value(call.args[2]));
  MoiraContext::SetCell(servers, service.row, "script", Value(call.args[3]));
  MoiraContext::SetCell(servers, service.row, "type", Value(call.args[4]));
  MoiraContext::SetCell(servers, service.row, "enable", Value(parsed.enable));
  MoiraContext::SetCell(servers, service.row, "acl_type", Value(call.args[6]));
  MoiraContext::SetCell(servers, service.row, "acl_id", Value(parsed.ace_id));
  mc.Stamp(servers, service.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t ResetServerError(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef service = mc.ServiceByName(call.args[0]);
  if (service.code != MR_SUCCESS) {
    return service.code;
  }
  Table* servers = mc.servers();
  MoiraContext::SetCell(servers, service.row, "harderror", Value(int64_t{0}));
  MoiraContext::SetCell(servers, service.row, "errmsg", Value(""));
  MoiraContext::SetCell(servers, service.row, "dfcheck",
                        Value(MoiraContext::IntCell(servers, service.row, "dfgen")));
  mc.Stamp(servers, service.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t SetServerInternalFlags(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef service = mc.ServiceByName(call.args[0]);
  if (service.code != MR_SUCCESS) {
    return service.code;
  }
  int64_t dfgen = 0;
  int64_t dfcheck = 0;
  int64_t inprogress = 0;
  int64_t harderr = 0;
  if (int32_t code = RequireInt(call.args[1], &dfgen); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[2], &dfcheck); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireBool(call.args[3], &inprogress); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[4], &harderr); code != MR_SUCCESS) {
    return code;
  }
  Table* servers = mc.servers();
  MoiraContext::SetCellInternal(servers, service.row, "dfgen", Value(dfgen));
  MoiraContext::SetCellInternal(servers, service.row, "dfcheck", Value(dfcheck));
  MoiraContext::SetCellInternal(servers, service.row, "inprogress", Value(inprogress));
  MoiraContext::SetCellInternal(servers, service.row, "harderror", Value(harderr));
  MoiraContext::SetCellInternal(servers, service.row, "errmsg", Value(call.args[5]));
  // The service modtime is NOT set (paper: modification by the DCM does not
  // count as user modification).
  return MR_SUCCESS;
}

int32_t DeleteServerInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef service = mc.ServiceByName(call.args[0]);
  if (service.code != MR_SUCCESS) {
    return service.code;
  }
  Table* servers = mc.servers();
  if (MoiraContext::IntCell(servers, service.row, "inprogress") != 0) {
    return MR_IN_USE;
  }
  const std::string& name = MoiraContext::StrCell(servers, service.row, "name");
  if (From(mc.serverhosts()).WhereEq("service", Value(name)).Any()) {
    return MR_IN_USE;
  }
  servers->Delete(service.row);
  return MR_SUCCESS;
}

// Resolves a serverhost by exact service + machine names.
int32_t FindServerHost(MoiraContext& mc, std::string_view service_arg,
                       std::string_view machine_arg, size_t* row_out) {
  RowRef service = mc.ServiceByName(service_arg);
  if (service.code != MR_SUCCESS) {
    return service.code;
  }
  RowRef mach = mc.MachineByName(machine_arg);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  std::vector<size_t> rows =
      From(mc.serverhosts())
          .WhereEq("service", Value(MoiraContext::StrCell(mc.servers(), service.row, "name")))
          .WhereEq("mach_id",
                   Value(MoiraContext::IntCell(mc.machine(), mach.row, "mach_id")))
          .Rows();
  if (rows.empty()) {
    return MR_NO_MATCH;
  }
  *row_out = rows[0];
  return MR_SUCCESS;
}

std::string ServerHostMachineName(MoiraContext& mc, const Table* sh, size_t row) {
  int64_t mach_id = MoiraContext::IntCell(sh, row, "mach_id");
  RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(mach_id), MR_MACHINE);
  return mach.code == MR_SUCCESS ? MoiraContext::StrCell(mc.machine(), mach.row, "name")
                                 : "???";
}

int32_t GetServerHostInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const Table* sh = mc.serverhosts();
  const Table* machine = mc.machine();
  std::string service_pattern = ToUpperCopy(call.args[0]);
  std::string machine_pattern = ToUpperCopy(call.args[1]);
  int mname_col = machine->ColumnIndex("name");
  // Join each matching serverhost to its machine row (indexed mach_id probe);
  // the machine-name pattern runs as a planned condition on the join stage.
  From(sh)
      .WhereWild("service", service_pattern)
      .Join(machine, "mach_id", "mach_id")
      .WhereWild("name", machine_pattern)
      .Emit([&](const std::vector<size_t>& rows) {
        size_t row = rows[0];
        call.emit({MoiraContext::StrCell(sh, row, "service"),
                   std::string(machine->Cell(rows[1], mname_col).AsString()),
                   IntStr(sh, row, "enable"), IntStr(sh, row, "override"),
                   IntStr(sh, row, "success"), IntStr(sh, row, "inprogress"),
                   IntStr(sh, row, "hosterror"), MoiraContext::StrCell(sh, row, "hosterrmsg"),
                   IntStr(sh, row, "ltt"), IntStr(sh, row, "lts"), IntStr(sh, row, "value1"),
                   IntStr(sh, row, "value2"), MoiraContext::StrCell(sh, row, "value3"),
                   IntStr(sh, row, "modtime"), MoiraContext::StrCell(sh, row, "modby"),
                   MoiraContext::StrCell(sh, row, "modwith")});
      });
  return MR_SUCCESS;
}

int32_t QualifiedGetServerHost(QueryCall& call) {
  MoiraContext& mc = call.mc;
  int tri[5];
  for (int i = 0; i < 5; ++i) {
    if (int32_t code = RequireTriState(call.args[i + 1], &tri[i]); code != MR_SUCCESS) {
      return code;
    }
  }
  const Table* sh = mc.serverhosts();
  std::string service_pattern = ToUpperCopy(call.args[0]);
  static constexpr const char* kFlagCols[5] = {"enable", "override", "success",
                                               "inprogress", "hosterror"};
  Selector sel = From(sh).WhereWild("service", service_pattern);
  for (int i = 0; i < 5; ++i) {
    WhereTriState(&sel, kFlagCols[i], tri[i]);
  }
  sel.Emit([&](const std::vector<size_t>& rows) {
    call.emit({MoiraContext::StrCell(sh, rows[0], "service"),
               ServerHostMachineName(mc, sh, rows[0])});
  });
  return MR_SUCCESS;
}

int32_t AddServerHostInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef service = mc.ServiceByName(call.args[0]);
  if (service.code != MR_SUCCESS) {
    return service.code;
  }
  RowRef mach = mc.MachineByName(call.args[1]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t enable = 0;
  int64_t value1 = 0;
  int64_t value2 = 0;
  if (int32_t code = RequireBool(call.args[2], &enable); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[3], &value1); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[4], &value2); code != MR_SUCCESS) {
    return code;
  }
  const std::string& service_name = MoiraContext::StrCell(mc.servers(), service.row, "name");
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  Table* sh = mc.serverhosts();
  if (From(sh)
          .WhereEq("service", Value(service_name))
          .WhereEq("mach_id", Value(mach_id))
          .Any()) {
    return MR_EXISTS;
  }
  size_t row = sh->Append({
      Value(service_name), Value(mach_id), Value(enable), Value(int64_t{0}) /* override */,
      Value(int64_t{0}) /* success */, Value(int64_t{0}) /* inprogress */,
      Value(int64_t{0}) /* hosterror */, Value("") /* hosterrmsg */, Value(int64_t{0}),
      Value(int64_t{0}), Value(int64_t{0}) /* consec_soft */,
      Value(int64_t{0}) /* breaker */, Value(int64_t{0}) /* breaker_until */,
      Value(int64_t{0}) /* breaker_opens */, Value(value1), Value(value2),
      Value(call.args[5]), Value(int64_t{0}), Value(""), Value(""),
  });
  mc.Stamp(sh, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateServerHostInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  if (int32_t code = FindServerHost(mc, call.args[0], call.args[1], &row);
      code != MR_SUCCESS) {
    return code;
  }
  Table* sh = mc.serverhosts();
  if (MoiraContext::IntCell(sh, row, "inprogress") != 0) {
    return MR_IN_USE;
  }
  int64_t enable = 0;
  int64_t value1 = 0;
  int64_t value2 = 0;
  if (int32_t code = RequireBool(call.args[2], &enable); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[3], &value1); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[4], &value2); code != MR_SUCCESS) {
    return code;
  }
  MoiraContext::SetCell(sh, row, "enable", Value(enable));
  MoiraContext::SetCell(sh, row, "value1", Value(value1));
  MoiraContext::SetCell(sh, row, "value2", Value(value2));
  MoiraContext::SetCell(sh, row, "value3", Value(call.args[5]));
  mc.Stamp(sh, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t ResetServerHostError(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  if (int32_t code = FindServerHost(mc, call.args[0], call.args[1], &row);
      code != MR_SUCCESS) {
    return code;
  }
  Table* sh = mc.serverhosts();
  MoiraContext::SetCell(sh, row, "hosterror", Value(int64_t{0}));
  MoiraContext::SetCell(sh, row, "hosterrmsg", Value(""));
  // An operator reset also forgives the circuit breaker: the host re-enters
  // the rotation immediately instead of waiting out a cool-down.
  MoiraContext::SetCell(sh, row, "consec_soft", Value(int64_t{0}));
  MoiraContext::SetCell(sh, row, "breaker", Value(int64_t{0}));
  MoiraContext::SetCell(sh, row, "breaker_until", Value(int64_t{0}));
  mc.Stamp(sh, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t SetServerHostOverride(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  if (int32_t code = FindServerHost(mc, call.args[0], call.args[1], &row);
      code != MR_SUCCESS) {
    return code;
  }
  Table* sh = mc.serverhosts();
  MoiraContext::SetCell(sh, row, "override", Value(int64_t{1}));
  mc.Stamp(sh, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t SetServerHostInternal(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  if (int32_t code = FindServerHost(mc, call.args[0], call.args[1], &row);
      code != MR_SUCCESS) {
    return code;
  }
  int64_t override_flag = 0;
  int64_t success = 0;
  int64_t inprogress = 0;
  int64_t hosterror = 0;
  int64_t lasttry = 0;
  int64_t lastsuccess = 0;
  if (int32_t code = RequireBool(call.args[2], &override_flag); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireBool(call.args[3], &success); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireBool(call.args[4], &inprogress); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[5], &hosterror); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[7], &lasttry); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[8], &lastsuccess); code != MR_SUCCESS) {
    return code;
  }
  Table* sh = mc.serverhosts();
  MoiraContext::SetCellInternal(sh, row, "override", Value(override_flag));
  MoiraContext::SetCellInternal(sh, row, "success", Value(success));
  MoiraContext::SetCellInternal(sh, row, "inprogress", Value(inprogress));
  MoiraContext::SetCellInternal(sh, row, "hosterror", Value(hosterror));
  MoiraContext::SetCellInternal(sh, row, "hosterrmsg", Value(call.args[6]));
  MoiraContext::SetCellInternal(sh, row, "ltt", Value(lasttry));
  MoiraContext::SetCellInternal(sh, row, "lts", Value(lastsuccess));
  // modtime NOT set: DCM-internal modification.
  return MR_SUCCESS;
}

int32_t DeleteServerHostInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  if (int32_t code = FindServerHost(mc, call.args[0], call.args[1], &row);
      code != MR_SUCCESS) {
    return code;
  }
  Table* sh = mc.serverhosts();
  if (MoiraContext::IntCell(sh, row, "inprogress") != 0) {
    return MR_IN_USE;
  }
  sh->Delete(row);
  return MR_SUCCESS;
}

// Per-host resilience state: breaker position, consecutive soft failures,
// cool-down expiry, lifetime quarantine count, and the last try/success
// timestamps.  Privileged (dbadmin via CAPACLS, not world_ok): it exposes
// fleet health, which is operator material, not user material.
int32_t GetServerHostHealth(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const Table* sh = mc.serverhosts();
  From(sh).Emit([&](const std::vector<size_t>& rows) {
    size_t row = rows[0];
    int64_t breaker = MoiraContext::IntCell(sh, row, "breaker");
    const char* state = breaker == 1 ? "OPEN" : breaker == 2 ? "HALF-OPEN" : "CLOSED";
    call.emit({MoiraContext::StrCell(sh, row, "service"),
               ServerHostMachineName(mc, sh, row), state,
               IntStr(sh, row, "consec_soft"), IntStr(sh, row, "breaker_until"),
               IntStr(sh, row, "breaker_opens"), IntStr(sh, row, "hosterror"),
               IntStr(sh, row, "ltt"), IntStr(sh, row, "lts")});
  });
  return MR_SUCCESS;
}

int32_t GetServerLocations(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const Table* sh = mc.serverhosts();
  std::string pattern = ToUpperCopy(call.args[0]);
  From(sh).WhereWild("service", pattern).Emit([&](const std::vector<size_t>& rows) {
    call.emit({MoiraContext::StrCell(sh, rows[0], "service"),
               ServerHostMachineName(mc, sh, rows[0])});
  });
  return MR_SUCCESS;
}

}  // namespace

void AppendServerQueries(std::vector<QueryDef>* defs) {
  defs->insert(
      defs->end(),
      {
          {"get_server_info", "gsin", QueryClass::kRetrieve, 1, false, "name",
           "service, interval, target, script, dfgen, dfcheck, type, enable, inprogress, "
           "harderror, errmsg, ace_type, ace_name, modtime, modby, modwith",
           SelfOnServiceAce, GetServerInfo},
          {"qualified_get_server", "qgsv", QueryClass::kRetrieve, 3, false,
           "enable, inprogress, harderror", "service", nullptr, QualifiedGetServer},
          {"add_server_info", "asin", QueryClass::kAppend, 8, false,
           "service, interval, target, script, type, enable, ace_type, ace_name", "",
           nullptr, AddServerInfo},
          {"update_server_info", "usin", QueryClass::kUpdate, 8, false,
           "service, interval, target, script, type, enable, ace_type, ace_name", "",
           SelfOnServiceAce, UpdateServerInfo},
          {"reset_server_error", "rsve", QueryClass::kUpdate, 1, false, "service", "",
           SelfOnServiceAce, ResetServerError},
          {"set_server_internal_flags", "ssif", QueryClass::kUpdate, 6, false,
           "service, dfgen, dfcheck, inprogress, harderror, errmsg", "", nullptr,
           SetServerInternalFlags},
          {"delete_server_info", "dsin", QueryClass::kDelete, 1, false, "service", "",
           nullptr, DeleteServerInfo},
          {"get_server_host_info", "gshi", QueryClass::kRetrieve, 2, false,
           "service, machine",
           "service, machine, enable, override, success, inprogress, hosterror, errmsg, "
           "lasttry, lastsuccess, value1, value2, value3, modtime, modby, modwith",
           SelfOnServiceAce, GetServerHostInfo},
          {"qualified_get_server_host", "qgsh", QueryClass::kRetrieve, 6, false,
           "service, enable, override, success, inprogress, hosterror", "service, machine",
           nullptr, QualifiedGetServerHost},
          {"add_server_host_info", "ashi", QueryClass::kAppend, 6, false,
           "service, machine, enable, value1, value2, value3", "", SelfOnServiceAce,
           AddServerHostInfo},
          {"update_server_host_info", "ushi", QueryClass::kUpdate, 6, false,
           "service, machine, enable, value1, value2, value3", "", SelfOnServiceAce,
           UpdateServerHostInfo},
          {"reset_server_host_error", "rshe", QueryClass::kUpdate, 2, false,
           "service, machine", "", SelfOnServiceAce, ResetServerHostError},
          {"set_server_host_override", "ssho", QueryClass::kUpdate, 2, false,
           "service, machine", "", SelfOnServiceAce, SetServerHostOverride},
          {"set_server_host_internal", "sshi", QueryClass::kUpdate, 9, false,
           "service, machine, override, success, inprogress, hosterror, errmsg, lasttry, "
           "lastsuccess",
           "", nullptr, SetServerHostInternal},
          {"delete_server_host_info", "dshi", QueryClass::kDelete, 2, false,
           "service, machine", "", SelfOnServiceAce, DeleteServerHostInfo},
          {"get_server_locations", "gslo", QueryClass::kRetrieve, 1, true, "service",
           "service, machine", nullptr, GetServerLocations},
          {"get_server_host_health", "gshh", QueryClass::kRetrieve, 0, false, "",
           "service, machine, breaker, consec_soft, breaker_until, breaker_opens, "
           "hosterror, lasttry, lastsuccess",
           nullptr, GetServerHostHealth},
      });
}

}  // namespace moira
