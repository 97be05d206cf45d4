#include "src/core/registry.h"

#include "src/core/acl.h"

namespace moira {

std::string_view QueryClassName(QueryClass qclass) {
  switch (qclass) {
    case QueryClass::kRetrieve:
      return "retrieve";
    case QueryClass::kAppend:
      return "append";
    case QueryClass::kUpdate:
      return "update";
    case QueryClass::kDelete:
      return "delete";
  }
  return "?";
}

QueryRegistry::QueryRegistry() {
  AppendUserQueries(&defs_);
  AppendMachineQueries(&defs_);
  AppendListQueries(&defs_);
  AppendServerQueries(&defs_);
  AppendFilesysQueries(&defs_);
  AppendMiscQueries(&defs_);
  AppendQuotaQueries(&defs_);
}

const QueryRegistry& QueryRegistry::Instance() {
  static const QueryRegistry* registry = new QueryRegistry;
  return *registry;
}

const QueryDef* QueryRegistry::Find(std::string_view name) const {
  for (const QueryDef& def : defs_) {
    if (name == def.name || name == def.shortname) {
      return &def;
    }
  }
  return nullptr;
}

void QueryRegistry::SeedCapacls(MoiraContext& mc, std::string_view acl_list_name) const {
  RowRef list = mc.ListByName(acl_list_name);
  if (list.code != MR_SUCCESS) {
    return;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  Table* capacls = mc.capacls();
  for (const QueryDef& def : defs_) {
    capacls->Append({def.name, def.shortname, list_id});
  }
}

int32_t QueryRegistry::Authorize(MoiraContext& mc, const QueryDef& def,
                                 std::string_view principal,
                                 const std::vector<std::string>& args,
                                 bool* privileged) const {
  *privileged = false;
  // The DCM and backup programs authenticate as root and bypass ACLs (paper
  // section 5.7.1: the DCM "connects to the database and authenticates as
  // root").
  if (principal == "root") {
    *privileged = true;
    return MR_SUCCESS;
  }
  if (PrincipalOnCapability(mc, principal, def.name)) {
    *privileged = true;
    return MR_SUCCESS;
  }
  if (def.world_ok) {
    return MR_SUCCESS;
  }
  if (def.self_access != nullptr && !principal.empty() &&
      def.self_access(mc, principal, args)) {
    return MR_SUCCESS;
  }
  return MR_PERM;
}

int32_t QueryRegistry::CheckAccess(MoiraContext& mc, std::string_view principal,
                                   std::string_view query,
                                   const std::vector<std::string>& args) const {
  const QueryDef* def = Find(query);
  if (def == nullptr) {
    return MR_NO_HANDLE;
  }
  if (def->argc >= 0 && static_cast<int>(args.size()) != def->argc) {
    return MR_ARGS;
  }
  bool privileged = false;
  return Authorize(mc, *def, principal, args, &privileged);
}

int32_t QueryRegistry::Execute(MoiraContext& mc, std::string_view principal,
                               std::string_view client_name, std::string_view query,
                               const std::vector<std::string>& args,
                               const TupleSink& emit) const {
  const QueryDef* def = Find(query);
  if (def == nullptr) {
    return MR_NO_HANDLE;
  }
  if (def->argc >= 0 && static_cast<int>(args.size()) != def->argc) {
    return MR_ARGS;
  }
  bool privileged = false;
  if (int32_t code = Authorize(mc, *def, principal, args, &privileged);
      code != MR_SUCCESS) {
    return code;
  }
  size_t emitted = 0;
  TupleSink counting = [&](Tuple tuple) {
    ++emitted;
    emit(std::move(tuple));
  };
  QueryCall call{mc, principal, client_name, args, counting, privileged};
  int32_t code = def->handler(call);
  if (code == MR_SUCCESS && def->qclass == QueryClass::kRetrieve && emitted == 0) {
    return MR_NO_MATCH;
  }
  return code;
}

}  // namespace moira
