// The predefined-query registry (paper section 7).
//
// All access to the database is through a limited set of predefined, named
// queries in four classes: retrieve, update, delete, and append.  Each query
// has a long name, a four-character short name (its CAPACLS tag), an argument
// signature, an access rule, and a handler.  The registry is the single
// dispatch point used by the Moira server, the DCM's direct "glue" library,
// and the applications.
#ifndef MOIRA_SRC_CORE_REGISTRY_H_
#define MOIRA_SRC_CORE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/context.h"

namespace moira {

enum class QueryClass { kRetrieve, kAppend, kUpdate, kDelete };

std::string_view QueryClassName(QueryClass qclass);

// One returned tuple: the fields, as strings, in the documented order.
using Tuple = std::vector<std::string>;
using TupleSink = std::function<void(Tuple)>;

// Everything a query handler sees for one call.
struct QueryCall {
  MoiraContext& mc;
  std::string_view principal;    // authenticated identity ("" if none)
  std::string_view client_name;  // application name, recorded in modwith
  const std::vector<std::string>& args;
  const TupleSink& emit;
  // True when the caller is "root" or on the query's CAPACLS list.  Several
  // queries behave differently for privileged callers (e.g. wildcards in
  // get_list_info, full retrieval in get_user_by_login).
  bool privileged = false;
};

using QueryHandler = int32_t (*)(QueryCall&);

// Per-query self-access rule: may this (non-privileged) principal run the
// query with these args?  E.g. a user may update their own shell.
using SelfAccessHook = bool (*)(MoiraContext&, std::string_view principal,
                                const std::vector<std::string>& args);

struct QueryDef {
  const char* name;       // long name, e.g. "get_user_by_login"
  const char* shortname;  // 4-character tag, e.g. "gubl"
  QueryClass qclass;
  int argc;               // exact argument count; -1 = variable
  bool world_ok;          // safe with no access control at all
  const char* argspec;    // human-readable, for _help
  const char* retspec;    // human-readable, for _help
  SelfAccessHook self_access;  // optional
  QueryHandler handler;
};

class QueryRegistry {
 public:
  // The process-wide registry of every predefined query.
  static const QueryRegistry& Instance();

  // Finds a query by long or short name; nullptr if unknown.
  const QueryDef* Find(std::string_view name) const;

  const std::vector<QueryDef>& All() const { return defs_; }

  // Appends one CAPACLS row per query pointing at `acl_list` ("usually the
  // full name of a query" as capability, short name as tag).  World queries
  // get a row too: it marks the list's members privileged there, which is
  // how administrators see hidden lists through get_list_info and
  // get_members_of_list.
  void SeedCapacls(MoiraContext& mc, std::string_view acl_list_name) const;

  // Access check only — the "Access" major request (paper section 5.3).
  int32_t CheckAccess(MoiraContext& mc, std::string_view principal,
                      std::string_view query, const std::vector<std::string>& args) const;

  // Checks access, validates arguments, and runs the query.  Retrieval
  // queries that match nothing return MR_NO_MATCH.
  int32_t Execute(MoiraContext& mc, std::string_view principal,
                  std::string_view client_name, std::string_view query,
                  const std::vector<std::string>& args, const TupleSink& emit) const;

 private:
  QueryRegistry();

  // Returns MR_SUCCESS and sets *privileged, or an error.
  int32_t Authorize(MoiraContext& mc, const QueryDef& def, std::string_view principal,
                    const std::vector<std::string>& args, bool* privileged) const;

  std::vector<QueryDef> defs_;
};

// Module registration hooks (each queries_*.cc contributes its queries).
void AppendUserQueries(std::vector<QueryDef>* defs);
void AppendMachineQueries(std::vector<QueryDef>* defs);
void AppendListQueries(std::vector<QueryDef>* defs);
void AppendServerQueries(std::vector<QueryDef>* defs);
void AppendFilesysQueries(std::vector<QueryDef>* defs);
void AppendMiscQueries(std::vector<QueryDef>* defs);
void AppendQuotaQueries(std::vector<QueryDef>* defs);

}  // namespace moira

#endif  // MOIRA_SRC_CORE_REGISTRY_H_
