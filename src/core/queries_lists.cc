// List queries (paper section 7.0.3): general-purpose grouping of objects,
// used for mailing lists, unix groups, and access control.
#include <algorithm>
#include <iterator>
#include <set>

#include "src/core/queries_common.h"

namespace moira {
namespace {

// Resolves a member (type, name) pair to its id: a users_id, list_id, or
// string id.  STRING members are interned on `intern` (adds) or looked up
// only (deletes).
int32_t ResolveMember(MoiraContext& mc, std::string_view type, std::string_view name,
                      bool intern, int64_t* id_out) {
  if (type == "USER") {
    RowRef user = mc.UserByLogin(name);
    if (user.code != MR_SUCCESS) {
      return MR_NO_MATCH;
    }
    *id_out = MoiraContext::IntCell(mc.users(), user.row, "users_id");
    return MR_SUCCESS;
  }
  if (type == "LIST") {
    RowRef list = mc.ListByName(name);
    if (list.code != MR_SUCCESS) {
      return MR_NO_MATCH;
    }
    *id_out = MoiraContext::IntCell(mc.list(), list.row, "list_id");
    return MR_SUCCESS;
  }
  if (type == "STRING") {
    if (intern) {
      int64_t id = mc.InternString(name);
      if (id < 0) {
        return MR_NO_ID;
      }
      *id_out = id;
      return MR_SUCCESS;
    }
    std::optional<int64_t> id = mc.LookupString(name);
    if (!id.has_value()) {
      return MR_NO_MATCH;
    }
    *id_out = *id;
    return MR_SUCCESS;
  }
  return MR_TYPE;
}

// Renders a member id back to its display name.
std::string MemberName(MoiraContext& mc, std::string_view type, int64_t id) {
  if (type == "USER") {
    RowRef user = mc.ExactOne(mc.users(), "users_id", Value(id), MR_USER);
    return user.code == MR_SUCCESS ? MoiraContext::StrCell(mc.users(), user.row, "login")
                                   : "???";
  }
  if (type == "LIST") {
    RowRef list = mc.ListById(id);
    return list.code == MR_SUCCESS ? MoiraContext::StrCell(mc.list(), list.row, "name")
                                   : "???";
  }
  return mc.StringById(id);
}

Tuple ListInfoTuple(MoiraContext& mc, size_t row) {
  const Table* list = mc.list();
  return {MoiraContext::StrCell(list, row, "name"),
          IntStr(list, row, "active"),
          IntStr(list, row, "public"),
          IntStr(list, row, "hidden"),
          IntStr(list, row, "maillist"),
          IntStr(list, row, "grouplist"),
          IntStr(list, row, "gid"),
          MoiraContext::StrCell(list, row, "acl_type"),
          mc.AceName(MoiraContext::StrCell(list, row, "acl_type"),
                     MoiraContext::IntCell(list, row, "acl_id")),
          MoiraContext::StrCell(list, row, "desc"),
          IntStr(list, row, "modtime"),
          MoiraContext::StrCell(list, row, "modby"),
          MoiraContext::StrCell(list, row, "modwith")};
}

// True if the principal may see a hidden list: on its ACE or privileged.
bool MaySeeList(QueryCall& call, size_t row) {
  const Table* list = call.mc.list();
  if (MoiraContext::IntCell(list, row, "hidden") == 0 || call.privileged) {
    return true;
  }
  int64_t users_id = PrincipalUserId(call.mc, call.principal);
  return UserMatchesAce(call.mc, users_id, MoiraContext::StrCell(list, row, "acl_type"),
                        MoiraContext::IntCell(list, row, "acl_id"));
}

int32_t GetListInfo(QueryCall& call) {
  MoiraContext& mc = call.mc;
  if (HasWildcard(call.args[0]) && !call.privileged) {
    return MR_PERM;
  }
  Table* list = mc.list();
  From(list)
      .WhereWild("name", call.args[0])
      .Filter([&](const Table&, size_t row) { return MaySeeList(call, row); })
      .Emit([&](const std::vector<size_t>& rows) { call.emit(ListInfoTuple(mc, rows[0])); });
  return MR_SUCCESS;
}

int32_t ExpandListNames(QueryCall& call) {
  const Table* list = call.mc.list();
  From(list)
      .WhereWild("name", call.args[0])
      .Filter([&](const Table&, size_t row) { return MaySeeList(call, row); })
      .Emit([&](const std::vector<size_t>& rows) {
        call.emit({MoiraContext::StrCell(list, rows[0], "name")});
      });
  return MR_SUCCESS;
}

// Parses the five list flags from args[first..first+4].
int32_t ParseListFlags(const std::vector<std::string>& args, size_t first, int64_t out[5]) {
  for (int i = 0; i < 5; ++i) {
    if (int32_t code = RequireBool(args[first + i], &out[i]); code != MR_SUCCESS) {
      return code;
    }
  }
  return MR_SUCCESS;
}

int32_t AddList(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const std::string& name = call.args[0];
  if (int32_t code = RequireLegalChars(name); code != MR_SUCCESS) {
    return code;
  }
  if (mc.ListByName(name).code == MR_SUCCESS) {
    return MR_EXISTS;
  }
  int64_t flags[5];
  if (int32_t code = ParseListFlags(call.args, 1, flags); code != MR_SUCCESS) {
    return code;
  }
  int64_t gid = 0;
  if (int32_t code = RequireInt(call.args[6], &gid); code != MR_SUCCESS) {
    return code;
  }
  const std::string& ace_type = call.args[7];
  const std::string& ace_name = call.args[8];
  int64_t list_id = 0;
  if (int32_t code = mc.AllocateId("list_id", mc.list(), "list_id", &list_id);
      code != MR_SUCCESS) {
    return code;
  }
  int64_t ace_id = 0;
  // The access list may be the list being created (self-referential).
  if (ace_type == "LIST" && ace_name == name) {
    ace_id = list_id;
  } else if (int32_t code = mc.ResolveAce(ace_type, ace_name, &ace_id); code != MR_SUCCESS) {
    return code;
  }
  if (flags[4] != 0 && gid == kUniqueGid) {
    if (int32_t code = mc.AllocateId("gid", mc.list(), "gid", &gid); code != MR_SUCCESS) {
      return code;
    }
  }
  size_t row = mc.list()->Append({Value(name), Value(list_id), Value(flags[0]),
                                  Value(flags[1]), Value(flags[2]), Value(flags[3]),
                                  Value(flags[4]), Value(gid), Value(call.args[9]),
                                  Value(ace_type), Value(ace_id), Value(int64_t{0}),
                                  Value(""), Value("")});
  mc.Stamp(mc.list(), row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateList(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef list = mc.ListByName(call.args[0]);
  if (list.code != MR_SUCCESS) {
    return list.code;
  }
  const std::string& newname = call.args[1];
  if (int32_t code = RequireLegalChars(newname); code != MR_SUCCESS) {
    return code;
  }
  if (newname != call.args[0] && mc.ListByName(newname).code == MR_SUCCESS) {
    return MR_NOT_UNIQUE;
  }
  int64_t flags[5];
  if (int32_t code = ParseListFlags(call.args, 2, flags); code != MR_SUCCESS) {
    return code;
  }
  int64_t gid = 0;
  if (int32_t code = RequireInt(call.args[7], &gid); code != MR_SUCCESS) {
    return code;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  int64_t ace_id = 0;
  if (call.args[8] == "LIST" && newname == call.args[9]) {
    ace_id = list_id;
  } else if (int32_t code = mc.ResolveAce(call.args[8], call.args[9], &ace_id);
             code != MR_SUCCESS) {
    return code;
  }
  if (flags[4] != 0 && gid == kUniqueGid) {
    if (int32_t code = mc.AllocateId("gid", mc.list(), "gid", &gid); code != MR_SUCCESS) {
      return code;
    }
  }
  Table* table = mc.list();
  MoiraContext::SetCell(table, list.row, "name", Value(newname));
  MoiraContext::SetCell(table, list.row, "active", Value(flags[0]));
  MoiraContext::SetCell(table, list.row, "public", Value(flags[1]));
  MoiraContext::SetCell(table, list.row, "hidden", Value(flags[2]));
  MoiraContext::SetCell(table, list.row, "maillist", Value(flags[3]));
  MoiraContext::SetCell(table, list.row, "grouplist", Value(flags[4]));
  MoiraContext::SetCell(table, list.row, "gid", Value(gid));
  MoiraContext::SetCell(table, list.row, "acl_type", Value(call.args[8]));
  MoiraContext::SetCell(table, list.row, "acl_id", Value(ace_id));
  MoiraContext::SetCell(table, list.row, "desc", Value(call.args[10]));
  mc.Stamp(table, list.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

// True if the list is referenced: as a member of another list, or as an ACE
// anywhere, or as a filesystem owners group, or a CAPACLS target.
bool ListIsReferenced(MoiraContext& mc, int64_t list_id) {
  // Membership in another list (member_id is indexed).
  if (From(mc.members())
          .WhereEq("member_type", Value("LIST"))
          .WhereEq("member_id", Value(list_id))
          .Any()) {
    return true;
  }
  auto ace_ref = [&](Table* table, const char* tname, const char* iname) {
    return From(table)
        .WhereEq(tname, Value("LIST"))
        .WhereEq(iname, Value(list_id))
        .Any();
  };
  if (ace_ref(mc.servers(), "acl_type", "acl_id") ||
      ace_ref(mc.hostaccess(), "acl_type", "acl_id") ||
      ace_ref(mc.zephyr(), "xmt_type", "xmt_id") || ace_ref(mc.zephyr(), "sub_type", "sub_id") ||
      ace_ref(mc.zephyr(), "iws_type", "iws_id") || ace_ref(mc.zephyr(), "iui_type", "iui_id")) {
    return true;
  }
  // Another list's ACE (not counting the list itself, which may be
  // self-referential).
  if (From(mc.list())
          .WhereEq("acl_type", Value("LIST"))
          .WhereEq("acl_id", Value(list_id))
          .WhereNe("list_id", Value(list_id))
          .Any()) {
    return true;
  }
  if (From(mc.filesys()).WhereEq("owners", Value(list_id)).Any()) {
    return true;
  }
  return From(mc.capacls()).WhereEq("list_id", Value(list_id)).Any();
}

int32_t DeleteList(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef list = mc.ListByName(call.args[0]);
  if (list.code != MR_SUCCESS) {
    return list.code;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  if (From(mc.members()).WhereEq("list_id", Value(list_id)).Any()) {
    return MR_IN_USE;  // the list itself must be empty
  }
  if (ListIsReferenced(mc, list_id)) {
    return MR_IN_USE;
  }
  mc.list()->Delete(list.row);
  return MR_SUCCESS;
}

// Self-access for membership changes: anyone may add/delete themselves as a
// USER member of a public list.
bool SelfPublicListMember(MoiraContext& mc, std::string_view principal,
                          const std::vector<std::string>& args) {
  if (args.size() != 3 || args[1] != "USER" || args[2] != principal) {
    return SelfOnListAce(mc, principal, args);
  }
  RowRef list = mc.ListByName(args[0]);
  if (list.code != MR_SUCCESS) {
    return false;
  }
  if (MoiraContext::IntCell(mc.list(), list.row, "public") != 0) {
    return true;
  }
  return SelfOnListAce(mc, principal, args);
}

int32_t AddMemberToList(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef list = mc.ListByName(call.args[0]);
  if (list.code != MR_SUCCESS) {
    return list.code;
  }
  int64_t member_id = 0;
  if (int32_t code =
          ResolveMember(mc, call.args[1], call.args[2], /*intern=*/true, &member_id);
      code != MR_SUCCESS) {
    return code;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  Table* members = mc.members();
  if (From(members)
          .WhereEq("list_id", Value(list_id))
          .WhereEq("member_type", Value(call.args[1]))
          .WhereEq("member_id", Value(member_id))
          .Any()) {
    return MR_EXISTS;
  }
  members->Append({Value(list_id), Value(call.args[1]), Value(member_id)});
  mc.Stamp(mc.list(), list.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t DeleteMemberFromList(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef list = mc.ListByName(call.args[0]);
  if (list.code != MR_SUCCESS) {
    return list.code;
  }
  int64_t member_id = 0;
  if (int32_t code =
          ResolveMember(mc, call.args[1], call.args[2], /*intern=*/false, &member_id);
      code != MR_SUCCESS) {
    return code;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  Table* members = mc.members();
  std::vector<size_t> rows = From(members)
                                 .WhereEq("list_id", Value(list_id))
                                 .WhereEq("member_type", Value(call.args[1]))
                                 .WhereEq("member_id", Value(member_id))
                                 .Rows();
  if (rows.empty()) {
    return MR_NO_MATCH;
  }
  for (size_t row : rows) {
    members->Delete(row);
  }
  mc.Stamp(mc.list(), list.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

// Collects the set of (USER,id)/(LIST,id) entities matched by an ace_type of
// USER/LIST/RUSER/RLIST: the recursive forms include every list the target is
// a (transitive) member of.
int32_t CollectAceEntities(MoiraContext& mc, std::string_view ace_type,
                           std::string_view ace_name,
                           std::set<std::pair<std::string, int64_t>>* out) {
  bool recursive = ace_type == "RUSER" || ace_type == "RLIST";
  bool is_user = ace_type == "USER" || ace_type == "RUSER";
  bool is_list = ace_type == "LIST" || ace_type == "RLIST";
  if (!is_user && !is_list) {
    return MR_TYPE;
  }
  int64_t base_id = 0;
  if (is_user) {
    RowRef user = mc.UserByLogin(ace_name);
    if (user.code != MR_SUCCESS) {
      return MR_NO_MATCH;
    }
    base_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
    out->emplace("USER", base_id);
  } else {
    RowRef list = mc.ListByName(ace_name);
    if (list.code != MR_SUCCESS) {
      return MR_NO_MATCH;
    }
    base_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
    out->emplace("LIST", base_id);
  }
  if (!recursive) {
    return MR_SUCCESS;
  }
  // Every list transitively containing the base entity is collected as a
  // LIST entity; the closure cache memoizes the fixed point against the
  // members-table version, so repeated expansions are a map lookup.
  for (int64_t id : mc.ContainingListClosure(is_user ? "USER" : "LIST", base_id)) {
    out->emplace("LIST", id);
  }
  return MR_SUCCESS;
}

int32_t GetAceUse(QueryCall& call) {
  MoiraContext& mc = call.mc;
  std::set<std::pair<std::string, int64_t>> entities;
  if (int32_t code = CollectAceEntities(mc, call.args[0], call.args[1], &entities);
      code != MR_SUCCESS) {
    return code;
  }
  // The entity set splits by type into two sorted id vectors, which drive
  // typed WhereEq(type) + WhereIn(ids) probes.  A row references at most one
  // ace, so the per-type row sets are disjoint; merging the sorted Rows()
  // results reproduces the old whole-table Filter scan's storage order.
  std::vector<Value> user_ids;
  std::vector<Value> list_ids;
  for (const auto& [type, id] : entities) {
    (type == "USER" ? user_ids : list_ids).emplace_back(id);
  }
  auto merged_rows = [](std::vector<size_t> a, const std::vector<size_t>& b) {
    std::vector<size_t> out;
    out.reserve(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  auto typed_rows = [&](Table* table, const char* tname, const char* iname) {
    auto branch = [&](const char* type, const std::vector<Value>& ids) {
      return ids.empty()
                 ? std::vector<size_t>()
                 : From(table).WhereEq(tname, Value(type)).WhereIn(iname, ids).Rows();
    };
    return merged_rows(branch("USER", user_ids), branch("LIST", list_ids));
  };
  auto scan_ace = [&](Table* table, const char* tname, const char* iname,
                      const char* obj_type, const char* name_col) {
    for (size_t row : typed_rows(table, tname, iname)) {
      call.emit({obj_type, MoiraContext::StrCell(table, row, name_col)});
    }
  };
  scan_ace(mc.list(), "acl_type", "acl_id", "LIST", "name");
  scan_ace(mc.servers(), "acl_type", "acl_id", "SERVICE", "name");
  scan_ace(mc.zephyr(), "xmt_type", "xmt_id", "ZEPHYR", "class");
  scan_ace(mc.zephyr(), "sub_type", "sub_id", "ZEPHYR", "class");
  scan_ace(mc.zephyr(), "iws_type", "iws_id", "ZEPHYR", "class");
  scan_ace(mc.zephyr(), "iui_type", "iui_id", "ZEPHYR", "class");
  // Filesystems: owner is a USER ace, owners a LIST ace.  The disjunction is
  // the union of two typed probes; here a row can match both branches, so the
  // merge's dedup matters.
  Table* filesys = mc.filesys();
  for (size_t row : merged_rows(
           user_ids.empty() ? std::vector<size_t>()
                            : From(filesys).WhereIn("owner", user_ids).Rows(),
           list_ids.empty() ? std::vector<size_t>()
                            : From(filesys).WhereIn("owners", list_ids).Rows())) {
    call.emit({"FILESYS", MoiraContext::StrCell(filesys, row, "label")});
  }
  // Hostaccess.
  Table* hostaccess = mc.hostaccess();
  for (size_t row : typed_rows(hostaccess, "acl_type", "acl_id")) {
    int64_t mach_id = MoiraContext::IntCell(hostaccess, row, "mach_id");
    RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(mach_id), MR_MACHINE);
    call.emit({"HOSTACCESS", mach.code == MR_SUCCESS
                                 ? MoiraContext::StrCell(mc.machine(), mach.row, "name")
                                 : "???"});
  }
  // Queries (CAPACLS): only LIST entities appear there.
  if (!list_ids.empty()) {
    Table* capacls = mc.capacls();
    for (size_t row : From(capacls).WhereIn("list_id", list_ids).Rows()) {
      call.emit({"QUERY", MoiraContext::StrCell(capacls, row, "capability")});
    }
  }
  return MR_SUCCESS;
}

int32_t QualifiedGetLists(QueryCall& call) {
  int tri[5];
  for (int i = 0; i < 5; ++i) {
    if (int32_t code = RequireTriState(call.args[i], &tri[i]); code != MR_SUCCESS) {
      return code;
    }
  }
  const Table* list = call.mc.list();
  static constexpr const char* kFlagCols[5] = {"active", "public", "hidden", "maillist",
                                               "grouplist"};
  Selector sel = From(list);
  for (int i = 0; i < 5; ++i) {
    WhereTriState(&sel, kFlagCols[i], tri[i]);
  }
  sel.Emit([&](const std::vector<size_t>& rows) {
    call.emit({MoiraContext::StrCell(list, rows[0], "name")});
  });
  return MR_SUCCESS;
}

int32_t GetMembersOfList(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef list = mc.ListByName(call.args[0]);
  if (list.code != MR_SUCCESS) {
    return list.code;
  }
  if (!MaySeeList(call, list.row)) {
    return MR_PERM;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  Table* members = mc.members();
  int type_col = members->ColumnIndex("member_type");
  int id_col = members->ColumnIndex("member_id");
  From(members).WhereEq("list_id", Value(list_id)).Emit([&](const std::vector<size_t>& rows) {
    std::string type(members->Cell(rows[0], type_col).AsString());
    call.emit({type, MemberName(mc, type, members->Cell(rows[0], id_col).AsInt())});
  });
  return MR_SUCCESS;
}

int32_t GetListsOfMember(QueryCall& call) {
  MoiraContext& mc = call.mc;
  std::string type(call.args[0]);
  bool recursive = false;
  if (type.size() > 1 && type[0] == 'R') {
    recursive = true;
    type = type.substr(1);
  }
  if (type != "USER" && type != "LIST" && type != "STRING") {
    return MR_TYPE;
  }
  int64_t member_id = 0;
  if (int32_t code = ResolveMember(mc, type, call.args[1], /*intern=*/false, &member_id);
      code != MR_SUCCESS) {
    return code;
  }
  // Direct containing lists come from an indexed member_id probe; the
  // recursive form is the memoized transitive closure (invalidated whenever
  // the members relation changes), so repeated expansions of a stable
  // membership graph cost one cache lookup.
  std::set<int64_t> containing;
  if (recursive) {
    const std::vector<int64_t>& closure = mc.ContainingListClosure(type, member_id);
    containing.insert(closure.begin(), closure.end());
  } else {
    Table* members = mc.members();
    int list_col = members->ColumnIndex("list_id");
    From(members)
        .WhereEq("member_type", Value(type))
        .WhereEq("member_id", Value(member_id))
        .Emit([&](const std::vector<size_t>& rows) {
          containing.insert(members->Cell(rows[0], list_col).AsInt());
        });
  }
  const Table* list = mc.list();
  for (int64_t id : containing) {
    RowRef ref = mc.ListById(id);
    if (ref.code != MR_SUCCESS) {
      continue;
    }
    call.emit({MoiraContext::StrCell(list, ref.row, "name"), IntStr(list, ref.row, "active"),
               IntStr(list, ref.row, "public"), IntStr(list, ref.row, "hidden"),
               IntStr(list, ref.row, "maillist"), IntStr(list, ref.row, "grouplist")});
  }
  return MR_SUCCESS;
}

int32_t CountMembersOfList(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef list = mc.ListByName(call.args[0]);
  if (list.code != MR_SUCCESS) {
    return list.code;
  }
  if (!MaySeeList(call, list.row)) {
    return MR_PERM;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  size_t count = From(mc.members()).WhereEq("list_id", Value(list_id)).Count();
  call.emit({std::to_string(count)});
  return MR_SUCCESS;
}

// Self-access: a user asking about themselves (get_ace_use, get_lists_of_member).
bool SelfIsArg1Name(MoiraContext& mc, std::string_view principal,
                    const std::vector<std::string>& args) {
  (void)mc;
  return args.size() >= 2 && args[1] == principal &&
         (args[0] == "USER" || args[0] == "RUSER");
}

}  // namespace

void AppendListQueries(std::vector<QueryDef>* defs) {
  defs->insert(
      defs->end(),
      {
          {"get_list_info", "glin", QueryClass::kRetrieve, 1, true, "list",
           "list, active, public, hidden, maillist, group, gid, acl_type, acl_name, "
           "description, modtime, modby, modwith",
           nullptr, GetListInfo},
          {"expand_list_names", "exln", QueryClass::kRetrieve, 1, true, "list", "list",
           nullptr, ExpandListNames},
          {"add_list", "alis", QueryClass::kAppend, 10, false,
           "list, active, public, hidden, maillist, group, gid, acl_type, acl_name, "
           "description",
           "", nullptr, AddList},
          {"update_list", "ulis", QueryClass::kUpdate, 11, false,
           "list, newname, active, public, hidden, maillist, group, gid, acl_type, "
           "acl_name, description",
           "", SelfOnListAce, UpdateList},
          {"delete_list", "dlis", QueryClass::kDelete, 1, false, "list", "", SelfOnListAce,
           DeleteList},
          {"add_member_to_list", "amtl", QueryClass::kAppend, 3, false,
           "list, type, member", "", SelfPublicListMember, AddMemberToList},
          {"delete_member_from_list", "dmfl", QueryClass::kDelete, 3, false,
           "list, type, member", "", SelfPublicListMember, DeleteMemberFromList},
          {"get_ace_use", "gaus", QueryClass::kRetrieve, 2, false, "ace_type, ace_name",
           "object_type, object_name", SelfIsArg1Name, GetAceUse},
          {"qualified_get_lists", "qgli", QueryClass::kRetrieve, 5, true,
           "active, public, hidden, maillist, group", "list", nullptr, QualifiedGetLists},
          {"get_members_of_list", "gmol", QueryClass::kRetrieve, 1, true, "list",
           "type, value", nullptr, GetMembersOfList},
          {"get_lists_of_member", "glom", QueryClass::kRetrieve, 2, false, "type, value",
           "list, active, public, hidden, maillist, group", SelfIsArg1Name,
           GetListsOfMember},
          {"count_members_of_list", "cmol", QueryClass::kRetrieve, 1, true, "list", "count",
           nullptr, CountMembersOfList},
      });
}

}  // namespace moira
