// Users, finger, and post office box queries (paper section 7.0.1).
#include <algorithm>

#include "src/core/queries_common.h"

namespace moira {
namespace {

// --- shared emit helpers ---

Tuple UserSummaryTuple(const Table* users, size_t row) {
  return {MoiraContext::StrCell(users, row, "login"), IntStr(users, row, "uid"),
          MoiraContext::StrCell(users, row, "shell"), MoiraContext::StrCell(users, row, "last"),
          MoiraContext::StrCell(users, row, "first"),
          MoiraContext::StrCell(users, row, "middle")};
}

Tuple UserFullTuple(const Table* users, size_t row) {
  return {MoiraContext::StrCell(users, row, "login"),
          IntStr(users, row, "uid"),
          MoiraContext::StrCell(users, row, "shell"),
          MoiraContext::StrCell(users, row, "last"),
          MoiraContext::StrCell(users, row, "first"),
          MoiraContext::StrCell(users, row, "middle"),
          IntStr(users, row, "status"),
          MoiraContext::StrCell(users, row, "mit_id"),
          MoiraContext::StrCell(users, row, "mit_year"),
          IntStr(users, row, "modtime"),
          MoiraContext::StrCell(users, row, "modby"),
          MoiraContext::StrCell(users, row, "modwith")};
}

// Emits full user tuples for `rows`.  Non-privileged callers may only see
// themselves: "the query only succeeds if the only retrieved information is
// about the user making the request".
int32_t EmitFullUsers(QueryCall& call, const std::vector<size_t>& rows) {
  const Table* users = call.mc.users();
  if (!call.privileged) {
    for (size_t row : rows) {
      if (MoiraContext::StrCell(users, row, "login") != call.principal) {
        return MR_PERM;
      }
    }
  }
  for (size_t row : rows) {
    call.emit(UserFullTuple(users, row));
  }
  return MR_SUCCESS;
}

// Renders the pobox "box" field: the POP machine name, the SMTP address
// string, or "NONE".
std::string PoboxBox(MoiraContext& mc, size_t user_row) {
  const Table* users = mc.users();
  const std::string& type = MoiraContext::StrCell(users, user_row, "potype");
  if (type == "POP") {
    int64_t mach_id = MoiraContext::IntCell(users, user_row, "pop_id");
    RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(mach_id), MR_MACHINE);
    return mach.code == MR_SUCCESS ? MoiraContext::StrCell(mc.machine(), mach.row, "name")
                                   : "???";
  }
  if (type == "SMTP") {
    return mc.StringById(MoiraContext::IntCell(users, user_row, "box_id"));
  }
  return "NONE";
}

// Picks the least loaded POP server: the enabled POP serverhost with the
// most headroom (value2 - value1, the max vs current pobox counts).  Returns
// MR_MACHINE if none has room.
int32_t LeastLoadedPop(MoiraContext& mc, int64_t* mach_id_out, size_t* sh_row_out) {
  Table* sh = mc.serverhosts();
  int64_t best_room = 0;
  bool found = false;
  From(sh)
      .WhereEq("service", Value("POP"))
      // enable is 0/1, so `>= 1` is `!= 0` in a form the planner can index.
      .WhereGe("enable", Value(int64_t{1}))
      .Emit([&](const std::vector<size_t>& rows) {
        size_t row = rows[0];
        int64_t room = MoiraContext::IntCell(sh, row, "value2") -
                       MoiraContext::IntCell(sh, row, "value1");
        if (room > best_room) {
          best_room = room;
          *mach_id_out = MoiraContext::IntCell(sh, row, "mach_id");
          *sh_row_out = row;
          found = true;
        }
      });
  return found ? MR_SUCCESS : MR_MACHINE;
}

// Picks the least loaded NFS partition whose status includes `fstype_bits`:
// maximum free quota units.  MR_NO_FILESYS if none.
int32_t LeastLoadedNfsPhys(MoiraContext& mc, int64_t fstype_bits, size_t* phys_row_out) {
  Table* phys = mc.nfsphys();
  int64_t best_free = -1;
  From(phys)
      .WhereAnyBits("status", fstype_bits)
      .Emit([&](const std::vector<size_t>& rows) {
        int64_t free_units = MoiraContext::IntCell(phys, rows[0], "size") -
                             MoiraContext::IntCell(phys, rows[0], "allocated");
        if (free_units > best_free) {
          best_free = free_units;
          *phys_row_out = rows[0];
        }
      });
  return best_free >= 0 ? MR_SUCCESS : MR_NO_FILESYS;
}

// --- users ---

int32_t GetAllLogins(QueryCall& call) {
  const Table* users = call.mc.users();
  From(users).Emit([&](const std::vector<size_t>& rows) {
    call.emit(UserSummaryTuple(users, rows[0]));
  });
  return MR_SUCCESS;
}

int32_t GetAllActiveLogins(QueryCall& call) {
  const Table* users = call.mc.users();
  // Statuses are the non-negative UserStatus codes (0 = not registered), so
  // "active" (`status != 0`) is the plannable range predicate `status >= 1`.
  From(users)
      .WhereGe("status", Value(int64_t{1}))
      .Emit([&](const std::vector<size_t>& rows) {
        call.emit(UserSummaryTuple(users, rows[0]));
      });
  return MR_SUCCESS;
}

int32_t GetUserByLogin(QueryCall& call) {
  return EmitFullUsers(call,
                       From(call.mc.users()).WhereWild("login", call.args[0]).Rows());
}

int32_t GetUserByUid(QueryCall& call) {
  int64_t uid = 0;
  if (int32_t code = RequireInt(call.args[0], &uid); code != MR_SUCCESS) {
    return code;
  }
  return EmitFullUsers(call, From(call.mc.users()).WhereEq("uid", Value(uid)).Rows());
}

int32_t GetUserByName(QueryCall& call) {
  return EmitFullUsers(call, From(call.mc.users())
                                 .WhereWild("first", call.args[0])
                                 .WhereWild("last", call.args[1])
                                 .Rows());
}

int32_t GetUserByClass(QueryCall& call) {
  return EmitFullUsers(call,
                       From(call.mc.users()).WhereWild("mit_year", call.args[0]).Rows());
}

int32_t GetUserByMitId(QueryCall& call) {
  return EmitFullUsers(call,
                       From(call.mc.users()).WhereWild("mit_id", call.args[0]).Rows());
}

// Initializes the non-account columns of a fresh users row.
std::vector<Value> NewUserRow(std::string_view login, int64_t uid, std::string_view shell,
                              std::string_view last, std::string_view first,
                              std::string_view middle, int64_t status, std::string_view mit_id,
                              std::string_view mit_year) {
  std::string fullname(first);
  if (!middle.empty()) {
    fullname += " ";
    fullname += middle;
  }
  fullname += " ";
  fullname += last;
  return {
      Value(login),   Value(int64_t{0}) /* users_id set by caller */,
      Value(uid),     Value(shell),
      Value(last),    Value(first),
      Value(middle),  Value(status),
      Value(mit_id),  Value(mit_year),
      Value(int64_t{0}) /* modtime */, Value("") /* modby */,
      Value("") /* modwith */, Value(fullname),
      Value("") /* nickname */, Value("") /* home_addr */,
      Value("") /* home_phone */, Value("") /* office_addr */,
      Value("") /* office_phone */, Value("") /* mit_dept */,
      Value("") /* mit_affil */, Value(int64_t{0}) /* fmodtime */,
      Value("") /* fmodby */, Value("") /* fmodwith */,
      Value("NONE") /* potype */, Value(int64_t{0}) /* pop_id */,
      Value(int64_t{0}) /* box_id */, Value(int64_t{0}) /* pmodtime */,
      Value("") /* pmodby */, Value("") /* pmodwith */,
  };
}

int32_t AddUser(QueryCall& call) {
  MoiraContext& mc = call.mc;
  std::string login = call.args[0];
  int64_t uid = 0;
  int64_t status = 0;
  if (int32_t code = RequireInt(call.args[1], &uid); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[6], &status); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireLegalChars(login); code != MR_SUCCESS) {
    return code;
  }
  if (!mc.IsLegalType("class", call.args[8])) {
    return MR_BAD_CLASS;
  }
  if (uid == kUniqueUid) {
    if (int32_t code = mc.AllocateId("uid", mc.users(), "uid", &uid); code != MR_SUCCESS) {
      return code;
    }
  }
  if (login == kUniqueLogin) {
    login = "#" + std::to_string(uid);
  }
  if (mc.UserByLogin(login).code == MR_SUCCESS) {
    return MR_NOT_UNIQUE;
  }
  int64_t users_id = 0;
  if (int32_t code = mc.AllocateId("users_id", mc.users(), "users_id", &users_id);
      code != MR_SUCCESS) {
    return code;
  }
  std::vector<Value> row = NewUserRow(login, uid, call.args[2], call.args[3], call.args[4],
                                      call.args[5], status, call.args[7], call.args[8]);
  row[mc.users()->ColumnIndex("users_id")] = Value(users_id);
  size_t row_index = mc.users()->Append(std::move(row));
  mc.Stamp(mc.users(), row_index, call.principal, call.client_name);
  mc.Stamp(mc.users(), row_index, call.principal, call.client_name, "f");
  mc.Stamp(mc.users(), row_index, call.principal, call.client_name, "p");
  return MR_SUCCESS;
}

int32_t RegisterUser(QueryCall& call) {
  MoiraContext& mc = call.mc;
  int64_t uid = 0;
  int64_t fstype = 0;
  if (int32_t code = RequireInt(call.args[0], &uid); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[2], &fstype); code != MR_SUCCESS) {
    return code;
  }
  const std::string& login = call.args[1];
  if (int32_t code = RequireLegalChars(login); code != MR_SUCCESS) {
    return code;
  }
  RowRef user = mc.UserByUid(uid);
  if (user.code != MR_SUCCESS) {
    return user.code == MR_USER ? MR_NO_MATCH : user.code;
  }
  Table* users = mc.users();
  if (MoiraContext::IntCell(users, user.row, "status") != kUserNotRegistered) {
    return MR_IN_USE;
  }
  if (mc.UserByLogin(login).code == MR_SUCCESS) {
    return MR_IN_USE;
  }
  if (mc.ListByName(login).code == MR_SUCCESS ||
      mc.FilesysByLabel(login).code == MR_SUCCESS) {
    return MR_IN_USE;
  }
  // Pick resources before mutating anything.
  int64_t po_mach_id = 0;
  size_t po_row = 0;
  if (int32_t code = LeastLoadedPop(mc, &po_mach_id, &po_row); code != MR_SUCCESS) {
    return code;
  }
  size_t phys_row = 0;
  if (int32_t code = LeastLoadedNfsPhys(mc, fstype, &phys_row); code != MR_SUCCESS) {
    return code;
  }
  int64_t def_quota = 0;
  if (int32_t code = mc.GetValue("def_quota", &def_quota); code != MR_SUCCESS) {
    return code;
  }
  int64_t users_id = MoiraContext::IntCell(users, user.row, "users_id");

  // 1. Login name and status 2 (half-registered).
  MoiraContext::SetCell(users, user.row, "login", Value(login));
  MoiraContext::SetCell(users, user.row, "status", Value(int64_t{kUserHalfRegistered}));
  mc.Stamp(users, user.row, call.principal, call.client_name);

  // 2. Pobox of type POP on the least loaded post office.
  MoiraContext::SetCell(users, user.row, "potype", Value("POP"));
  MoiraContext::SetCell(users, user.row, "pop_id", Value(po_mach_id));
  mc.Stamp(users, user.row, call.principal, call.client_name, "p");
  Table* sh = mc.serverhosts();
  MoiraContext::SetCell(sh, po_row, "value1",
                        Value(MoiraContext::IntCell(sh, po_row, "value1") + 1));

  // 3. Group list owned by the user, with a fresh GID, user as sole member.
  int64_t list_id = 0;
  if (int32_t code = mc.AllocateId("list_id", mc.list(), "list_id", &list_id);
      code != MR_SUCCESS) {
    return code;
  }
  int64_t gid = 0;
  if (int32_t code = mc.AllocateId("gid", mc.list(), "gid", &gid); code != MR_SUCCESS) {
    return code;
  }
  size_t list_row = mc.list()->Append({
      Value(login), Value(list_id), Value(int64_t{1}) /* active */,
      Value(int64_t{0}) /* public */, Value(int64_t{0}) /* hidden */,
      Value(int64_t{0}) /* maillist */, Value(int64_t{1}) /* group */, Value(gid),
      Value("user group"), Value("USER"), Value(users_id), Value(int64_t{0}), Value(""),
      Value(""),
  });
  mc.Stamp(mc.list(), list_row, call.principal, call.client_name);
  mc.members()->Append({Value(list_id), Value("USER"), Value(users_id)});

  // 4. Home filesystem on the least loaded server supporting fstype.
  Table* phys = mc.nfsphys();
  int64_t filsys_id = 0;
  if (int32_t code = mc.AllocateId("filsys_id", mc.filesys(), "filsys_id", &filsys_id);
      code != MR_SUCCESS) {
    return code;
  }
  int64_t phys_id = MoiraContext::IntCell(phys, phys_row, "nfsphys_id");
  int64_t fs_mach_id = MoiraContext::IntCell(phys, phys_row, "mach_id");
  std::string server_dir = MoiraContext::StrCell(phys, phys_row, "dir") + "/" + login;
  size_t fs_row = mc.filesys()->Append({
      Value(login), Value(int64_t{0}) /* order */, Value(filsys_id), Value(phys_id),
      Value("NFS"), Value(fs_mach_id), Value(server_dir), Value("/mit/" + login), Value("w"),
      Value("user home directory"), Value(users_id), Value(list_id),
      Value(int64_t{1}) /* createflg */, Value("HOMEDIR"), Value(int64_t{0}), Value(""),
      Value(""),
  });
  mc.Stamp(mc.filesys(), fs_row, call.principal, call.client_name);

  // 5. Quota from def_quota; bump the partition allocation.
  size_t quota_row = mc.nfsquota()->Append({
      Value(users_id), Value(filsys_id), Value(phys_id), Value(def_quota),
      Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{0}),
      Value(""), Value(""),
  });
  mc.Stamp(mc.nfsquota(), quota_row, call.principal, call.client_name);
  MoiraContext::SetCell(phys, phys_row, "allocated",
                        Value(MoiraContext::IntCell(phys, phys_row, "allocated") + def_quota));
  return MR_SUCCESS;
}

int32_t UpdateUser(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  const std::string& newlogin = call.args[1];
  int64_t uid = 0;
  int64_t status = 0;
  if (int32_t code = RequireInt(call.args[2], &uid); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[7], &status); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireLegalChars(newlogin); code != MR_SUCCESS) {
    return code;
  }
  if (!mc.IsLegalType("class", call.args[9])) {
    return MR_BAD_CLASS;
  }
  if (newlogin != call.args[0] && mc.UserByLogin(newlogin).code == MR_SUCCESS) {
    return MR_NOT_UNIQUE;
  }
  Table* users = mc.users();
  MoiraContext::SetCell(users, user.row, "login", Value(newlogin));
  MoiraContext::SetCell(users, user.row, "uid", Value(uid));
  MoiraContext::SetCell(users, user.row, "shell", Value(call.args[3]));
  MoiraContext::SetCell(users, user.row, "last", Value(call.args[4]));
  MoiraContext::SetCell(users, user.row, "first", Value(call.args[5]));
  MoiraContext::SetCell(users, user.row, "middle", Value(call.args[6]));
  MoiraContext::SetCell(users, user.row, "status", Value(status));
  MoiraContext::SetCell(users, user.row, "mit_id", Value(call.args[8]));
  MoiraContext::SetCell(users, user.row, "mit_year", Value(call.args[9]));
  mc.Stamp(users, user.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateUserShell(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  MoiraContext::SetCell(mc.users(), user.row, "shell", Value(call.args[1]));
  mc.Stamp(mc.users(), user.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateUserStatus(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  int64_t status = 0;
  if (int32_t code = RequireInt(call.args[1], &status); code != MR_SUCCESS) {
    return code;
  }
  MoiraContext::SetCell(mc.users(), user.row, "status", Value(status));
  mc.Stamp(mc.users(), user.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

// True if the user is referenced anywhere that blocks deletion: list
// membership, quotas, or ownership of an object (as an ACE).
bool UserIsReferenced(MoiraContext& mc, int64_t users_id) {
  // List membership (member_id is indexed, so this is a probe, not a sweep).
  if (From(mc.members())
          .WhereEq("member_type", Value("USER"))
          .WhereEq("member_id", Value(users_id))
          .Any()) {
    return true;
  }
  if (From(mc.nfsquota()).WhereEq("users_id", Value(users_id)).Any()) {
    return true;
  }
  // ACE references: lists, servers, filesys owner, zephyr, hostaccess.
  auto ace_ref = [&](Table* table, const char* type_col_name, const char* id_col_name) {
    return From(table)
        .WhereEq(type_col_name, Value("USER"))
        .WhereEq(id_col_name, Value(users_id))
        .Any();
  };
  if (ace_ref(mc.list(), "acl_type", "acl_id") || ace_ref(mc.servers(), "acl_type", "acl_id") ||
      ace_ref(mc.hostaccess(), "acl_type", "acl_id") ||
      ace_ref(mc.zephyr(), "xmt_type", "xmt_id") || ace_ref(mc.zephyr(), "sub_type", "sub_id") ||
      ace_ref(mc.zephyr(), "iws_type", "iws_id") || ace_ref(mc.zephyr(), "iui_type", "iui_id")) {
    return true;
  }
  return From(mc.filesys()).WhereEq("owner", Value(users_id)).Any();
}

int32_t DeleteUserRow(QueryCall& call, RowRef user) {
  MoiraContext& mc = call.mc;
  Table* users = mc.users();
  if (MoiraContext::IntCell(users, user.row, "status") != kUserNotRegistered) {
    return MR_IN_USE;
  }
  int64_t users_id = MoiraContext::IntCell(users, user.row, "users_id");
  if (UserIsReferenced(mc, users_id)) {
    return MR_IN_USE;
  }
  users->Delete(user.row);
  return MR_SUCCESS;
}

int32_t DeleteUser(QueryCall& call) {
  RowRef user = call.mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  return DeleteUserRow(call, user);
}

int32_t DeleteUserByUid(QueryCall& call) {
  int64_t uid = 0;
  if (int32_t code = RequireInt(call.args[0], &uid); code != MR_SUCCESS) {
    return code;
  }
  RowRef user = call.mc.UserByUid(uid);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  return DeleteUserRow(call, user);
}

// --- finger ---

int32_t GetFingerByLogin(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  const Table* users = mc.users();
  call.emit({MoiraContext::StrCell(users, user.row, "login"),
             MoiraContext::StrCell(users, user.row, "fullname"),
             MoiraContext::StrCell(users, user.row, "nickname"),
             MoiraContext::StrCell(users, user.row, "home_addr"),
             MoiraContext::StrCell(users, user.row, "home_phone"),
             MoiraContext::StrCell(users, user.row, "office_addr"),
             MoiraContext::StrCell(users, user.row, "office_phone"),
             MoiraContext::StrCell(users, user.row, "mit_dept"),
             MoiraContext::StrCell(users, user.row, "mit_affil"),
             IntStr(users, user.row, "fmodtime"),
             MoiraContext::StrCell(users, user.row, "fmodby"),
             MoiraContext::StrCell(users, user.row, "fmodwith")});
  return MR_SUCCESS;
}

int32_t UpdateFingerByLogin(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  Table* users = mc.users();
  const char* columns[] = {"fullname",     "nickname", "home_addr", "home_phone",
                           "office_addr",  "office_phone", "mit_dept", "mit_affil"};
  for (int i = 0; i < 8; ++i) {
    MoiraContext::SetCell(users, user.row, columns[i], Value(call.args[i + 1]));
  }
  mc.Stamp(users, user.row, call.principal, call.client_name, "f");
  return MR_SUCCESS;
}

// --- poboxes ---

int32_t GetPobox(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  const Table* users = mc.users();
  call.emit({MoiraContext::StrCell(users, user.row, "login"),
             MoiraContext::StrCell(users, user.row, "potype"), PoboxBox(mc, user.row),
             IntStr(users, user.row, "pmodtime"),
             MoiraContext::StrCell(users, user.row, "pmodby"),
             MoiraContext::StrCell(users, user.row, "pmodwith")});
  return MR_SUCCESS;
}

int32_t GetAllPoboxes(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const Table* users = mc.users();
  int potype_col = users->ColumnIndex("potype");
  From(users)
      .WhereNe("potype", Value("NONE"))
      .Emit([&](const std::vector<size_t>& rows) {
        call.emit({MoiraContext::StrCell(users, rows[0], "login"),
                   std::string(users->Cell(rows[0], potype_col).AsString()),
                   PoboxBox(mc, rows[0])});
      });
  return MR_SUCCESS;
}

int32_t GetPoboxesOfType(QueryCall& call, const char* type) {
  MoiraContext& mc = call.mc;
  const Table* users = mc.users();
  From(users).WhereEq("potype", Value(type)).Emit([&](const std::vector<size_t>& rows) {
    call.emit({MoiraContext::StrCell(users, rows[0], "login"),
               MoiraContext::StrCell(users, rows[0], "potype"), PoboxBox(mc, rows[0])});
  });
  return MR_SUCCESS;
}

int32_t GetPoboxesPop(QueryCall& call) { return GetPoboxesOfType(call, "POP"); }
int32_t GetPoboxesSmtp(QueryCall& call) { return GetPoboxesOfType(call, "SMTP"); }

int32_t SetPobox(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  const std::string& type = call.args[1];
  if (!mc.IsLegalType("pobox", type)) {
    return MR_TYPE;
  }
  Table* users = mc.users();
  if (type == "POP") {
    RowRef mach = mc.MachineByName(call.args[2]);
    if (mach.code != MR_SUCCESS) {
      return mach.code;
    }
    MoiraContext::SetCell(users, user.row, "potype", Value("POP"));
    MoiraContext::SetCell(users, user.row, "pop_id",
                          Value(MoiraContext::IntCell(mc.machine(), mach.row, "mach_id")));
  } else if (type == "SMTP") {
    int64_t box_id = mc.InternString(call.args[2]);
    if (box_id < 0) {
      return MR_NO_ID;
    }
    MoiraContext::SetCell(users, user.row, "potype", Value("SMTP"));
    MoiraContext::SetCell(users, user.row, "box_id", Value(box_id));
  } else {
    MoiraContext::SetCell(users, user.row, "potype", Value("NONE"));
  }
  mc.Stamp(users, user.row, call.principal, call.client_name, "p");
  return MR_SUCCESS;
}

int32_t SetPoboxPop(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  Table* users = mc.users();
  if (MoiraContext::StrCell(users, user.row, "potype") == "POP") {
    return MR_SUCCESS;
  }
  // Restore the previous POP machine assignment if one exists.
  if (MoiraContext::IntCell(users, user.row, "pop_id") == 0) {
    return MR_MACHINE;
  }
  MoiraContext::SetCell(users, user.row, "potype", Value("POP"));
  mc.Stamp(users, user.row, call.principal, call.client_name, "p");
  return MR_SUCCESS;
}

int32_t DeletePobox(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[0]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  Table* users = mc.users();
  MoiraContext::SetCell(users, user.row, "potype", Value("NONE"));
  mc.Stamp(users, user.row, call.principal, call.client_name, "p");
  return MR_SUCCESS;
}

constexpr const char* kFullUserReturns =
    "login, uid, shell, last, first, mi, state, mitid, class, modtime, modby, modwith";

}  // namespace

void AppendUserQueries(std::vector<QueryDef>* defs) {
  defs->insert(
      defs->end(),
      {
          {"get_all_logins", "galo", QueryClass::kRetrieve, 0, true, "",
           "login, uid, shell, last, first, mi", nullptr, GetAllLogins},
          {"get_all_active_logins", "gaal", QueryClass::kRetrieve, 0, true, "",
           "login, uid, shell, last, first, mi", nullptr, GetAllActiveLogins},
          {"get_user_by_login", "gubl", QueryClass::kRetrieve, 1, false, "login",
           kFullUserReturns, SelfIsArg0Login, GetUserByLogin},
          {"get_user_by_uid", "gubu", QueryClass::kRetrieve, 1, false, "uid",
           kFullUserReturns,
           [](MoiraContext&, std::string_view, const std::vector<std::string>&) {
             return true;  // handler rejects rows that are not the caller
           },
           GetUserByUid},
          {"get_user_by_name", "gubn", QueryClass::kRetrieve, 2, false, "first, last",
           kFullUserReturns,
           [](MoiraContext&, std::string_view, const std::vector<std::string>&) {
             return true;
           },
           GetUserByName},
          {"get_user_by_class", "gubc", QueryClass::kRetrieve, 1, false, "class",
           kFullUserReturns, nullptr, GetUserByClass},
          {"get_user_by_mitid", "gubm", QueryClass::kRetrieve, 1, false, "crypt(id)",
           kFullUserReturns, nullptr, GetUserByMitId},
          {"add_user", "ausr", QueryClass::kAppend, 9, false,
           "login, uid, shell, last, first, mi, state, mitid, class", "", nullptr, AddUser},
          {"register_user", "rusr", QueryClass::kAppend, 3, false, "uid, login, fstype", "",
           nullptr, RegisterUser},
          {"update_user", "uusr", QueryClass::kUpdate, 10, false,
           "login, newlogin, uid, shell, last, first, mi, state, mitid, class", "", nullptr,
           UpdateUser},
          {"update_user_shell", "uush", QueryClass::kUpdate, 2, false, "login, shell", "",
           SelfIsArg0Login, UpdateUserShell},
          {"update_user_status", "uust", QueryClass::kUpdate, 2, false, "login, status", "",
           nullptr, UpdateUserStatus},
          {"delete_user", "dusr", QueryClass::kDelete, 1, false, "login", "", nullptr,
           DeleteUser},
          {"delete_user_by_uid", "dubu", QueryClass::kDelete, 1, false, "uid", "", nullptr,
           DeleteUserByUid},
          {"get_finger_by_login", "gfbl", QueryClass::kRetrieve, 1, true, "login",
           "login, fullname, nickname, home_addr, home_phone, office_addr, office_phone, "
           "department, affiliation, modtime, modby, modwith",
           nullptr, GetFingerByLogin},
          {"update_finger_by_login", "ufbl", QueryClass::kUpdate, 9, false,
           "login, fullname, nickname, home_addr, home_phone, office_addr, office_phone, "
           "department, affiliation",
           "", SelfIsArg0Login, UpdateFingerByLogin},
          {"get_pobox", "gpob", QueryClass::kRetrieve, 1, false, "login",
           "login, type, box, modtime, modby, modwith", SelfIsArg0Login, GetPobox},
          {"get_all_poboxes", "gapo", QueryClass::kRetrieve, 0, false, "",
           "login, type, box", nullptr, GetAllPoboxes},
          {"get_poboxes_pop", "gpop", QueryClass::kRetrieve, 0, false, "",
           "login, type, machine", nullptr, GetPoboxesPop},
          {"get_poboxes_smtp", "gpos", QueryClass::kRetrieve, 0, false, "",
           "login, type, box", nullptr, GetPoboxesSmtp},
          {"set_pobox", "spob", QueryClass::kUpdate, 3, false, "login, type, box", "",
           SelfIsArg0Login, SetPobox},
          {"set_pobox_pop", "spop", QueryClass::kUpdate, 1, false, "login", "",
           SelfIsArg0Login, SetPoboxPop},
          {"delete_pobox", "dpob", QueryClass::kDelete, 1, false, "login", "",
           SelfIsArg0Login, DeletePobox},
      });
}

}  // namespace moira
