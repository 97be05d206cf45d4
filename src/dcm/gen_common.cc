#include <set>

#include "src/core/acl.h"
#include "src/db/exec.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

// Recursive expansion with cycle protection.
void ExpandInto(MoiraContext& mc, int64_t list_id, bool active_only,
                std::set<int64_t>* seen_lists, std::set<std::string>* out) {
  if (!seen_lists->insert(list_id).second) {
    return;
  }
  Table* members = mc.members();
  int type_col = members->ColumnIndex("member_type");
  int id_col = members->ColumnIndex("member_id");
  for (size_t row : From(members).WhereEq("list_id", Value(list_id)).Rows()) {
    std::string_view type = members->Cell(row, type_col).AsString();
    int64_t member_id = members->Cell(row, id_col).AsInt();
    if (type == "USER") {
      RowRef user = mc.ExactOne(mc.users(), "users_id", Value(member_id), MR_USER);
      if (user.code != MR_SUCCESS) {
        continue;
      }
      if (active_only &&
          MoiraContext::IntCell(mc.users(), user.row, "status") != kUserActive) {
        continue;
      }
      out->insert(MoiraContext::StrCell(mc.users(), user.row, "login"));
    } else if (type == "LIST") {
      ExpandInto(mc, member_id, active_only, seen_lists, out);
    } else if (type == "STRING") {
      out->insert(mc.StringById(member_id));
    }
  }
}

}  // namespace

std::vector<std::string> ExpandListToLogins(MoiraContext& mc, int64_t list_id,
                                            bool active_only) {
  std::set<int64_t> seen;
  std::set<std::string> logins;
  ExpandInto(mc, list_id, active_only, &seen, &logins);
  return {logins.begin(), logins.end()};
}

std::map<int64_t, std::vector<GroupMembership>> BuildUserGroupMap(MoiraContext& mc) {
  std::map<int64_t, std::vector<GroupMembership>> out;
  Table* lists = mc.list();
  int id_col = lists->ColumnIndex("list_id");
  int gid_col = lists->ColumnIndex("gid");
  int name_col = lists->ColumnIndex("name");
  // For each active group list, expand to users once, then invert.  The
  // expansion runs in ascending list-id order so each user's membership
  // vector matches UserGroupsFor's closure-derived order exactly — the
  // incremental patch builders recompute single users and must reproduce the
  // full build byte for byte.
  Table* users = mc.users();
  int login_col = users->ColumnIndex("login");
  int users_id_col = users->ColumnIndex("users_id");
  std::map<std::string, int64_t> login_to_id;
  From(users).Emit([&](const std::vector<size_t>& rows) {
    login_to_id[std::string(users->Cell(rows[0], login_col).AsString())] =
        users->Cell(rows[0], users_id_col).AsInt();
  });
  std::map<int64_t, GroupMembership> group_lists;  // list_id -> (name, gid)
  From(lists)
      .WhereNe("active", Value(int64_t{0}))
      .WhereNe("grouplist", Value(int64_t{0}))
      .Emit([&](const std::vector<size_t>& rows) {
        size_t row = rows[0];
        group_lists[lists->Cell(row, id_col).AsInt()] =
            GroupMembership{std::string(lists->Cell(row, name_col).AsString()),
                            lists->Cell(row, gid_col).AsInt()};
      });
  for (const auto& [list_id, membership] : group_lists) {
    for (const std::string& login :
         ExpandListToLogins(mc, list_id, /*active_only=*/true)) {
      auto it = login_to_id.find(login);
      if (it != login_to_id.end()) {
        out[it->second].push_back(membership);
      }
    }
  }
  return out;
}

std::vector<GroupMembership> UserGroupsFor(MoiraContext& mc, int64_t users_id) {
  std::vector<GroupMembership> out;
  Table* lists = mc.list();
  // The containing-list closure is already ascending by list id, mirroring
  // BuildUserGroupMap's expansion order.
  for (int64_t list_id : mc.ContainingListClosure("USER", users_id)) {
    RowRef list = mc.ListById(list_id);
    if (list.code != MR_SUCCESS ||
        MoiraContext::IntCell(lists, list.row, "active") == 0 ||
        MoiraContext::IntCell(lists, list.row, "grouplist") == 0) {
      continue;
    }
    out.push_back(GroupMembership{MoiraContext::StrCell(lists, list.row, "name"),
                                  MoiraContext::IntCell(lists, list.row, "gid")});
  }
  return out;
}

std::string PasswdLine(MoiraContext& mc, size_t user_row) {
  const Table* users = mc.users();
  const std::string& login = MoiraContext::StrCell(users, user_row, "login");
  std::string line = login;
  line += ":*:";
  line += std::to_string(MoiraContext::IntCell(users, user_row, "uid"));
  line += ":101:";  // the default workstation group, as in the paper's examples
  line += MoiraContext::StrCell(users, user_row, "fullname");
  line += ",,,,:/mit/";
  line += login;
  line += ":";
  line += MoiraContext::StrCell(users, user_row, "shell");
  return line;
}

}  // namespace moira
