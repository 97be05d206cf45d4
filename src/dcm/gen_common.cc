#include <algorithm>
#include <set>

#include "src/core/acl.h"
#include "src/db/exec.h"
#include "src/dcm/gen_reads.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

// Recursive expansion with cycle protection; STRING members go into `out`
// verbatim only if `with_strings`.
void ExpandInto(MoiraContext& mc, int64_t list_id, bool active_only, bool with_strings,
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
      ExpandInto(mc, member_id, active_only, with_strings, seen_lists, out);
    } else if (type == "STRING" && with_strings) {
      out->insert(mc.StringById(member_id));
    }
  }
}

ListMembers::Type TypeOf(std::string_view member_type) {
  if (member_type == "USER") {
    return ListMembers::Type::kUser;
  }
  if (member_type == "LIST") {
    return ListMembers::Type::kList;
  }
  return member_type == "STRING" ? ListMembers::Type::kString : ListMembers::Type::kOther;
}

}  // namespace

IdRows::IdRows(const Table* table, std::string_view id_column)
    : table_(table), rows_(From(table).Rows()) {
  const int col = table->ColumnIndex(id_column);
  by_id_.reserve(rows_.size());
  for (size_t row : rows_) {
    by_id_.emplace_back(table->Cell(row, col).AsInt(), row);
  }
  std::sort(by_id_.begin(), by_id_.end());
}

std::optional<size_t> IdRows::Find(int64_t id) const {
  auto it = std::lower_bound(by_id_.begin(), by_id_.end(), std::make_pair(id, size_t{0}));
  if (it == by_id_.end() || it->first != id) {
    return std::nullopt;
  }
  if (std::next(it) != by_id_.end() && std::next(it)->first == id) {
    return std::nullopt;  // MR_NOT_UNIQUE
  }
  return it->second;
}

std::string_view IdRows::StrOf(int64_t id, int column, std::string_view missing) const {
  std::optional<size_t> row = Find(id);
  return row.has_value() ? table_->Cell(*row, column).AsString() : missing;
}

int64_t IdRows::IntOf(int64_t id, int column, int64_t missing) const {
  std::optional<size_t> row = Find(id);
  return row.has_value() ? table_->Cell(*row, column).AsInt() : missing;
}

ListMembers::ListMembers(const Table* members) {
  const int list_col = members->ColumnIndex("list_id");
  const int type_col = members->ColumnIndex("member_type");
  const int id_col = members->ColumnIndex("member_id");
  std::vector<std::pair<int64_t, Member>> entries;  // (list_id, member), storage order
  for (size_t row : From(members).Rows()) {
    entries.emplace_back(members->Cell(row, list_col).AsInt(),
                         Member{members->Cell(row, id_col).AsInt(),
                                TypeOf(members->Cell(row, type_col).AsString())});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  members_.reserve(entries.size());
  for (const auto& [list_id, member] : entries) {
    if (list_ids_.empty() || list_ids_.back() != list_id) {
      list_ids_.push_back(list_id);
      starts_.push_back(static_cast<uint32_t>(members_.size()));
    }
    members_.push_back(member);
  }
  starts_.push_back(static_cast<uint32_t>(members_.size()));
  walked_.assign(list_ids_.size(), 0);
}

std::optional<size_t> ListMembers::Slot(int64_t list_id) const {
  auto it = std::lower_bound(list_ids_.begin(), list_ids_.end(), list_id);
  if (it == list_ids_.end() || *it != list_id) {
    return std::nullopt;
  }
  return static_cast<size_t>(it - list_ids_.begin());
}

std::span<const ListMembers::Member> ListMembers::Of(int64_t list_id) const {
  std::optional<size_t> slot = Slot(list_id);
  if (!slot.has_value()) {
    return {};
  }
  return std::span<const Member>(members_).subspan(starts_[*slot],
                                                   starts_[*slot + 1] - starts_[*slot]);
}

void ListMembers::Enter(int64_t list_id) {
  std::optional<size_t> slot = Slot(list_id);
  if (slot.has_value() && walked_[*slot] != walk_) {
    walked_[*slot] = walk_;
    stack_.push_back(*slot);
  }
}

UserReader::UserReader(const Table* users)
    : users_(users),
      login_(users->ColumnIndex("login")),
      users_id_(users->ColumnIndex("users_id")),
      uid_(users->ColumnIndex("uid")),
      status_(users->ColumnIndex("status")),
      shell_(users->ColumnIndex("shell")),
      fullname_(users->ColumnIndex("fullname")),
      potype_(users->ColumnIndex("potype")),
      pop_id_(users->ColumnIndex("pop_id")),
      box_id_(users->ColumnIndex("box_id")) {}

UserFields UserReader::Read(size_t row) const {
  const Row r = users_->At(row);
  return UserFields{r[login_].AsString(),    r[users_id_].AsInt(), r[uid_].AsInt(),
                    r[status_].AsInt(),      r[shell_].AsString(), r[fullname_].AsString(),
                    r[potype_].AsString(),   r[pop_id_].AsInt(),   r[box_id_].AsInt()};
}

std::vector<std::string> ExpandListToLogins(MoiraContext& mc, int64_t list_id,
                                            bool active_only) {
  std::set<int64_t> seen;
  std::set<std::string> logins;
  ExpandInto(mc, list_id, active_only, /*with_strings=*/true, &seen, &logins);
  return {logins.begin(), logins.end()};
}

std::vector<std::string> ExpandListToUserLogins(MoiraContext& mc, int64_t list_id,
                                                bool active_only) {
  std::set<int64_t> seen;
  std::set<std::string> logins;
  ExpandInto(mc, list_id, active_only, /*with_strings=*/false, &seen, &logins);
  return {logins.begin(), logins.end()};
}

std::map<int64_t, std::vector<GroupMembership>> UserGroupMap(const IdRows& users,
                                                             const IdRows& lists,
                                                             ListMembers& members) {
  const Table* list_table = lists.table();
  const int list_id_col = list_table->ColumnIndex("list_id");
  const int active_col = list_table->ColumnIndex("active");
  const int grouplist_col = list_table->ColumnIndex("grouplist");
  const int name_col = list_table->ColumnIndex("name");
  const int gid_col = list_table->ColumnIndex("gid");
  const int status_col = users.table()->ColumnIndex("status");
  // Active group lists in ascending list id, so each user's pairs come out
  // in UserGroupsFor's order.  A list id on several rows is no list, as
  // ListById finds none.
  std::vector<std::pair<int64_t, size_t>> groups;
  for (size_t row : lists.rows()) {
    const int64_t list_id = list_table->Cell(row, list_id_col).AsInt();
    if (list_table->Cell(row, active_col).AsInt() != 0 &&
        list_table->Cell(row, grouplist_col).AsInt() != 0 && lists.Find(list_id) == row) {
      groups.emplace_back(list_id, row);
    }
  }
  std::sort(groups.begin(), groups.end());
  std::map<int64_t, std::vector<GroupMembership>> out;
  // Per user row, the last group (1-based) that listed it: a user reached
  // by two paths is listed once.
  std::vector<size_t> listed_by(users.table()->SlotCount(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t row = groups[g].second;
    const GroupMembership membership{std::string(list_table->Cell(row, name_col).AsString()),
                                     list_table->Cell(row, gid_col).AsInt()};
    members.Walk(groups[g].first, [&](const ListMembers::Member& member) {
      if (member.type != ListMembers::Type::kUser) {
        return;
      }
      std::optional<size_t> user = users.Find(member.id);
      if (!user.has_value() || listed_by[*user] == g + 1 ||
          users.table()->Cell(*user, status_col).AsInt() != kUserActive) {
        return;
      }
      listed_by[*user] = g + 1;
      out[member.id].push_back(membership);
    });
  }
  return out;
}

std::map<int64_t, std::vector<GroupMembership>> BuildUserGroupMap(MoiraContext& mc) {
  const IdRows users(mc.users(), "users_id");
  const IdRows lists(mc.list(), "list_id");
  ListMembers members(mc.members());
  return UserGroupMap(users, lists, members);
}

std::vector<GroupMembership> UserGroupsFor(MoiraContext& mc, int64_t users_id) {
  std::vector<GroupMembership> out;
  Table* lists = mc.list();
  // The containing-list closure is already ascending by list id, mirroring
  // UserGroupMap's group order.
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

std::string PasswdLine(const UserFields& user) {
  const std::string uid = std::to_string(user.uid);
  std::string line;
  line.reserve(2 * user.login.size() + uid.size() + user.fullname.size() +
               user.shell.size() + 25);
  line.append(user.login).append(":*:").append(uid);
  line.append(":101:");  // the default workstation group, as in the paper's examples
  line.append(user.fullname).append(",,,,:/mit/").append(user.login).append(":");
  line.append(user.shell);
  return line;
}

}  // namespace moira
