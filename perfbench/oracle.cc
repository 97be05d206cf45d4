#include "perfbench/oracle.h"

#include <algorithm>

#include "src/comerr/moira_errors.h"
#include "src/core/schema.h"

namespace perfbench {

using moira::MoiraContext;
using moira::Table;

namespace {

std::string Str(const Table* table, size_t row, const char* column) {
  return MoiraContext::StrCell(table, row, column);
}

int64_t Int(const Table* table, size_t row, const char* column) {
  return MoiraContext::IntCell(table, row, column);
}

std::vector<size_t> LiveRows(const Table* table) {
  std::vector<size_t> rows;
  table->Scan([&](size_t row, const moira::Row&) {
    rows.push_back(row);
    return true;
  });
  return rows;
}

Check Ok() { return Check{}; }

Check Fail(Verdict verdict, std::string_view query, std::string_view what) {
  return Check{verdict, std::string(query) + "." + std::string(what)};
}

// Expect a refusal: MR_PERM (or, where the program hides the object instead
// of refusing, MR_NO_MATCH).
Check ExpectRefusal(std::string_view query, const Answer& answer) {
  if (answer.code == moira::MR_PERM || answer.code == moira::MR_NO_MATCH) {
    return Ok();
  }
  return Fail(Verdict::kWrong, query, "not_refused");
}

// Expect success; `match` checks the tuples.
template <typename Match>
Check ExpectTuples(std::string_view query, const Answer& answer, Match match) {
  if (answer.code != moira::MR_SUCCESS) {
    return Fail(Verdict::kRefused, query, "refused");
  }
  return match(answer.tuples) ? Ok() : Fail(Verdict::kWrong, query, "wrong_answer");
}

bool SelfOrAdmin(const SiteModel& site, std::string_view principal, std::string_view login) {
  return principal == login || principal == site.admin();
}

bool MaySeeList(const SiteModel& site, std::string_view principal, const ListInfo& list) {
  if (!list.hidden || principal == site.admin()) {
    return true;
  }
  const UserInfo* user = site.User(principal);
  return user != nullptr && list.ace_user == user->users_id;
}

}  // namespace

SiteModel SiteModel::Read(MoiraContext& mc, const std::string& admin) {
  SiteModel site;
  site.admin_ = admin;
  const Table* users = mc.users();
  std::vector<size_t> user_rows = LiveRows(users);
  std::sort(user_rows.begin(), user_rows.end(), [&](size_t a, size_t b) {
    return Int(users, a, "users_id") < Int(users, b, "users_id");
  });
  int64_t first_id = -1;
  for (size_t row : user_rows) {
    UserInfo user;
    user.login = Str(users, row, "login");
    user.users_id = Int(users, row, "users_id");
    user.uid = Int(users, row, "uid");
    user.first = Str(users, row, "first");
    user.last = Str(users, row, "last");
    user.middle = Str(users, row, "middle");
    user.status = Int(users, row, "status");
    user.shell = Str(users, row, "shell");
    user.fullname = Str(users, row, "fullname");
    user.potype = Str(users, row, "potype");
    if (user.login != admin) {
      if (first_id < 0) {
        first_id = user.users_id;
      }
      user.index = static_cast<int>(user.users_id - first_id);
      if (user.status == moira::kUserActive) {
        site.active_logins_.push_back(user.login);
      } else if (user.status == moira::kUserNotRegistered) {
        site.unregistered_.push_back(user.index);
      }
    }
    site.by_login_[user.login] = site.users_.size();
    site.by_id_[user.users_id] = site.users_.size();
    if (user.index >= 0) {
      site.by_index_[user.index] = site.users_.size();
    }
    site.users_.push_back(std::move(user));
  }

  const Table* list = mc.list();
  std::vector<size_t> list_rows = LiveRows(list);
  std::sort(list_rows.begin(), list_rows.end(), [&](size_t a, size_t b) {
    return Int(list, a, "list_id") < Int(list, b, "list_id");
  });
  std::map<int64_t, std::string> list_name_of;
  for (size_t row : list_rows) {
    ListInfo info;
    info.name = Str(list, row, "name");
    info.hidden = Int(list, row, "hidden") != 0;
    info.is_public = Int(list, row, "public") != 0;
    if (Str(list, row, "acl_type") == "USER") {
      info.ace_user = Int(list, row, "acl_id");
    }
    list_name_of[Int(list, row, "list_id")] = info.name;
    site.list_names_.push_back(info.name);
    if (info.is_public) {
      site.public_lists_.push_back(info.name);
    }
    if (Int(list, row, "grouplist") != 0 && info.name.starts_with("prj-")) {
      site.group_lists_.push_back(info.name);
    }
    site.lists_[info.name] = std::move(info);
  }
  const Table* members = mc.members();
  for (size_t row : LiveRows(members)) {
    auto it = list_name_of.find(Int(members, row, "list_id"));
    if (it == list_name_of.end()) {
      continue;
    }
    ListInfo& info = site.lists_[it->second];
    if (Str(members, row, "member_type") == "USER") {
      info.users.insert(Int(members, row, "member_id"));
      site.lists_of_[Int(members, row, "member_id")].insert(info.name);
    } else {
      ++info.other_members;
    }
  }

  std::map<int64_t, std::string> machine_name;
  for (size_t row : LiveRows(mc.machine())) {
    machine_name[Int(mc.machine(), row, "mach_id")] = Str(mc.machine(), row, "name");
  }
  std::map<int64_t, std::string> cluster_name;
  for (size_t row : LiveRows(mc.cluster())) {
    cluster_name[Int(mc.cluster(), row, "clu_id")] = Str(mc.cluster(), row, "name");
    site.clusters_.push_back(Str(mc.cluster(), row, "name"));
  }
  for (size_t row : LiveRows(mc.mcmap())) {
    ++site.cluster_machines_[cluster_name[Int(mc.mcmap(), row, "clu_id")]];
  }
  std::map<int64_t, Partition> partition_of;
  for (size_t row : LiveRows(mc.nfsphys())) {
    Partition partition{machine_name[Int(mc.nfsphys(), row, "mach_id")],
                        Str(mc.nfsphys(), row, "dir")};
    partition_of[Int(mc.nfsphys(), row, "nfsphys_id")] = partition;
    site.partitions_.push_back(partition);
    site.quotas_[partition];
  }
  const Table* quota = mc.nfsquota();
  for (size_t row : LiveRows(quota)) {
    const UserInfo* user = site.UserById(Int(quota, row, "users_id"));
    auto it = partition_of.find(Int(quota, row, "phys_id"));
    if (user == nullptr || it == partition_of.end()) {
      continue;
    }
    site.quotas_[it->second][user->login] = Int(quota, row, "quota");
    site.home_[user->login] = it->second;
  }
  return site;
}

const UserInfo* SiteModel::User(std::string_view login) const {
  auto it = by_login_.find(login);
  return it == by_login_.end() ? nullptr : &users_[it->second];
}

UserInfo* SiteModel::MutableUser(std::string_view login) {
  auto it = by_login_.find(login);
  return it == by_login_.end() ? nullptr : &users_[it->second];
}

const UserInfo* SiteModel::UserById(int64_t users_id) const {
  auto it = by_id_.find(users_id);
  return it == by_id_.end() ? nullptr : &users_[it->second];
}

const UserInfo* SiteModel::UserByIndex(int index) const {
  auto it = by_index_.find(index);
  return it == by_index_.end() ? nullptr : &users_[it->second];
}

const ListInfo* SiteModel::List(std::string_view name) const {
  auto it = lists_.find(name);
  return it == lists_.end() ? nullptr : &it->second;
}

const std::set<std::string>& SiteModel::ListsOf(int64_t users_id) const {
  static const std::set<std::string> kNone;
  auto it = lists_of_.find(users_id);
  return it == lists_of_.end() ? kNone : it->second;
}

void SiteModel::AddMember(const std::string& list, int64_t users_id) {
  lists_[list].users.insert(users_id);
  lists_of_[users_id].insert(list);
}

void SiteModel::RemoveMember(const std::string& list, int64_t users_id) {
  lists_[list].users.erase(users_id);
  lists_of_[users_id].erase(list);
}

size_t SiteModel::ClusterMachines(const std::string& cluster) const {
  auto it = cluster_machines_.find(cluster);
  return it == cluster_machines_.end() ? 0 : it->second;
}

size_t SiteModel::UsersNamed(std::string_view first, std::string_view last_prefix) const {
  return static_cast<size_t>(std::count_if(users_.begin(), users_.end(), [&](const UserInfo& u) {
    return u.first == first && u.last.starts_with(last_prefix);
  }));
}

const std::map<std::string, int64_t>& SiteModel::Quotas(const Partition& partition) const {
  static const std::map<std::string, int64_t> kNone;
  auto it = quotas_.find(partition);
  return it == quotas_.end() ? kNone : it->second;
}

const Partition* SiteModel::HomePartition(std::string_view login) const {
  auto it = home_.find(login);
  return it == home_.end() ? nullptr : &it->second;
}

void SiteModel::SetQuota(const std::string& login, int64_t quota) {
  auto it = home_.find(login);
  if (it != home_.end()) {
    quotas_[it->second][login] = quota;
  }
}

void SiteModel::Register(int index, const std::string& login) {
  auto it = by_index_.find(index);
  if (it == by_index_.end()) {
    return;
  }
  UserInfo& user = users_[it->second];
  by_login_.erase(user.login);
  user.login = login;
  user.status = moira::kUserActive;
  user.potype = "POP";
  by_login_[login] = it->second;
  ListInfo group;
  group.name = login;
  group.ace_user = user.users_id;
  lists_[login] = std::move(group);
  list_names_.push_back(login);
  AddMember(login, user.users_id);
}

Check CheckRead(const SiteModel& site, std::string_view principal, std::string_view query,
                const std::vector<std::string>& args, const Answer& answer) {
  if (query == "get_user_by_login") {
    const UserInfo* user = site.User(args[0]);
    if (!SelfOrAdmin(site, principal, args[0])) {
      return ExpectRefusal(query, answer);
    }
    return ExpectTuples(query, answer, [&](const std::vector<moira::Tuple>& t) {
      return user != nullptr && t.size() == 1 && t[0].size() >= 7 && t[0][0] == user->login &&
             t[0][2] == user->shell && t[0][6] == std::to_string(user->status);
    });
  }
  if (query == "get_finger_by_login") {
    const UserInfo* user = site.User(args[0]);
    return ExpectTuples(query, answer, [&](const std::vector<moira::Tuple>& t) {
      return user != nullptr && t.size() == 1 && t[0].size() >= 2 &&
             t[0][0] == user->login && t[0][1] == user->fullname;
    });
  }
  if (query == "get_pobox") {
    const UserInfo* user = site.User(args[0]);
    if (!SelfOrAdmin(site, principal, args[0])) {
      return ExpectRefusal(query, answer);
    }
    return ExpectTuples(query, answer, [&](const std::vector<moira::Tuple>& t) {
      return user != nullptr && t.size() == 1 && t[0].size() >= 2 &&
             t[0][0] == user->login && t[0][1] == user->potype;
    });
  }
  if (query == "get_filesys_by_label") {
    return ExpectTuples(query, answer, [&](const std::vector<moira::Tuple>& t) {
      return !t.empty() && std::all_of(t.begin(), t.end(), [&](const moira::Tuple& row) {
        return !row.empty() && row[0] == args[0];
      });
    });
  }
  if (query == "get_lists_of_member") {
    if (!SelfOrAdmin(site, principal, args[1])) {
      return ExpectRefusal(query, answer);
    }
    const UserInfo* user = site.User(args[1]);
    if (user == nullptr) {
      return Fail(Verdict::kWrong, query, "unknown_user");
    }
    const std::set<std::string>& expected = site.ListsOf(user->users_id);
    return ExpectTuples(query, answer, [&](const std::vector<moira::Tuple>& t) {
      std::set<std::string> got;
      for (const moira::Tuple& row : t) {
        got.insert(row.empty() ? std::string() : row[0]);
      }
      return got == expected && got.size() == t.size();
    });
  }
  if (query == "get_list_info" || query == "get_members_of_list") {
    const ListInfo* list = site.List(args[0]);
    if (list == nullptr) {
      return Fail(Verdict::kWrong, query, "unknown_list");
    }
    if (!MaySeeList(site, principal, *list)) {
      return ExpectRefusal(query, answer);
    }
    bool admin_override = list->hidden && principal == site.admin() &&
                          !(site.User(principal) != nullptr &&
                            list->ace_user == site.User(principal)->users_id);
    if (answer.code != moira::MR_SUCCESS) {
      return admin_override ? Check{Verdict::kRefused, "admin_hidden_list.refused"}
                            : Fail(Verdict::kRefused, query, "refused");
    }
    bool matches;
    if (query == "get_list_info") {
      matches = answer.tuples.size() == 1 && answer.tuples[0].size() >= 4 &&
                answer.tuples[0][0] == list->name &&
                answer.tuples[0][3] == (list->hidden ? "1" : "0");
    } else {
      std::set<int64_t> users;
      size_t others = 0;
      for (const moira::Tuple& row : answer.tuples) {
        const UserInfo* user = row.size() == 2 && row[0] == "USER" ? site.User(row[1]) : nullptr;
        if (user != nullptr) {
          users.insert(user->users_id);
        } else {
          ++others;
        }
      }
      matches = users == list->users && others == list->other_members;
    }
    return matches ? Ok() : Fail(Verdict::kWrong, query, "wrong_answer");
  }
  if (query == "get_user_by_name") {
    std::string_view prefix(args[1]);
    if (prefix.ends_with('*')) {
      prefix.remove_suffix(1);
    }
    size_t expected = site.UsersNamed(args[0], prefix);
    if (expected == 0) {
      return answer.code == moira::MR_NO_MATCH ? Ok()
                                               : Fail(Verdict::kWrong, query, "wrong_answer");
    }
    return ExpectTuples(query, answer, [&](const std::vector<moira::Tuple>& t) {
      return t.size() == expected;
    });
  }
  if (query == "get_machine_to_cluster_map") {
    size_t expected = site.ClusterMachines(args[1]);
    return ExpectTuples(query, answer, [&](const std::vector<moira::Tuple>& t) {
      return t.size() == expected;
    });
  }
  if (query == "get_nfs_quotas_by_partition") {
    if (principal != site.admin()) {
      return ExpectRefusal(query, answer);
    }
    const std::map<std::string, int64_t>& expected = site.Quotas({args[0], args[1]});
    return ExpectTuples(query, answer, [&](const std::vector<moira::Tuple>& t) {
      std::map<std::string, int64_t> got;
      for (const moira::Tuple& row : t) {
        if (row.size() < 3) {
          return false;
        }
        got[row[1]] = std::stoll(row[2]);
      }
      return got == expected && got.size() == t.size();
    });
  }
  return Fail(Verdict::kWrong, query, "unchecked_query");
}

Check CheckWrite(SiteModel* site, std::string_view principal, std::string_view query,
                 const std::vector<std::string>& args, const Answer& answer) {
  auto expect_success = [&]() {
    return answer.code == moira::MR_SUCCESS ? Ok()
                                            : Fail(Verdict::kRefused, query, "refused");
  };
  if (query == "update_user_shell" || query == "update_finger_by_login") {
    if (!SelfOrAdmin(*site, principal, args[0])) {
      return ExpectRefusal(query, answer);
    }
    Check check = expect_success();
    UserInfo* user = site->MutableUser(args[0]);
    if (check.verdict == Verdict::kOk && user != nullptr) {
      (query == "update_user_shell" ? user->shell : user->fullname) = args[1];
    }
    return check;
  }
  if (query == "add_member_to_list" || query == "delete_member_from_list") {
    const ListInfo* list = site->List(args[0]);
    const UserInfo* member = site->User(args[2]);
    if (list == nullptr || member == nullptr || args[1] != "USER") {
      return Fail(Verdict::kWrong, query, "unchecked_args");
    }
    const UserInfo* caller = site->User(principal);
    bool allowed = principal == site->admin() ||
                   (caller != nullptr && list->ace_user == caller->users_id) ||
                   (principal == args[2] && list->is_public);
    if (!allowed) {
      return ExpectRefusal(query, answer);
    }
    bool adding = query == "add_member_to_list";
    bool present = list->users.contains(member->users_id);
    if (adding == present) {
      int32_t expected = adding ? moira::MR_EXISTS : moira::MR_NO_MATCH;
      return answer.code == expected ? Ok() : Fail(Verdict::kWrong, query, "wrong_answer");
    }
    Check check = expect_success();
    if (check.verdict == Verdict::kOk) {
      if (adding) {
        site->AddMember(args[0], member->users_id);
      } else {
        site->RemoveMember(args[0], member->users_id);
      }
    }
    return check;
  }
  if (query == "update_nfs_quota") {
    if (principal != site->admin()) {
      return ExpectRefusal(query, answer);
    }
    Check check = expect_success();
    if (check.verdict == Verdict::kOk) {
      site->SetQuota(args[1], std::stoll(args[2]));
    }
    return check;
  }
  return Fail(Verdict::kWrong, query, "unchecked_query");
}

bool ExpectedFailure(std::string_view failure_class) {
  return failure_class == "admin_hidden_list.refused" ||
         failure_class == "register.not_journalled" ||
         failure_class == "add_member_to_list.replica_apply_failed";
}

void Ledger::Record(const Check& check) {
  ++attempted_;
  if (check.verdict == Verdict::kOk) {
    return;
  }
  ++failed_;
  if (!ExpectedFailure(check.failure_class)) {
    ++unexpected_;
  }
  ++classes_[check.failure_class];
}

}  // namespace perfbench
