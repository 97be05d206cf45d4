// NFS generator (paper section 5.8.2): per-server partition .dirs and
// .quotas files plus the credentials file.  Unlike Hesiod, every NFS server
// receives different partition files, so the payloads are per-host.
//
// credentials (keyed by login) and *.quotas (keyed by uid) go through
// KeyedFile, with line formatters the full build and the incremental patch
// path share; *.dirs changes only on filesystem-topology mutations, which
// escalate to a full NFS regeneration.  The full build reads each table once
// (src/dcm/gen_reads.h); the patch path probes for its dirty records.  Both
// take a value3-restricted server's logins from ExpandListToUserLogins.
//
// Every server whose value3 is blank gets the same credentials: the full
// build adds one master buffer to each of their archives, and the patch path
// gives each of them an equal edit, which the DCM resolves once per pass.
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "src/common/strutil.h"
#include "src/db/exec.h"
#include "src/dcm/gen_reads.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

// One user's credentials line: login:uid followed by every group gid.
std::string CredentialLine(const UserFields& user, const std::vector<GroupMembership>& groups) {
  std::string out(user.login);
  out.append(":").append(std::to_string(user.uid));
  for (const GroupMembership& m : groups) {
    out.append(":").append(std::to_string(m.gid));
  }
  out.append("\n");
  return out;
}

// One quota row's line in its partition's .quotas file.
std::string QuotaLine(int64_t uid, int64_t quota) {
  return StrCat({std::to_string(uid), " ", std::to_string(quota), "\n"});
}

// The credentials contents for every active user (the master file), or
// only for those whose login is in `allowed` when it is given.
std::string BuildCredentials(const IdRows& users,
                             const std::map<int64_t, std::vector<GroupMembership>>& groups,
                             const std::set<std::string_view>* allowed) {
  static const std::vector<GroupMembership> kNoGroups;
  KeyedFile out(KeyRule::kUpToColon);
  const UserReader read_user(users.table());
  for (size_t row : users.rows()) {
    const UserFields user = read_user.Read(row);
    if (user.status != kUserActive || (allowed != nullptr && !allowed->contains(user.login))) {
      continue;
    }
    auto it = groups.find(user.users_id);
    out.AppendLine(CredentialLine(user, it != groups.end() ? it->second : kNoGroups));
  }
  return out.Serialize();
}

// The quota block one uid owns in a partition's .quotas file: that user's
// quota rows on the partition, in storage order (matching the full build's
// whole-table scan).
std::string QuotaBlock(MoiraContext& mc, int64_t users_id, int64_t uid,
                       int64_t phys_id) {
  std::string out;
  Table* quota = mc.nfsquota();
  int q_quota_col = quota->ColumnIndex("quota");
  for (size_t row : From(quota)
                        .WhereEq("users_id", Value(users_id))
                        .WhereEq("phys_id", Value(phys_id))
                        .Rows()) {
    out += QuotaLine(uid, quota->Cell(row, q_quota_col).AsInt());
  }
  return out;
}

void Upsert(MemberEdit* edit, std::string key, std::string block) {
  edit->ops.push_back(PatchOp{PatchOp::kUpsert, std::move(key), std::move(block)});
}

void Delete(MemberEdit* edit, std::string key) {
  edit->ops.push_back(PatchOp{PatchOp::kDelete, std::move(key), ""});
}

}  // namespace

int32_t GenerateNfs(MoiraContext& mc, GeneratorResult* out) {
  const IdRows users(mc.users(), "users_id");
  const IdRows lists(mc.list(), "list_id");
  ListMembers members(mc.members());
  const std::map<int64_t, std::vector<GroupMembership>> groups =
      UserGroupMap(users, lists, members);
  const FileBytes master_credentials = MakeFileBytes(BuildCredentials(users, groups, nullptr));
  const int uid_col = users.table()->ColumnIndex("uid");

  // .dirs lines by physical partition: directory name, owning uid, owning
  // gid, locker type.
  const Table* filesys = mc.filesys();
  const int fs_phys_col = filesys->ColumnIndex("phys_id");
  const int fs_owner_col = filesys->ColumnIndex("owner");
  const int fs_owners_col = filesys->ColumnIndex("owners");
  const int fs_name_col = filesys->ColumnIndex("name");
  const int fs_locker_col = filesys->ColumnIndex("lockertype");
  const int gid_col = lists.table()->ColumnIndex("gid");
  std::map<int64_t, std::string> dirs_by_phys;
  for (size_t row : From(filesys)
                        .WhereEq("type", Value("NFS"))
                        .WhereNe("createflg", Value(int64_t{0}))
                        .Rows()) {
    const int64_t uid = users.IntOf(filesys->Cell(row, fs_owner_col).AsInt(), uid_col, 0);
    const int64_t gid = lists.IntOf(filesys->Cell(row, fs_owners_col).AsInt(), gid_col, 0);
    dirs_by_phys[filesys->Cell(row, fs_phys_col).AsInt()] +=
        StrCat({filesys->Cell(row, fs_name_col).AsString(), " ", std::to_string(uid), " ",
                std::to_string(gid), " ", filesys->Cell(row, fs_locker_col).AsString(), "\n"});
  }

  // .quotas files by physical partition.
  const Table* quota = mc.nfsquota();
  const int q_phys_col = quota->ColumnIndex("phys_id");
  const int q_user_col = quota->ColumnIndex("users_id");
  const int q_quota_col = quota->ColumnIndex("quota");
  std::map<int64_t, KeyedFile> quotas_by_phys;
  for (size_t row : From(quota).Rows()) {
    quotas_by_phys[quota->Cell(row, q_phys_col).AsInt()].AppendLine(
        QuotaLine(users.IntOf(quota->Cell(row, q_user_col).AsInt(), uid_col, 0),
                  quota->Cell(row, q_quota_col).AsInt()));
  }

  // Partitions by machine, in storage order.
  const Table* phys = mc.nfsphys();
  const int p_id_col = phys->ColumnIndex("nfsphys_id");
  const int p_mach_col = phys->ColumnIndex("mach_id");
  const int p_dir_col = phys->ColumnIndex("dir");
  std::map<int64_t, std::vector<size_t>> phys_by_machine;
  for (size_t row : From(phys).Rows()) {
    phys_by_machine[phys->Cell(row, p_mach_col).AsInt()].push_back(row);
  }

  // Assemble one archive per NFS serverhost.
  const IdRows machines(mc.machine(), "mach_id");
  const int mach_name_col = machines.table()->ColumnIndex("name");
  const Table* sh = mc.serverhosts();
  const int sh_mach_col = sh->ColumnIndex("mach_id");
  const int sh_value3_col = sh->ColumnIndex("value3");
  for (size_t row : From(sh).WhereEq("service", Value("NFS")).Rows()) {
    const int64_t mach_id = sh->Cell(row, sh_mach_col).AsInt();
    std::optional<size_t> mach = machines.Find(mach_id);
    if (!mach.has_value()) {
      continue;
    }
    Archive archive;
    // Per-partition files for every partition exported by this machine.
    if (auto it = phys_by_machine.find(mach_id); it != phys_by_machine.end()) {
      for (size_t p : it->second) {
        const int64_t phys_id = phys->Cell(p, p_id_col).AsInt();
        std::string stem = PartitionStem(phys->Cell(p, p_dir_col).AsString());
        archive.Add(stem + ".dirs", dirs_by_phys[phys_id]);
        archive.Add(stem + ".quotas", quotas_by_phys[phys_id].Serialize());
      }
    }
    // Which credentials file this server gets is determined by value3: blank
    // means all active users, otherwise the named list's membership.
    std::string_view value3 = sh->Cell(row, sh_value3_col).AsString();
    if (value3.empty()) {
      archive.Add("credentials", master_credentials);
    } else {
      RowRef list = mc.ListByName(value3);
      std::string credentials;
      if (list.code == MR_SUCCESS) {
        const std::vector<std::string> logins = ExpandListToUserLogins(
            mc, MoiraContext::IntCell(mc.list(), list.row, "list_id"), /*active_only=*/true);
        const std::set<std::string_view> allowed(logins.begin(), logins.end());
        credentials = BuildCredentials(users, groups, &allowed);
      }
      archive.Add("credentials", credentials);
    }
    out->per_host[std::string(machines.table()->Cell(*mach, mach_name_col).AsString())] =
        std::move(archive);
  }
  return MR_SUCCESS;
}

int32_t BuildNfsPatch(MoiraContext& mc, const DeltaPlan& plan,
                      const GeneratorResult& staged, ServicePatch* out) {
  // Per-user credentials edits, fanned out to every NFS serverhost (each may
  // restrict its credentials file to one list's membership via value3).
  if (!plan.users.empty()) {
    // Each dirty login's line, or nullopt when the user is not active,
    // computed once; a host only filters them by its value3 list.
    std::vector<std::pair<const std::string*, std::optional<std::string>>> lines;
    lines.reserve(plan.users.size());
    const UserReader read_user(mc.users());
    for (const std::string& login : plan.users) {
      RowRef user = mc.UserByLogin(login);
      if (user.code != MR_SUCCESS) {
        return user.code;
      }
      std::optional<std::string> line;
      if (MoiraContext::IntCell(mc.users(), user.row, "status") == kUserActive) {
        line = CredentialLine(
            read_user.Read(user.row),
            UserGroupsFor(mc, MoiraContext::IntCell(mc.users(), user.row, "users_id")));
      }
      lines.emplace_back(&login, std::move(line));
    }
    Table* sh = mc.serverhosts();
    int sh_mach_col = sh->ColumnIndex("mach_id");
    int sh_value3_col = sh->ColumnIndex("value3");
    for (size_t row : From(sh).WhereEq("service", Value("NFS")).Rows()) {
      RowRef mach = mc.ExactOne(mc.machine(), "mach_id",
                                Value(sh->Cell(row, sh_mach_col).AsInt()), MR_MACHINE);
      if (mach.code != MR_SUCCESS) {
        continue;  // the full build skips this serverhost too
      }
      const std::string& machine_name =
          MoiraContext::StrCell(mc.machine(), mach.row, "name");
      if (!staged.per_host.contains(machine_name)) {
        return MR_NO_MATCH;  // serverhost appeared since the staged pass
      }
      std::string_view value3 = sh->Cell(row, sh_value3_col).AsString();
      bool restrict = !value3.empty();
      std::set<std::string> allowed;
      if (restrict) {
        RowRef list = mc.ListByName(value3);
        if (list.code != MR_SUCCESS) {
          continue;  // full build ships an empty credentials file
        }
        for (const std::string& login : ExpandListToUserLogins(
                 mc, MoiraContext::IntCell(mc.list(), list.row, "list_id"),
                 /*active_only=*/true)) {
          allowed.insert(login);
        }
      }
      MemberEdit& edit = out->per_host[machine_name]["credentials"];
      edit.rule = KeyRule::kUpToColon;
      for (const auto& [login, line] : lines) {
        if (line.has_value() && (!restrict || allowed.contains(*login))) {
          Upsert(&edit, *login, *line);
        } else {
          Delete(&edit, *login);
        }
      }
    }
  }

  // Per-(filesystem, login) quota edits on the owning partition's file.
  for (const auto& [label, login] : plan.quotas) {
    RowRef fs = mc.ExactOne(mc.filesys(), "label", Value(label), MR_FILESYS);
    if (fs.code != MR_SUCCESS) {
      return fs.code;  // label gone: the delta window is not reconstructible
    }
    int64_t phys_id = MoiraContext::IntCell(mc.filesys(), fs.row, "phys_id");
    RowRef phys = mc.ExactOne(mc.nfsphys(), "nfsphys_id", Value(phys_id), MR_NFSPHYS);
    if (phys.code != MR_SUCCESS) {
      return phys.code;
    }
    RowRef mach = mc.ExactOne(mc.machine(), "mach_id",
                              Value(MoiraContext::IntCell(mc.nfsphys(), phys.row, "mach_id")),
                              MR_MACHINE);
    if (mach.code != MR_SUCCESS) {
      continue;  // partition not exported by any reachable serverhost
    }
    const std::string& machine_name =
        MoiraContext::StrCell(mc.machine(), mach.row, "name");
    if (!staged.per_host.contains(machine_name)) {
      continue;  // no NFS serverhost on that machine: file exists in no archive
    }
    RowRef user = mc.UserByLogin(login);
    if (user.code != MR_SUCCESS) {
      return user.code;
    }
    int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
    int64_t uid = MoiraContext::IntCell(mc.users(), user.row, "uid");
    std::string stem = PartitionStem(MoiraContext::StrCell(mc.nfsphys(), phys.row, "dir"));
    MemberEdit& edit = out->per_host[machine_name][stem + ".quotas"];
    std::string block = QuotaBlock(mc, users_id, uid, phys_id);
    if (block.empty()) {
      Delete(&edit, std::to_string(uid));
    } else {
      Upsert(&edit, std::to_string(uid), std::move(block));
    }
  }

  for (auto host_it = out->per_host.begin(); host_it != out->per_host.end();) {
    auto& edits = host_it->second;
    for (auto it = edits.begin(); it != edits.end();) {
      it = (it->second.ops.empty() && !it->second.replace) ? edits.erase(it)
                                                           : std::next(it);
    }
    host_it = edits.empty() ? out->per_host.erase(host_it) : std::next(host_it);
  }
  return MR_SUCCESS;
}

}  // namespace moira
