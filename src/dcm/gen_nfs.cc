// NFS generator (paper section 5.8.2): per-server partition .dirs and
// .quotas files plus the credentials file.  Unlike Hesiod, every NFS server
// receives different partition files, so the payloads are per-host.
//
// credentials (keyed by login) and *.quotas (keyed by uid) go through
// KeyedFile for the incremental patch path; *.dirs changes only on
// filesystem-topology mutations, which escalate to a full NFS regeneration.
#include <map>
#include <set>

#include "src/common/strutil.h"
#include "src/db/exec.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

// Flattens a partition directory ("/u1") into a file-name stem ("u1").
std::string PartitionStem(std::string_view dir) {
  std::string out;
  for (char c : dir) {
    if (c == '/') {
      if (!out.empty()) {
        out += '_';
      }
    } else {
      out += c;
    }
  }
  return out.empty() ? "root" : out;
}

// One user's credentials line: login:uid followed by every group gid.
std::string CredentialLine(MoiraContext& mc, size_t user_row,
                           const std::vector<GroupMembership>& groups) {
  std::string out = MoiraContext::StrCell(mc.users(), user_row, "login");
  out += ":";
  out += std::to_string(MoiraContext::IntCell(mc.users(), user_row, "uid"));
  for (const GroupMembership& m : groups) {
    out += ":" + std::to_string(m.gid);
  }
  out += "\n";
  return out;
}

// Builds the credentials contents for every active user (the master file),
// or for the membership of `list_id` if non-negative.
std::string BuildCredentials(MoiraContext& mc,
                             const std::map<int64_t, std::vector<GroupMembership>>& groups,
                             int64_t list_id) {
  KeyedFile out(KeyRule::kUpToColon);
  Table* users = mc.users();
  int users_id_col = users->ColumnIndex("users_id");
  std::map<std::string, bool> allowed;
  bool restrict = list_id >= 0;
  if (restrict) {
    for (const std::string& login : ExpandListToLogins(mc, list_id, /*active_only=*/true)) {
      allowed[login] = true;
    }
  }
  static const std::vector<GroupMembership> kNoGroups;
  From(users)
      .WhereEq("status", Value(int64_t{kUserActive}))
      .Emit([&](const std::vector<size_t>& rows) {
        size_t row = rows[0];
        if (restrict &&
            !allowed.contains(MoiraContext::StrCell(users, row, "login"))) {
          return;
        }
        auto it = groups.find(users->Cell(row, users_id_col).AsInt());
        out.AppendLine(
            CredentialLine(mc, row, it != groups.end() ? it->second : kNoGroups));
      });
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
    out += std::to_string(uid) + " " +
           std::to_string(quota->Cell(row, q_quota_col).AsInt()) + "\n";
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
  std::map<int64_t, std::vector<GroupMembership>> groups = BuildUserGroupMap(mc);
  std::string master_credentials = BuildCredentials(mc, groups, -1);

  // Index filesystems and quotas by physical partition.
  Table* filesys = mc.filesys();
  Table* quota = mc.nfsquota();
  Table* phys = mc.nfsphys();
  Table* users = mc.users();
  std::map<int64_t, std::string> dirs_by_phys;
  std::map<int64_t, KeyedFile> quotas_by_phys;

  int fs_phys_col = filesys->ColumnIndex("phys_id");
  From(filesys)
      .WhereEq("type", Value("NFS"))
      .WhereNe("createflg", Value(int64_t{0}))
      .Emit([&](const std::vector<size_t>& rows) {
        size_t row = rows[0];
        // directory name, owning uid, owning gid, locker type.
        int64_t owner_id = MoiraContext::IntCell(filesys, row, "owner");
        int64_t owners_list = MoiraContext::IntCell(filesys, row, "owners");
        RowRef owner = mc.ExactOne(users, "users_id", Value(owner_id), MR_USER);
        int64_t uid =
            owner.code == MR_SUCCESS ? MoiraContext::IntCell(users, owner.row, "uid") : 0;
        RowRef group = mc.ExactOne(mc.list(), "list_id", Value(owners_list), MR_LIST);
        int64_t gid = group.code == MR_SUCCESS
                          ? MoiraContext::IntCell(mc.list(), group.row, "gid")
                          : 0;
        dirs_by_phys[filesys->Cell(row, fs_phys_col).AsInt()] +=
            MoiraContext::StrCell(filesys, row, "name") + " " + std::to_string(uid) + " " +
            std::to_string(gid) + " " + MoiraContext::StrCell(filesys, row, "lockertype") +
            "\n";
      });

  int q_phys_col = quota->ColumnIndex("phys_id");
  int q_user_col = quota->ColumnIndex("users_id");
  int q_quota_col = quota->ColumnIndex("quota");
  From(quota).Emit([&](const std::vector<size_t>& rows) {
    size_t row = rows[0];
    RowRef user =
        mc.ExactOne(users, "users_id", Value(quota->Cell(row, q_user_col).AsInt()), MR_USER);
    int64_t uid = user.code == MR_SUCCESS ? MoiraContext::IntCell(users, user.row, "uid") : 0;
    quotas_by_phys[quota->Cell(row, q_phys_col).AsInt()].AppendLine(
        std::to_string(uid) + " " + std::to_string(quota->Cell(row, q_quota_col).AsInt()) +
        "\n");
  });

  // Assemble one archive per NFS serverhost.
  Table* sh = mc.serverhosts();
  int sh_mach_col = sh->ColumnIndex("mach_id");
  int sh_value3_col = sh->ColumnIndex("value3");
  for (size_t row : From(sh).WhereEq("service", Value("NFS")).Rows()) {
    int64_t mach_id = sh->Cell(row, sh_mach_col).AsInt();
    RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(mach_id), MR_MACHINE);
    if (mach.code != MR_SUCCESS) {
      continue;
    }
    const std::string& machine_name = MoiraContext::StrCell(mc.machine(), mach.row, "name");
    Archive archive;
    // Per-partition files for every partition exported by this machine.
    for (size_t p : From(phys).WhereEq("mach_id", Value(mach_id)).Rows()) {
      int64_t phys_id = MoiraContext::IntCell(phys, p, "nfsphys_id");
      std::string stem = PartitionStem(MoiraContext::StrCell(phys, p, "dir"));
      archive.Add(stem + ".dirs", dirs_by_phys[phys_id]);
      archive.Add(stem + ".quotas", quotas_by_phys[phys_id].Serialize());
    }
    // Which credentials file this server gets is determined by value3: blank
    // means all active users, otherwise the named list's membership.
    std::string_view value3 = sh->Cell(row, sh_value3_col).AsString();
    if (value3.empty()) {
      archive.Add("credentials", master_credentials);
    } else {
      RowRef list = mc.ListByName(value3);
      archive.Add("credentials",
                  list.code == MR_SUCCESS
                      ? BuildCredentials(mc, groups,
                                         MoiraContext::IntCell(mc.list(), list.row,
                                                               "list_id"))
                      : std::string());
    }
    out->per_host[machine_name] = std::move(archive);
  }
  return MR_SUCCESS;
}

int32_t BuildNfsPatch(MoiraContext& mc, const DeltaPlan& plan,
                      const GeneratorResult& staged, ServicePatch* out) {
  // Per-user credentials edits, fanned out to every NFS serverhost (each may
  // restrict its credentials file to one list's membership via value3).
  if (!plan.users.empty()) {
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
        for (const std::string& login : ExpandListToLogins(
                 mc, MoiraContext::IntCell(mc.list(), list.row, "list_id"),
                 /*active_only=*/true)) {
          allowed.insert(login);
        }
      }
      MemberEdit& edit = out->per_host[machine_name]["credentials"];
      edit.rule = KeyRule::kUpToColon;
      for (const std::string& login : plan.users) {
        RowRef user = mc.UserByLogin(login);
        if (user.code != MR_SUCCESS) {
          return user.code;
        }
        bool present =
            MoiraContext::IntCell(mc.users(), user.row, "status") == kUserActive &&
            (!restrict || allowed.contains(login));
        if (present) {
          int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
          Upsert(&edit, login,
                 CredentialLine(mc, user.row, UserGroupsFor(mc, users_id)));
        } else {
          Delete(&edit, login);
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
