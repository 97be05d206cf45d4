// Hesiod generator: the 11 BIND-format .db files of paper section 5.8.2.
// All hesiod target machines receive identical files, so the DCM prepares one
// archive and propagates it to every target host.
//
// The per-record files (passwd/uid/pobox/grplist/group/gid) are emitted
// through KeyedFile, one line per record from formatting functions that the
// full build and the incremental patch path share, so both produce
// byte-identical output.  The full build reads each table once
// (src/dcm/gen_reads.h); the patch path probes for its dirty records.  The
// small topology files (cluster/filsys/printcap/service/sloc) are rebuilt
// whole and shipped as replacements when dirty.
#include <map>
#include <string_view>

#include "src/common/strutil.h"
#include "src/db/exec.h"
#include "src/dcm/gen_reads.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

// "<name>.<type> HS UNSPECA "<data>"", one record line.
std::string UnspecA(std::string_view name, std::string_view type, std::string_view data) {
  return StrCat({name, ".", type, " HS UNSPECA \"", data, "\"\n"});
}

// "<name>.<type> HS CNAME <target>.<target_type>".
std::string Cname(std::string_view name, std::string_view type, std::string_view target,
                  std::string_view target_type) {
  return StrCat({name, ".", type, " HS CNAME ", target, ".", target_type, "\n"});
}

// The patch builder's probe for one machine name.
std::string MachineNameById(MoiraContext& mc, int64_t mach_id) {
  RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(mach_id), MR_MACHINE);
  return mach.code == MR_SUCCESS ? MoiraContext::StrCell(mc.machine(), mach.row, "name")
                                 : "???";
}

// The same names from one scan of the machine relation.
class MachineNames {
 public:
  explicit MachineNames(const Table* machine)
      : rows_(machine, "mach_id"), name_col_(machine->ColumnIndex("name")) {}
  std::string_view operator()(int64_t mach_id) const {
    return rows_.StrOf(mach_id, name_col_, "???");
  }

 private:
  IdRows rows_;
  int name_col_;
};

// --- per-record lines, shared by the full build and the patch builder ---

std::string UserPasswdLine(const UserFields& user) {
  return UnspecA(user.login, "passwd", PasswdLine(user));
}

std::string UserUidLine(const UserFields& user) {
  return Cname(std::to_string(user.uid), "uid", user.login, "passwd");
}

// Empty unless the user has a POP box; `pop_machine` names user.pop_id.
std::string UserPoboxLine(const UserFields& user, std::string_view pop_machine) {
  if (user.potype != "POP") {
    return "";
  }
  return UnspecA(user.login, "pobox", StrCat({"POP ", pop_machine, " ", user.login}));
}

std::string GrplistLine(std::string_view login, const std::vector<GroupMembership>& groups) {
  std::string data(login);
  // The user's own group (named after the login) leads, as in the paper's
  // examples.
  for (const GroupMembership& m : groups) {
    if (m.group_name == login) {
      data.append(":").append(std::to_string(m.gid));
    }
  }
  for (const GroupMembership& m : groups) {
    if (m.group_name != login) {
      data.append(":").append(m.group_name).append(":").append(std::to_string(m.gid));
    }
  }
  return UnspecA(login, "grplist", data);
}

std::string GroupLine(std::string_view name, int64_t gid) {
  return UnspecA(name, "group", StrCat({name, ":*:", std::to_string(gid), ":"}));
}

std::string GidLine(std::string_view name, int64_t gid) {
  return Cname(std::to_string(gid), "gid", name, "group");
}

// --- whole files: the small topology files, which the patch builder
// rebuilds whole, and the per-record files of the full build ---

// cluster.db: per-cluster service data plus a CNAME for every machine; a
// machine in several clusters gets a pseudo-cluster with the union of the
// data (paper section 5.8.2, CLUSTER.DB).
std::string BuildClusterDb(MoiraContext& mc, const MachineNames& machine_name) {
  std::string out =
      "; lines for per-cluster info (type UNSPECA)\n"
      "; and a line for each machine (CNAME referring to one of the lines above)\n;\n";
  const Table* cluster = mc.cluster();
  const Table* svc = mc.svc();
  const Table* mcmap = mc.mcmap();
  const int clu_id_col = cluster->ColumnIndex("clu_id");
  const int clu_name_col = cluster->ColumnIndex("name");
  std::map<int64_t, std::string_view> cluster_names;
  for (size_t row : From(cluster).Rows()) {
    cluster_names[cluster->Cell(row, clu_id_col).AsInt()] =
        cluster->Cell(row, clu_name_col).AsString();
  }
  const int svc_clu_col = svc->ColumnIndex("clu_id");
  const int label_col = svc->ColumnIndex("serv_label");
  const int data_col = svc->ColumnIndex("serv_cluster");
  std::map<int64_t, std::vector<std::string>> cluster_data;  // clu_id -> "label data"
  for (size_t row : From(svc).Rows()) {
    cluster_data[svc->Cell(row, svc_clu_col).AsInt()].push_back(
        StrCat({svc->Cell(row, label_col).AsString(), " ", svc->Cell(row, data_col).AsString()}));
  }
  for (const auto& [clu_id, name] : cluster_names) {
    for (const std::string& data : cluster_data[clu_id]) {
      out += UnspecA(name, "cluster", data);
    }
  }
  // Machine memberships.
  const int map_mach_col = mcmap->ColumnIndex("mach_id");
  const int map_clu_col = mcmap->ColumnIndex("clu_id");
  std::map<int64_t, std::vector<int64_t>> machine_clusters;
  for (size_t row : From(mcmap).Rows()) {
    machine_clusters[mcmap->Cell(row, map_mach_col).AsInt()].push_back(
        mcmap->Cell(row, map_clu_col).AsInt());
  }
  for (const auto& [mach_id, clusters] : machine_clusters) {
    std::string_view name = machine_name(mach_id);
    if (clusters.size() == 1) {
      out += Cname(name, "cluster", cluster_names[clusters[0]], "cluster");
      continue;
    }
    // Pseudo-cluster: union of the member clusters' data.
    std::string pseudo = ToLowerCopy(name) + "-pseudo";
    for (int64_t clu_id : clusters) {
      for (const std::string& data : cluster_data[clu_id]) {
        out += UnspecA(pseudo, "cluster", data);
      }
    }
    out += Cname(name, "cluster", pseudo, "cluster");
  }
  return out;
}

std::string BuildFilsysDb(MoiraContext& mc, const MachineNames& machine_name) {
  std::string out;
  const Table* filesys = mc.filesys();
  const int type_col = filesys->ColumnIndex("type");
  const int mach_col = filesys->ColumnIndex("mach_id");
  const int label_col = filesys->ColumnIndex("label");
  const int name_col = filesys->ColumnIndex("name");
  const int access_col = filesys->ColumnIndex("access");
  const int mount_col = filesys->ColumnIndex("mount");
  for (size_t row : From(filesys).WhereNe("type", Value("ERR")).Rows()) {
    const std::string machine = ToLowerCopy(machine_name(filesys->Cell(row, mach_col).AsInt()));
    out += UnspecA(filesys->Cell(row, label_col).AsString(), "filsys",
                   StrCat({filesys->Cell(row, type_col).AsString(), " ",
                           filesys->Cell(row, name_col).AsString(), " ", machine, " ",
                           filesys->Cell(row, access_col).AsString(), " ",
                           filesys->Cell(row, mount_col).AsString()}));
  }
  return out;
}

std::string BuildPrintcapDb(MoiraContext& mc, const MachineNames& machine_name) {
  std::string out;
  const Table* printcap = mc.printcap();
  const int name_col = printcap->ColumnIndex("name");
  const int mach_col = printcap->ColumnIndex("mach_id");
  const int rp_col = printcap->ColumnIndex("rp");
  const int dir_col = printcap->ColumnIndex("dir");
  for (size_t row : From(printcap).Rows()) {
    std::string_view name = printcap->Cell(row, name_col).AsString();
    out += UnspecA(name, "pcap",
                   StrCat({name, ":rp=", printcap->Cell(row, rp_col).AsString(),
                           ":rm=", machine_name(printcap->Cell(row, mach_col).AsInt()),
                           ":sd=", printcap->Cell(row, dir_col).AsString()}));
  }
  return out;
}

std::string BuildServiceDb(MoiraContext& mc) {
  std::string out;
  const Table* services = mc.services();
  const int name_col = services->ColumnIndex("name");
  const int protocol_col = services->ColumnIndex("protocol");
  const int port_col = services->ColumnIndex("port");
  for (size_t row : From(services).Rows()) {
    std::string_view name = services->Cell(row, name_col).AsString();
    out += UnspecA(name, "service",
                   StrCat({name, " ", ToLowerCopy(services->Cell(row, protocol_col).AsString()),
                           " ", std::to_string(services->Cell(row, port_col).AsInt())}));
  }
  return out;
}

std::string BuildSlocDb(MoiraContext& mc, const MachineNames& machine_name) {
  std::string out;
  const Table* sh = mc.serverhosts();
  const int service_col = sh->ColumnIndex("service");
  const int mach_col = sh->ColumnIndex("mach_id");
  for (size_t row : From(sh).Rows()) {
    out += StrCat({sh->Cell(row, service_col).AsString(), ".sloc HS UNSPECA ",
                   machine_name(sh->Cell(row, mach_col).AsInt()), "\n"});
  }
  return out;
}

// group.db and gid.db: one record each per active group list.
void BuildGroupFiles(const IdRows& lists, KeyedFile* group_db, KeyedFile* gid_db) {
  const Table* list = lists.table();
  const int active_col = list->ColumnIndex("active");
  const int grouplist_col = list->ColumnIndex("grouplist");
  const int name_col = list->ColumnIndex("name");
  const int gid_col = list->ColumnIndex("gid");
  for (size_t row : lists.rows()) {
    if (list->Cell(row, active_col).AsInt() == 0 || list->Cell(row, grouplist_col).AsInt() == 0) {
      continue;
    }
    std::string_view name = list->Cell(row, name_col).AsString();
    const int64_t gid = list->Cell(row, gid_col).AsInt();
    group_db->AppendLine(GroupLine(name, gid));
    gid_db->AppendLine(GidLine(name, gid));
  }
}

// passwd.db, uid.db, pobox.db and grplist.db: records of every active user.
void BuildUserFiles(const IdRows& users, const MachineNames& machine_name,
                    const std::map<int64_t, std::vector<GroupMembership>>& user_groups,
                    KeyedFile* passwd_db, KeyedFile* uid_db, KeyedFile* pobox_db,
                    KeyedFile* grplist_db) {
  static const std::vector<GroupMembership> kNoGroups;
  const UserReader read_user(users.table());
  for (size_t row : users.rows()) {
    const UserFields user = read_user.Read(row);
    if (user.status != kUserActive) {
      continue;
    }
    passwd_db->AppendLine(UserPasswdLine(user));
    uid_db->AppendLine(UserUidLine(user));
    std::string pobox = UserPoboxLine(user, machine_name(user.pop_id));
    if (!pobox.empty()) {
      pobox_db->AppendLine(pobox);
    }
    auto it = user_groups.find(user.users_id);
    grplist_db->AppendLine(GrplistLine(user.login, it != user_groups.end() ? it->second : kNoGroups));
  }
}

void Upsert(MemberEdit* edit, std::string key, std::string block) {
  edit->ops.push_back(PatchOp{PatchOp::kUpsert, std::move(key), std::move(block)});
}

void Delete(MemberEdit* edit, std::string key) {
  edit->ops.push_back(PatchOp{PatchOp::kDelete, std::move(key), ""});
}

}  // namespace

int32_t GenerateHesiod(MoiraContext& mc, GeneratorResult* out) {
  const IdRows users(mc.users(), "users_id");
  const IdRows lists(mc.list(), "list_id");
  ListMembers members(mc.members());
  const MachineNames machine_name(mc.machine());
  KeyedFile group_db;
  KeyedFile gid_db;
  BuildGroupFiles(lists, &group_db, &gid_db);
  KeyedFile passwd_db;
  KeyedFile uid_db;
  KeyedFile pobox_db;
  KeyedFile grplist_db;
  BuildUserFiles(users, machine_name, UserGroupMap(users, lists, members), &passwd_db,
                 &uid_db, &pobox_db, &grplist_db);
  out->common.Add("cluster.db", BuildClusterDb(mc, machine_name));
  out->common.Add("filsys.db", BuildFilsysDb(mc, machine_name));
  out->common.Add("gid.db", gid_db.Serialize());
  out->common.Add("group.db", group_db.Serialize());
  out->common.Add("grplist.db", grplist_db.Serialize());
  out->common.Add("passwd.db", passwd_db.Serialize());
  out->common.Add("pobox.db", pobox_db.Serialize());
  out->common.Add("printcap.db", BuildPrintcapDb(mc, machine_name));
  out->common.Add("service.db", BuildServiceDb(mc));
  out->common.Add("sloc.db", BuildSlocDb(mc, machine_name));
  out->common.Add("uid.db", uid_db.Serialize());
  return MR_SUCCESS;
}

int32_t BuildHesiodPatch(MoiraContext& mc, const DeltaPlan& plan,
                         const GeneratorResult& staged, ServicePatch* out) {
  (void)staged;  // hesiod ships one common archive; nothing per-host to probe
  MemberEdit& passwd = out->common["passwd.db"];
  MemberEdit& uid = out->common["uid.db"];
  MemberEdit& pobox = out->common["pobox.db"];
  MemberEdit& grplist = out->common["grplist.db"];
  MemberEdit& group = out->common["group.db"];
  MemberEdit& gid = out->common["gid.db"];

  const UserReader read_user(mc.users());
  for (const std::string& login : plan.users) {
    RowRef user_ref = mc.UserByLogin(login);
    if (user_ref.code != MR_SUCCESS) {
      return user_ref.code;  // escalate: the plan says dirty but the row is gone
    }
    const UserFields user = read_user.Read(user_ref.row);
    // A dirty user's uid is stable across the delta window (uid changes
    // escalate to full regeneration), so the uid.db key is reconstructible.
    std::string uid_key = std::to_string(user.uid) + ".uid";
    if (user.status == kUserActive) {
      Upsert(&passwd, login + ".passwd", UserPasswdLine(user));
      Upsert(&uid, uid_key, UserUidLine(user));
      std::string pobox_line = UserPoboxLine(
          user, user.potype == "POP" ? MachineNameById(mc, user.pop_id) : std::string());
      if (pobox_line.empty()) {
        Delete(&pobox, login + ".pobox");
      } else {
        Upsert(&pobox, login + ".pobox", std::move(pobox_line));
      }
      Upsert(&grplist, login + ".grplist",
             GrplistLine(login, UserGroupsFor(mc, user.users_id)));
    } else {
      Delete(&passwd, login + ".passwd");
      Delete(&uid, uid_key);
      Delete(&pobox, login + ".pobox");
      Delete(&grplist, login + ".grplist");
    }
  }

  for (const std::string& name : plan.lists) {
    RowRef list = mc.ListByName(name);
    if (list.code != MR_SUCCESS) {
      return list.code;
    }
    int64_t list_gid = MoiraContext::IntCell(mc.list(), list.row, "gid");
    bool grouped =
        MoiraContext::IntCell(mc.list(), list.row, "active") != 0 &&
        MoiraContext::IntCell(mc.list(), list.row, "grouplist") != 0;
    if (grouped) {
      Upsert(&group, name + ".group", GroupLine(name, list_gid));
      Upsert(&gid, std::to_string(list_gid) + ".gid", GidLine(name, list_gid));
    } else {
      Delete(&group, name + ".group");
      Delete(&gid, std::to_string(list_gid) + ".gid");
    }
  }

  // Small topology files: rebuild whole and ship as replacements.
  auto replace = [out](const char* member, std::string contents) {
    MemberEdit& edit = out->common[member];
    edit.replace = true;
    edit.replacement = std::move(contents);
  };
  if (plan.clusters_dirty || plan.filsys_dirty || plan.printcaps_dirty || plan.sloc_dirty) {
    const MachineNames machine_name(mc.machine());
    if (plan.clusters_dirty) {
      replace("cluster.db", BuildClusterDb(mc, machine_name));
    }
    if (plan.filsys_dirty) {
      replace("filsys.db", BuildFilsysDb(mc, machine_name));
    }
    if (plan.printcaps_dirty) {
      replace("printcap.db", BuildPrintcapDb(mc, machine_name));
    }
    if (plan.sloc_dirty) {
      replace("sloc.db", BuildSlocDb(mc, machine_name));
    }
  }
  if (plan.services_dirty) {
    replace("service.db", BuildServiceDb(mc));
  }

  // Drop edit entries that gathered no ops (e.g. no dirty user had a pobox).
  for (auto it = out->common.begin(); it != out->common.end();) {
    it = (it->second.ops.empty() && !it->second.replace) ? out->common.erase(it)
                                                         : std::next(it);
  }
  return MR_SUCCESS;
}

}  // namespace moira
