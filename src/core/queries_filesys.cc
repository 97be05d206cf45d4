// Filesystem, NFS physical partition, and quota queries (paper section
// 7.0.5).
#include "src/core/queries_common.h"

namespace moira {
namespace {

Tuple FilesysTuple(MoiraContext& mc, size_t row) {
  const Table* filesys = mc.filesys();
  int64_t mach_id = MoiraContext::IntCell(filesys, row, "mach_id");
  RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(mach_id), MR_MACHINE);
  std::string machine_name = mach.code == MR_SUCCESS
                                 ? MoiraContext::StrCell(mc.machine(), mach.row, "name")
                                 : "???";
  return {MoiraContext::StrCell(filesys, row, "label"),
          MoiraContext::StrCell(filesys, row, "type"),
          machine_name,
          MoiraContext::StrCell(filesys, row, "name"),
          MoiraContext::StrCell(filesys, row, "mount"),
          MoiraContext::StrCell(filesys, row, "access"),
          MoiraContext::StrCell(filesys, row, "comments"),
          mc.AceName("USER", MoiraContext::IntCell(filesys, row, "owner")),
          mc.AceName("LIST", MoiraContext::IntCell(filesys, row, "owners")),
          IntStr(filesys, row, "createflg"),
          MoiraContext::StrCell(filesys, row, "lockertype"),
          IntStr(filesys, row, "modtime"),
          MoiraContext::StrCell(filesys, row, "modby"),
          MoiraContext::StrCell(filesys, row, "modwith")};
}

int32_t GetFilesysByLabel(QueryCall& call) {
  From(call.mc.filesys())
      .WhereWild("label", call.args[0])
      .Emit([&](const std::vector<size_t>& rows) {
        call.emit(FilesysTuple(call.mc, rows[0]));
      });
  return MR_SUCCESS;
}

int32_t GetFilesysByMachine(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  From(mc.filesys()).WhereEq("mach_id", Value(mach_id)).Emit([&](const std::vector<size_t>& rows) {
    call.emit(FilesysTuple(mc, rows[0]));
  });
  return MR_SUCCESS;
}

// Finds the nfsphys row for an exact (machine, dir) pair.
int32_t FindNfsPhys(MoiraContext& mc, std::string_view machine_arg, std::string_view dir,
                    size_t* row_out) {
  RowRef mach = mc.MachineByName(machine_arg);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  std::vector<size_t> rows = From(mc.nfsphys())
                                 .WhereEq("mach_id", Value(mach_id))
                                 .WhereEq("dir", Value(dir))
                                 .Rows();
  if (rows.empty()) {
    return MR_NFSPHYS;
  }
  *row_out = rows[0];
  return MR_SUCCESS;
}

int32_t GetFilesysByNfsphys(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  Table* phys = mc.nfsphys();
  Table* filesys = mc.filesys();
  From(phys)
      .WhereEq("mach_id", Value(mach_id))
      .WhereWild("dir", call.args[1])
      .Emit([&](const std::vector<size_t>& phys_rows) {
        int64_t phys_id = MoiraContext::IntCell(phys, phys_rows[0], "nfsphys_id");
        From(filesys).WhereEq("phys_id", Value(phys_id)).Emit(
            [&](const std::vector<size_t>& rows) { call.emit(FilesysTuple(mc, rows[0])); });
      });
  return MR_SUCCESS;
}

int32_t GetFilesysByGroup(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef list = mc.ListByName(call.args[0]);
  if (list.code != MR_SUCCESS) {
    return list.code;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  From(mc.filesys()).WhereEq("owners", Value(list_id)).Emit([&](const std::vector<size_t>& rows) {
    call.emit(FilesysTuple(mc, rows[0]));
  });
  return MR_SUCCESS;
}

// Shared validation of the add/update argument block.  Fills resolved ids.
struct FilesysArgs {
  int64_t mach_id = 0;
  int64_t phys_id = 0;  // 0 for non-NFS
  int64_t owner = 0;
  int64_t owners = 0;
  int64_t createflg = 0;
};

int32_t ParseFilesysArgs(MoiraContext& mc, const std::vector<std::string>& args, size_t base,
                         FilesysArgs* out) {
  // args[base..]: fstype, machine, packname, mountpoint, access, comments,
  // owner, owners, create, lockertype
  const std::string& fstype = args[base];
  if (!mc.IsLegalType("filesys", fstype)) {
    return MR_FSTYPE;
  }
  if (!mc.IsLegalType("lockertype", args[base + 9])) {
    return MR_TYPE;
  }
  RowRef mach = mc.MachineByName(args[base + 1]);
  if (mach.code != MR_SUCCESS) {
    return MR_MACHINE;
  }
  out->mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  RowRef owner = mc.UserByLogin(args[base + 6]);
  if (owner.code != MR_SUCCESS) {
    return MR_USER;
  }
  out->owner = MoiraContext::IntCell(mc.users(), owner.row, "users_id");
  RowRef owners = mc.ListByName(args[base + 7]);
  if (owners.code != MR_SUCCESS) {
    return MR_LIST;
  }
  out->owners = MoiraContext::IntCell(mc.list(), owners.row, "list_id");
  if (int32_t code = RequireBool(args[base + 8], &out->createflg); code != MR_SUCCESS) {
    return code;
  }
  if (fstype == "NFS") {
    // The packname must live on an exported partition of the machine (the
    // partition itself, or a directory beneath it), and the access mode must
    // be r or w.
    Table* phys = mc.nfsphys();
    const std::string& packname = args[base + 2];
    int64_t found_phys = 0;
    for (size_t row : From(phys).WhereEq("mach_id", Value(out->mach_id)).Rows()) {
      const std::string& dir = MoiraContext::StrCell(phys, row, "dir");
      if (packname == dir || packname.starts_with(dir + "/")) {
        found_phys = MoiraContext::IntCell(phys, row, "nfsphys_id");
        break;
      }
    }
    if (found_phys == 0) {
      return MR_NFS;
    }
    out->phys_id = found_phys;
    if (args[base + 4] != "r" && args[base + 4] != "w") {
      return MR_FILESYS_ACCESS;
    }
  }
  return MR_SUCCESS;
}

int32_t AddFilesys(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const std::string& label = call.args[0];
  if (int32_t code = RequireLegalChars(label); code != MR_SUCCESS) {
    return code;
  }
  if (mc.FilesysByLabel(label).code == MR_SUCCESS) {
    return MR_FILESYS_EXISTS;
  }
  FilesysArgs parsed;
  if (int32_t code = ParseFilesysArgs(mc, call.args, 1, &parsed); code != MR_SUCCESS) {
    return code;
  }
  int64_t filsys_id = 0;
  if (int32_t code = mc.AllocateId("filsys_id", mc.filesys(), "filsys_id", &filsys_id);
      code != MR_SUCCESS) {
    return code;
  }
  size_t row = mc.filesys()->Append({
      Value(label), Value(int64_t{0}), Value(filsys_id), Value(parsed.phys_id),
      Value(call.args[1]), Value(parsed.mach_id), Value(call.args[3]), Value(call.args[4]),
      Value(call.args[5]), Value(call.args[6]), Value(parsed.owner), Value(parsed.owners),
      Value(parsed.createflg), Value(call.args[10]), Value(int64_t{0}), Value(""), Value(""),
  });
  mc.Stamp(mc.filesys(), row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateFilesys(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef fs = mc.FilesysByLabel(call.args[0]);
  if (fs.code != MR_SUCCESS) {
    return fs.code;
  }
  const std::string& newname = call.args[1];
  if (int32_t code = RequireLegalChars(newname); code != MR_SUCCESS) {
    return code;
  }
  if (newname != call.args[0] && mc.FilesysByLabel(newname).code == MR_SUCCESS) {
    return MR_NOT_UNIQUE;
  }
  FilesysArgs parsed;
  if (int32_t code = ParseFilesysArgs(mc, call.args, 2, &parsed); code != MR_SUCCESS) {
    return code;
  }
  Table* filesys = mc.filesys();
  MoiraContext::SetCell(filesys, fs.row, "label", Value(newname));
  MoiraContext::SetCell(filesys, fs.row, "type", Value(call.args[2]));
  MoiraContext::SetCell(filesys, fs.row, "mach_id", Value(parsed.mach_id));
  MoiraContext::SetCell(filesys, fs.row, "phys_id", Value(parsed.phys_id));
  MoiraContext::SetCell(filesys, fs.row, "name", Value(call.args[4]));
  MoiraContext::SetCell(filesys, fs.row, "mount", Value(call.args[5]));
  MoiraContext::SetCell(filesys, fs.row, "access", Value(call.args[6]));
  MoiraContext::SetCell(filesys, fs.row, "comments", Value(call.args[7]));
  MoiraContext::SetCell(filesys, fs.row, "owner", Value(parsed.owner));
  MoiraContext::SetCell(filesys, fs.row, "owners", Value(parsed.owners));
  MoiraContext::SetCell(filesys, fs.row, "createflg", Value(parsed.createflg));
  MoiraContext::SetCell(filesys, fs.row, "lockertype", Value(call.args[11]));
  mc.Stamp(filesys, fs.row, call.principal, call.client_name);
  return MR_SUCCESS;
}

// Decrements the allocation on the partition backing `filsys_row` by the
// total of quotas being removed.
void ReleaseQuotaAllocation(MoiraContext& mc, int64_t phys_id, int64_t total) {
  if (phys_id == 0 || total == 0) {
    return;
  }
  RowRef phys = mc.ExactOne(mc.nfsphys(), "nfsphys_id", Value(phys_id), MR_NFSPHYS);
  if (phys.code != MR_SUCCESS) {
    return;
  }
  MoiraContext::SetCell(mc.nfsphys(), phys.row, "allocated",
                        Value(MoiraContext::IntCell(mc.nfsphys(), phys.row, "allocated") -
                              total));
}

int32_t DeleteFilesys(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef fs = mc.FilesysByLabel(call.args[0]);
  if (fs.code != MR_SUCCESS) {
    return fs.code;
  }
  Table* filesys = mc.filesys();
  int64_t filsys_id = MoiraContext::IntCell(filesys, fs.row, "filsys_id");
  int64_t phys_id = MoiraContext::IntCell(filesys, fs.row, "phys_id");
  // Quotas assigned to the filesystem are deleted; the partition allocation
  // is decremented accordingly.
  Table* quota = mc.nfsquota();
  int q_col = quota->ColumnIndex("quota");
  int64_t released = 0;
  std::vector<size_t> quota_rows = From(quota).WhereEq("filsys_id", Value(filsys_id)).Rows();
  for (size_t row : quota_rows) {
    released += quota->Cell(row, q_col).AsInt();
    RemoveQuotaUsage(mc, row);
    quota->Delete(row);
  }
  ReleaseQuotaAllocation(mc, phys_id, released);
  filesys->Delete(fs.row);
  return MR_SUCCESS;
}

Tuple NfsPhysTuple(MoiraContext& mc, size_t row) {
  const Table* phys = mc.nfsphys();
  int64_t mach_id = MoiraContext::IntCell(phys, row, "mach_id");
  RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(mach_id), MR_MACHINE);
  return {mach.code == MR_SUCCESS ? MoiraContext::StrCell(mc.machine(), mach.row, "name")
                                  : "???",
          MoiraContext::StrCell(phys, row, "dir"),
          MoiraContext::StrCell(phys, row, "device"),
          IntStr(phys, row, "status"),
          IntStr(phys, row, "allocated"),
          IntStr(phys, row, "size"),
          IntStr(phys, row, "modtime"),
          MoiraContext::StrCell(phys, row, "modby"),
          MoiraContext::StrCell(phys, row, "modwith")};
}

int32_t GetAllNfsphys(QueryCall& call) {
  From(call.mc.nfsphys()).Emit([&](const std::vector<size_t>& rows) {
    call.emit(NfsPhysTuple(call.mc, rows[0]));
  });
  return MR_SUCCESS;
}

int32_t GetNfsphys(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  From(mc.nfsphys())
      .WhereEq("mach_id", Value(mach_id))
      .WhereWild("dir", call.args[1])
      .Emit([&](const std::vector<size_t>& rows) { call.emit(NfsPhysTuple(mc, rows[0])); });
  return MR_SUCCESS;
}

int32_t AddNfsphys(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  int64_t status = 0;
  int64_t allocated = 0;
  int64_t size = 0;
  if (int32_t code = RequireInt(call.args[3], &status); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[4], &allocated); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[5], &size); code != MR_SUCCESS) {
    return code;
  }
  Table* phys = mc.nfsphys();
  if (From(phys)
          .WhereEq("mach_id", Value(mach_id))
          .WhereEq("dir", Value(call.args[1]))
          .Any()) {
    return MR_EXISTS;
  }
  int64_t nfsphys_id = 0;
  if (int32_t code = mc.AllocateId("nfsphys_id", phys, "nfsphys_id", &nfsphys_id);
      code != MR_SUCCESS) {
    return code;
  }
  size_t row = phys->Append({Value(nfsphys_id), Value(mach_id), Value(call.args[1]),
                             Value(call.args[2]), Value(status), Value(allocated),
                             Value(size), Value(int64_t{0}), Value(""), Value("")});
  mc.Stamp(phys, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t UpdateNfsphys(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  if (int32_t code = FindNfsPhys(mc, call.args[0], call.args[1], &row); code != MR_SUCCESS) {
    return code;
  }
  int64_t status = 0;
  int64_t allocated = 0;
  int64_t size = 0;
  if (int32_t code = RequireInt(call.args[3], &status); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[4], &allocated); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[5], &size); code != MR_SUCCESS) {
    return code;
  }
  Table* phys = mc.nfsphys();
  MoiraContext::SetCell(phys, row, "device", Value(call.args[2]));
  MoiraContext::SetCell(phys, row, "status", Value(status));
  MoiraContext::SetCell(phys, row, "allocated", Value(allocated));
  MoiraContext::SetCell(phys, row, "size", Value(size));
  mc.Stamp(phys, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t AdjustNfsphysAllocation(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  if (int32_t code = FindNfsPhys(mc, call.args[0], call.args[1], &row); code != MR_SUCCESS) {
    return code;
  }
  int64_t delta = 0;
  if (int32_t code = RequireInt(call.args[2], &delta); code != MR_SUCCESS) {
    return code;
  }
  Table* phys = mc.nfsphys();
  MoiraContext::SetCell(phys, row, "allocated",
                        Value(MoiraContext::IntCell(phys, row, "allocated") + delta));
  mc.Stamp(phys, row, call.principal, call.client_name);
  return MR_SUCCESS;
}

int32_t DeleteNfsphys(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  if (int32_t code = FindNfsPhys(mc, call.args[0], call.args[1], &row); code != MR_SUCCESS) {
    return code;
  }
  Table* phys = mc.nfsphys();
  int64_t phys_id = MoiraContext::IntCell(phys, row, "nfsphys_id");
  if (From(mc.filesys()).WhereEq("phys_id", Value(phys_id)).Any()) {
    return MR_IN_USE;
  }
  phys->Delete(row);
  return MR_SUCCESS;
}

// --- quotas ---

Tuple QuotaTuple(MoiraContext& mc, size_t row, bool with_modtriple) {
  const Table* quota = mc.nfsquota();
  int64_t filsys_id = MoiraContext::IntCell(quota, row, "filsys_id");
  int64_t users_id = MoiraContext::IntCell(quota, row, "users_id");
  int64_t phys_id = MoiraContext::IntCell(quota, row, "phys_id");
  RowRef fs = mc.ExactOne(mc.filesys(), "filsys_id", Value(filsys_id), MR_FILESYS);
  RowRef user = mc.ExactOne(mc.users(), "users_id", Value(users_id), MR_USER);
  RowRef phys = mc.ExactOne(mc.nfsphys(), "nfsphys_id", Value(phys_id), MR_NFSPHYS);
  std::string dir = phys.code == MR_SUCCESS
                        ? MoiraContext::StrCell(mc.nfsphys(), phys.row, "dir")
                        : "";
  std::string machine;
  if (phys.code == MR_SUCCESS) {
    RowRef mach = mc.ExactOne(mc.machine(), "mach_id",
                              Value(MoiraContext::IntCell(mc.nfsphys(), phys.row, "mach_id")),
                              MR_MACHINE);
    machine = mach.code == MR_SUCCESS
                  ? MoiraContext::StrCell(mc.machine(), mach.row, "name")
                  : "???";
  }
  Tuple tuple = {
      fs.code == MR_SUCCESS ? MoiraContext::StrCell(mc.filesys(), fs.row, "label") : "???",
      user.code == MR_SUCCESS ? MoiraContext::StrCell(mc.users(), user.row, "login") : "???",
      IntStr(quota, row, "quota"), dir, machine};
  if (with_modtriple) {
    tuple.push_back(IntStr(quota, row, "modtime"));
    tuple.push_back(MoiraContext::StrCell(quota, row, "modby"));
    tuple.push_back(MoiraContext::StrCell(quota, row, "modwith"));
  }
  return tuple;
}

int32_t GetNfsQuota(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef user = mc.UserByLogin(call.args[1]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
  Table* filesys = mc.filesys();
  Table* quota = mc.nfsquota();
  // Join label-matched filesystems to their quota rows (indexed filsys_id
  // probe), keeping only this user's entries.
  From(filesys)
      .WhereWild("label", call.args[0])
      .Join(quota, "filsys_id", "filsys_id")
      .WhereEq("users_id", Value(users_id))
      .Emit([&](const std::vector<size_t>& rows) {
        call.emit(QuotaTuple(mc, rows[1], /*with_modtriple=*/true));
      });
  return MR_SUCCESS;
}

int32_t GetNfsQuotasByPartition(QueryCall& call) {
  MoiraContext& mc = call.mc;
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  Table* phys = mc.nfsphys();
  Table* quota = mc.nfsquota();
  // One two-stage join instead of a nested per-partition pipeline.
  From(phys)
      .WhereEq("mach_id", Value(mach_id))
      .WhereWild("dir", call.args[1])
      .Join(quota, "nfsphys_id", "phys_id")
      .Emit([&](const std::vector<size_t>& rows) {
        call.emit(QuotaTuple(mc, rows[1], /*with_modtriple=*/false));
      });
  return MR_SUCCESS;
}

// Looks up a quota row for exact (filesystem, login).
int32_t FindQuota(MoiraContext& mc, std::string_view fs_arg, std::string_view login,
                  size_t* row_out, int64_t* filsys_id_out, int64_t* phys_id_out) {
  RowRef fs = mc.FilesysByLabel(fs_arg);
  if (fs.code != MR_SUCCESS) {
    return fs.code;
  }
  RowRef user = mc.UserByLogin(login);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  *filsys_id_out = MoiraContext::IntCell(mc.filesys(), fs.row, "filsys_id");
  *phys_id_out = MoiraContext::IntCell(mc.filesys(), fs.row, "phys_id");
  int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
  std::vector<size_t> rows = From(mc.nfsquota())
                                 .WhereEq("filsys_id", Value(*filsys_id_out))
                                 .WhereEq("users_id", Value(users_id))
                                 .Rows();
  if (rows.empty()) {
    *row_out = SIZE_MAX;
    return MR_SUCCESS;
  }
  *row_out = rows[0];
  return MR_SUCCESS;
}

int32_t AddNfsQuota(QueryCall& call) {
  MoiraContext& mc = call.mc;
  int64_t quota_units = 0;
  if (int32_t code = RequireInt(call.args[2], &quota_units); code != MR_SUCCESS) {
    return code;
  }
  if (quota_units <= 0) {
    return MR_QUOTA;
  }
  size_t existing = 0;
  int64_t filsys_id = 0;
  int64_t phys_id = 0;
  if (int32_t code = FindQuota(mc, call.args[0], call.args[1], &existing, &filsys_id,
                               &phys_id);
      code != MR_SUCCESS) {
    return code;
  }
  if (existing != SIZE_MAX) {
    return MR_EXISTS;
  }
  RowRef user = mc.UserByLogin(call.args[1]);
  int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
  // soft == 0 means "soft limit equals the hard quota" (schema.cc).
  size_t row = mc.nfsquota()->Append({Value(users_id), Value(filsys_id), Value(phys_id),
                                      Value(quota_units), Value(int64_t{0}),
                                      Value(int64_t{0}), Value(int64_t{0}),
                                      Value(int64_t{0}), Value(""), Value("")});
  mc.Stamp(mc.nfsquota(), row, call.principal, call.client_name);
  ReleaseQuotaAllocation(mc, phys_id, -quota_units);  // i.e. allocate
  return MR_SUCCESS;
}

int32_t UpdateNfsQuota(QueryCall& call) {
  MoiraContext& mc = call.mc;
  int64_t quota_units = 0;
  if (int32_t code = RequireInt(call.args[2], &quota_units); code != MR_SUCCESS) {
    return code;
  }
  if (quota_units <= 0) {
    return MR_QUOTA;
  }
  size_t row = 0;
  int64_t filsys_id = 0;
  int64_t phys_id = 0;
  if (int32_t code = FindQuota(mc, call.args[0], call.args[1], &row, &filsys_id, &phys_id);
      code != MR_SUCCESS) {
    return code;
  }
  if (row == SIZE_MAX) {
    return MR_NO_QUOTA;
  }
  Table* quota = mc.nfsquota();
  int64_t old = MoiraContext::IntCell(quota, row, "quota");
  MoiraContext::SetCell(quota, row, "quota", Value(quota_units));
  mc.Stamp(quota, row, call.principal, call.client_name);
  ReleaseQuotaAllocation(mc, phys_id, old - quota_units);
  return MR_SUCCESS;
}

int32_t DeleteNfsQuota(QueryCall& call) {
  MoiraContext& mc = call.mc;
  size_t row = 0;
  int64_t filsys_id = 0;
  int64_t phys_id = 0;
  if (int32_t code = FindQuota(mc, call.args[0], call.args[1], &row, &filsys_id, &phys_id);
      code != MR_SUCCESS) {
    return code;
  }
  if (row == SIZE_MAX) {
    return MR_NO_QUOTA;
  }
  Table* quota = mc.nfsquota();
  int64_t released = MoiraContext::IntCell(quota, row, "quota");
  RemoveQuotaUsage(mc, row);
  quota->Delete(row);
  ReleaseQuotaAllocation(mc, phys_id, released);
  return MR_SUCCESS;
}

constexpr const char* kFilesysReturns =
    "name, fstype, machine, packname, mountpoint, access, comments, owner, owners, create, "
    "lockertype, modtime, modby, modwith";

}  // namespace

void AppendFilesysQueries(std::vector<QueryDef>* defs) {
  defs->insert(
      defs->end(),
      {
          {"get_filesys_by_label", "gfsl", QueryClass::kRetrieve, 1, true, "name",
           kFilesysReturns, nullptr, GetFilesysByLabel},
          {"get_filesys_by_machine", "gfsm", QueryClass::kRetrieve, 1, true, "machine",
           kFilesysReturns, nullptr, GetFilesysByMachine},
          {"get_filesys_by_nfsphys", "gfsn", QueryClass::kRetrieve, 2, true,
           "machine, partition", kFilesysReturns, nullptr, GetFilesysByNfsphys},
          {"get_filesys_by_group", "gfsg", QueryClass::kRetrieve, 1, false, "list",
           kFilesysReturns,
           [](MoiraContext& mc, std::string_view principal,
              const std::vector<std::string>& args) {
             if (args.empty()) {
               return false;
             }
             RowRef list = mc.ListByName(args[0]);
             if (list.code != MR_SUCCESS) {
               return false;
             }
             int64_t users_id = PrincipalUserId(mc, principal);
             return users_id >= 0 &&
                    IsUserInList(mc, users_id,
                                 MoiraContext::IntCell(mc.list(), list.row, "list_id"));
           },
           GetFilesysByGroup},
          {"add_filesys", "afil", QueryClass::kAppend, 11, false,
           "name, fstype, machine, packname, mountpoint, access, comments, owner, owners, "
           "create, lockertype",
           "", nullptr, AddFilesys},
          {"update_filesys", "ufil", QueryClass::kUpdate, 12, false,
           "name, newname, fstype, machine, packname, mountpoint, access, comments, owner, "
           "owners, create, lockertype",
           "", nullptr, UpdateFilesys},
          {"delete_filesys", "dfil", QueryClass::kDelete, 1, false, "name", "", nullptr,
           DeleteFilesys},
          {"get_all_nfsphys", "ganf", QueryClass::kRetrieve, 0, true, "",
           "machine, dir, device, status, allocated, size, modtime, modby, modwith", nullptr,
           GetAllNfsphys},
          {"get_nfsphys", "gnfp", QueryClass::kRetrieve, 2, true, "machine, dir",
           "machine, dir, device, status, allocated, size, modtime, modby, modwith", nullptr,
           GetNfsphys},
          {"add_nfsphys", "anfp", QueryClass::kAppend, 6, false,
           "machine, directory, device, status, allocated, size", "", nullptr, AddNfsphys},
          {"update_nfsphys", "unfp", QueryClass::kUpdate, 6, false,
           "machine, directory, device, status, allocated, size", "", nullptr,
           UpdateNfsphys},
          {"adjust_nfsphys_allocation", "ajnf", QueryClass::kUpdate, 3, false,
           "machine, directory, delta", "", nullptr, AdjustNfsphysAllocation},
          {"delete_nfsphys", "dnfp", QueryClass::kDelete, 2, false, "machine, directory", "",
           nullptr, DeleteNfsphys},
          {"get_nfs_quota", "gnfq", QueryClass::kRetrieve, 2, false, "filesys, login",
           "filesys, login, quota, directory, machine, modtime, modby, modwith",
           [](MoiraContext&, std::string_view principal, const std::vector<std::string>& args) {
             return args.size() == 2 && args[1] == principal;
           },
           GetNfsQuota},
          {"get_nfs_quotas_by_partition", "gnqp", QueryClass::kRetrieve, 2, false,
           "machine, directory", "filesys, login, quota, directory, machine", nullptr,
           GetNfsQuotasByPartition},
          {"add_nfs_quota", "anfq", QueryClass::kAppend, 3, false,
           "filesystem, login, quota", "", nullptr, AddNfsQuota},
          {"update_nfs_quota", "unfq", QueryClass::kUpdate, 3, false,
           "filesystem, login, quota", "", nullptr, UpdateNfsQuota},
          {"delete_nfs_quota", "dnfq", QueryClass::kDelete, 2, false, "filesystem, login",
           "", nullptr, DeleteNfsQuota},
      });
}

}  // namespace moira
