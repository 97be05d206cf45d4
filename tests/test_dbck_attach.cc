// Tests for the dbck consistency checker (paper section 5.9.1) and the
// attach client (paper section 5.8.2).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/backup/dbck.h"
#include "src/client/attach.h"
#include "src/db/exec.h"
#include "src/dcm/generators.h"
#include "src/hesiod/resolver.h"
#include "src/sim/population.h"
#include "tests/test_env.h"

namespace moira {
namespace {

class DbckTest : public MoiraEnv {
 protected:
  void SetUp() override {
    SiteBuilder builder(mc_.get(), realm_.get());
    builder.Build(TestSiteSpec());
    logins_ = builder.active_logins();
  }

  // Findings whose description mentions `needle`.
  static int Count(const std::vector<DbckIssue>& issues, std::string_view table) {
    int n = 0;
    for (const DbckIssue& issue : issues) {
      if (issue.table == table) {
        ++n;
      }
    }
    return n;
  }

  std::vector<std::string> logins_;
};

TEST_F(DbckTest, FreshSiteIsConsistent) {
  DbConsistencyChecker dbck(mc_.get());
  std::vector<DbckIssue> issues = dbck.Check();
  for (const DbckIssue& issue : issues) {
    ADD_FAILURE() << issue.table << ": " << issue.description;
  }
}

TEST_F(DbckTest, DetectsDanglingMember) {
  mc_->members()->Append({Value(int64_t{999999}), Value("USER"), Value(int64_t{888888})});
  DbConsistencyChecker dbck(mc_.get());
  EXPECT_GE(Count(dbck.Check(), "members"), 1);
}

TEST_F(DbckTest, DetectsDanglingQuotaAndBadAllocation) {
  // Delete a user out from under their quota by raw table surgery (the kind
  // of damage a partial restore leaves).
  RowRef user = mc_->UserByLogin(logins_[0]);
  ASSERT_EQ(MR_SUCCESS, user.code);
  mc_->users()->Delete(user.row);
  DbConsistencyChecker dbck(mc_.get());
  std::vector<DbckIssue> issues = dbck.Check();
  EXPECT_GE(Count(issues, "nfsquota"), 1);   // quota for missing user
  EXPECT_GE(Count(issues, "members"), 1);    // their group membership dangles
  EXPECT_GE(Count(issues, "filesys"), 1);    // their home filesystem's owner
}

TEST_F(DbckTest, DetectsBrokenPobox) {
  RowRef user = mc_->UserByLogin(logins_[1]);
  MoiraContext::SetCell(mc_->users(), user.row, "pop_id", Value(int64_t{424242}));
  DbConsistencyChecker dbck(mc_.get());
  EXPECT_GE(Count(dbck.Check(), "users"), 1);
}

TEST_F(DbckTest, DetectsAllocationDrift) {
  Table* phys = mc_->nfsphys();
  size_t row = 0;
  phys->Scan([&](size_t r, const Row&) {
    row = r;
    return false;
  });
  MoiraContext::SetCell(phys, row, "allocated",
                        Value(MoiraContext::IntCell(phys, row, "allocated") + 1000));
  DbConsistencyChecker dbck(mc_.get());
  EXPECT_EQ(1, Count(dbck.Check(), "nfsphys"));
}

TEST_F(DbckTest, RepairFixesTheRepairable) {
  // Inflict a spread of damage.
  RowRef user = mc_->UserByLogin(logins_[0]);
  mc_->users()->Delete(user.row);
  mc_->members()->Append({Value(int64_t{999999}), Value("USER"), Value(int64_t{888888})});
  RowRef broken_box = mc_->UserByLogin(logins_[1]);
  MoiraContext::SetCell(mc_->users(), broken_box.row, "pop_id", Value(int64_t{424242}));
  mc_->mcmap()->Append({Value(int64_t{777777}), Value(int64_t{666666})});
  DbConsistencyChecker dbck(mc_.get());
  int repairs = dbck.Repair();
  EXPECT_GT(repairs, 0);
  // Everything repairable is gone; what remains is flagged non-repairable
  // (the deleted user's filesystem ownership needs human judgement).
  for (const DbckIssue& issue : dbck.Check()) {
    EXPECT_FALSE(issue.repairable) << issue.table << ": " << issue.description;
  }
  // A second repair pass finds nothing to do.
  EXPECT_EQ(0, dbck.Repair());
}

TEST_F(DbckTest, RepairedPoboxIsNone) {
  RowRef user = mc_->UserByLogin(logins_[2]);
  MoiraContext::SetCell(mc_->users(), user.row, "pop_id", Value(int64_t{424242}));
  DbConsistencyChecker dbck(mc_.get());
  dbck.Repair();
  user = mc_->UserByLogin(logins_[2]);
  EXPECT_EQ("NONE", MoiraContext::StrCell(mc_->users(), user.row, "potype"));
}

// Appends a row to `table` whose cells are 0 or "" except the named ones.
size_t AppendRow(Table* table, const std::vector<std::pair<const char*, Value>>& cells) {
  std::vector<Value> row;
  for (const ColumnDef& column : table->schema().columns) {
    row.push_back(column.type == ColumnType::kInt ? Value(int64_t{0}) : Value(""));
  }
  for (const auto& [column, value] : cells) {
    row[static_cast<size_t>(table->ColumnIndex(column))] = value;
  }
  return table->Append(std::move(row));
}

// One "<table> <description>" line per finding, marked when repairable.
std::vector<std::string> Render(const std::vector<DbckIssue>& issues) {
  std::vector<std::string> out;
  for (const DbckIssue& issue : issues) {
    out.push_back(issue.table + " " + issue.description +
                  (issue.repairable ? " [repairable]" : ""));
  }
  return out;
}

// One fixture with every kind of damage dbck knows, and its output pinned
// line for line: the findings in rule order, the repair log (sorted), the
// findings a repair leaves, and a second repair that finds nothing.
TEST_F(DbckTest, GoldenFindingsAndRepairsForEveryKindOfDamage) {
  auto cell = [&](Table* table, size_t row, const char* column) {
    return Value(MoiraContext::IntCell(table, row, column));
  };
  auto user_row = [&](size_t i) { return mc_->UserByLogin(logins_[i]).row; };
  auto home_row = [&](size_t i) { return mc_->FilesysByLabel(logins_[i]).row; };
  Table* users = mc_->users();
  Table* filesys = mc_->filesys();
  Value uid0 = cell(users, user_row(0), "users_id");
  Value home0 = cell(filesys, home_row(0), "filsys_id");
  Value phys0 = cell(filesys, home_row(0), "phys_id");
  Value home1 = cell(filesys, home_row(1), "filsys_id");

  // users: a duplicate login, a duplicate users_id, broken POP and SMTP boxes.
  AppendRow(users, {{"login", Value(logins_[5])}, {"users_id", Value(int64_t{900001})}});
  AppendRow(users, {{"login", Value("dbck-twin")}, {"users_id", Value(int64_t{900001})}});
  MoiraContext::SetCell(users, user_row(1), "potype", Value("POP"));
  MoiraContext::SetCell(users, user_row(1), "pop_id", Value(int64_t{424242}));
  MoiraContext::SetCell(users, user_row(2), "potype", Value("SMTP"));
  MoiraContext::SetCell(users, user_row(2), "box_id", Value(int64_t{434343}));
  // list and members: a missing ACE, a missing list, a missing user and a
  // missing string member.
  AppendRow(mc_->list(), {{"name", Value("dbck-orphan")},
                          {"list_id", Value(int64_t{910001})},
                          {"acl_type", Value("LIST")},
                          {"acl_id", Value(int64_t{910002})}});
  AppendRow(mc_->members(), {{"list_id", Value(int64_t{910003})},
                             {"member_type", Value("USER")},
                             {"member_id", uid0}});
  AppendRow(mc_->members(), {{"list_id", Value(int64_t{910001})},
                             {"member_type", Value("USER")},
                             {"member_id", Value(int64_t{920001})}});
  AppendRow(mc_->members(), {{"list_id", Value(int64_t{910001})},
                             {"member_type", Value("STRING")},
                             {"member_id", Value(int64_t{930001})}});
  // mcmap with both ends missing, svc of a missing cluster.
  AppendRow(mc_->mcmap(),
            {{"mach_id", Value(int64_t{940001})}, {"clu_id", Value(int64_t{940002})}});
  AppendRow(mc_->svc(), {{"clu_id", Value(int64_t{940003})}, {"serv_label", Value("zephyr")}});
  // filesys pointing at a missing machine, owner, owners list and partition.
  AppendRow(filesys, {{"label", Value("dbck-lost")},
                      {"filsys_id", Value(int64_t{950001})},
                      {"mach_id", Value(int64_t{950002})},
                      {"owner", Value(int64_t{950003})},
                      {"owners", Value(int64_t{950004})},
                      {"type", Value("NFS")},
                      {"phys_id", Value(int64_t{950005})}});
  // nfsquota: a missing user (with soft < 0), a missing filesystem, soft >
  // hard on a live quota; nfsphys: allocation drift.
  Table* quota = mc_->nfsquota();
  AppendRow(quota, {{"users_id", Value(int64_t{960001})},
                    {"filsys_id", home0},
                    {"phys_id", phys0},
                    {"quota", Value(int64_t{100})},
                    {"soft", Value(int64_t{-5})}});
  AppendRow(quota, {{"users_id", cell(users, user_row(3), "users_id")},
                    {"filsys_id", Value(int64_t{960002})},
                    {"phys_id", cell(filesys, home_row(3), "phys_id")},
                    {"quota", Value(int64_t{50})}});
  size_t live_quota =
      From(quota).WhereEq("users_id", cell(users, user_row(4), "users_id")).Rows()[0];
  MoiraContext::SetCell(quota, live_quota, "soft", Value(int64_t{900}));
  Table* phys = mc_->nfsphys();
  RowRef drift = mc_->ExactOne(phys, "nfsphys_id", cell(filesys, home_row(6), "phys_id"),
                               MR_NFSPHYS);
  MoiraContext::SetCell(phys, drift.row, "allocated",
                        Value(MoiraContext::IntCell(phys, drift.row, "allocated") + 1000));
  // quotausage: one row for each usage rule.
  Table* usage = mc_->quotausage();
  AppendRow(usage, {{"users_id", Value(int64_t{970001})}, {"filsys_id", home0},
                    {"phys_id", phys0}, {"usage", Value(int64_t{10})}});
  AppendRow(usage, {{"users_id", uid0}, {"filsys_id", Value(int64_t{970002})},
                    {"phys_id", phys0}, {"usage", Value(int64_t{10})}});
  AppendRow(usage, {{"users_id", uid0}, {"filsys_id", home1},
                    {"phys_id", Value(int64_t{970003})}, {"usage", Value(int64_t{10})}});
  AppendRow(usage, {{"users_id", uid0}, {"filsys_id", home0},
                    {"phys_id", phys0}, {"usage", Value(int64_t{-7})}});
  // serverhosts with both ends missing, capacls and hostaccess dangling.
  AppendRow(mc_->serverhosts(),
            {{"service", Value("NOSUCHSVC")}, {"mach_id", Value(int64_t{980001})}});
  AppendRow(mc_->capacls(), {{"capability", Value("dbck_query")},
                             {"tag", Value("dbck")},
                             {"list_id", Value(int64_t{980002})}});
  AppendRow(mc_->hostaccess(),
            {{"mach_id", Value(int64_t{980003})}, {"acl_type", Value("NONE")}});

  const std::vector<std::string> kFindings = {
      "users row 1: gunderhi POP box on missing machine [repairable]",
      "users row 3: leads SMTP box string missing [repairable]",
      "users row 61: duplicate login jabbott",
      "users row 62: duplicate users_id 900001",
      "list row 59: dbck-orphan ACE list missing",
      "members row 114: membership in missing list [repairable]",
      "members row 115: dangling USER member [repairable]",
      "members row 116: dangling STRING member [repairable]",
      "mcmap row 13: mapping for missing machine [repairable]",
      "mcmap row 13: mapping for missing cluster [repairable]",
      "svc row 9: service data for missing cluster [repairable]",
      "filesys row 45: dbck-lost on missing machine",
      "filesys row 45: dbck-lost owner missing",
      "filesys row 45: dbck-lost owners list missing",
      "filesys row 45: dbck-lost on missing partition",
      "nfsquota row 45: quota for missing user [repairable]",
      "nfsquota row 46: quota for missing filesystem [repairable]",
      "nfsphys row 0: allocated=5500 but quotas sum to 4500 [repairable]",
      "nfsquota row 4: soft limit 900 exceeds hard quota 300 [repairable]",
      "nfsquota row 45: negative soft limit -5 [repairable]",
      "quotausage row 0: usage for missing user [repairable]",
      "quotausage row 1: usage for missing filesystem [repairable]",
      "quotausage row 2: usage with no matching quota [repairable]",
      "quotausage row 3: negative usage -7 [repairable]",
      "serverhosts row 10: host for missing service NOSUCHSVC [repairable]",
      "serverhosts row 10: NOSUCHSVC on missing machine [repairable]",
      "capacls row 116: capability points at missing list [repairable]",
      "hostaccess row 0: access entry for missing machine [repairable]",
  };
  const std::vector<std::string> kRepairLog = {
      "capacls row 116: dropped capability for missing list",
      "hostaccess row 0: dropped access entry for missing machine",
      "mcmap row 13: dropped dangling mapping",
      "members row 114: dropped dangling membership",
      "members row 115: dropped dangling membership",
      "members row 116: dropped dangling membership",
      "nfsphys row 0: recomputed allocated 5500 -> 4500",
      "nfsquota row 45: dropped quota for missing user or filesystem",
      "nfsquota row 46: dropped quota for missing user or filesystem",
      "nfsquota row 4: clamped soft limit 900 -> 300",
      "quotausage row 0: dropped usage for missing user",
      "quotausage row 1: dropped usage for missing filesystem",
      "quotausage row 2: dropped usage with no matching quota",
      "quotausage row 3: clamped negative usage -7 -> 0",
      "serverhosts row 10: dropped dangling server host",
      "svc row 9: dropped service data for missing cluster",
      "users row 1: cleared POP pobox to NONE",
      "users row 3: cleared SMTP pobox to NONE",
  };
  const std::vector<std::string> kLeft = {
      "users row 61: duplicate login jabbott",
      "users row 62: duplicate users_id 900001",
      "list row 59: dbck-orphan ACE list missing",
      "filesys row 45: dbck-lost on missing machine",
      "filesys row 45: dbck-lost owner missing",
      "filesys row 45: dbck-lost owners list missing",
      "filesys row 45: dbck-lost on missing partition",
  };

  DbConsistencyChecker dbck(mc_.get());
  EXPECT_EQ(kFindings, Render(dbck.Check()));
  std::vector<std::string> log;
  EXPECT_EQ(18, dbck.Repair(&log));
  std::sort(log.begin(), log.end());
  EXPECT_EQ(kRepairLog, log);
  EXPECT_EQ(kLeft, Render(dbck.Check()));
  EXPECT_EQ(0, dbck.Repair());
}

class AttachTest : public MoiraEnv {
 protected:
  void SetUp() override {
    SiteBuilder builder(mc_.get(), realm_.get());
    builder.Build(TestSiteSpec());
    logins_ = builder.active_logins();
    GeneratorResult result;
    ASSERT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &result));
    for (const auto& [name, contents] : result.common.members()) {
      ASSERT_GE(hesiod_.LoadDb(*contents), 0);
    }
    protocol_ = std::make_unique<HesiodProtocolServer>(&hesiod_);
    resolver_ = std::make_unique<HesiodResolver>(
        [this](std::string_view packet) { return protocol_->HandleQuery(packet); });
  }

  std::vector<std::string> logins_;
  HesiodServer hesiod_;
  std::unique_ptr<HesiodProtocolServer> protocol_;
  std::unique_ptr<HesiodResolver> resolver_;
};

TEST_F(AttachTest, ParseFilsysEntryFormats) {
  std::optional<FilsysEntry> nfs =
      ParseFilsysEntry("NFS /mit/aab charon w /mit/aab");
  ASSERT_TRUE(nfs.has_value());
  EXPECT_EQ("NFS", nfs->type);
  EXPECT_EQ("/mit/aab", nfs->remote);
  EXPECT_EQ("charon", nfs->server);
  EXPECT_EQ("w", nfs->access);
  EXPECT_EQ("/mit/aab", nfs->mount);
  EXPECT_TRUE(ParseFilsysEntry("RVD ade helen r /mnt/ade").has_value());
  EXPECT_FALSE(ParseFilsysEntry("AFS /x y r /z").has_value());
  EXPECT_FALSE(ParseFilsysEntry("NFS missing fields").has_value());
}

TEST_F(AttachTest, AttachesHomeLockerViaHesiod) {
  AttachClient attach(resolver_.get());
  FilsysEntry entry;
  ASSERT_EQ(MR_SUCCESS, attach.Attach(logins_[0], &entry));
  EXPECT_EQ("NFS", entry.type);
  EXPECT_EQ("/mit/" + logins_[0], entry.mount);
  EXPECT_EQ("w", entry.access);
  EXPECT_EQ(1u, attach.attach_count());
  EXPECT_NE(nullptr, attach.Attached(logins_[0]));
}

TEST_F(AttachTest, DoubleAttachAndMountConflict) {
  AttachClient attach(resolver_.get());
  ASSERT_EQ(MR_SUCCESS, attach.Attach(logins_[0]));
  EXPECT_EQ(MR_IN_USE, attach.Attach(logins_[0]));
  // A different locker at a different mount point is fine.
  EXPECT_EQ(MR_SUCCESS, attach.Attach(logins_[1]));
  EXPECT_EQ(2u, attach.attach_count());
}

TEST_F(AttachTest, UnknownLockerFails) {
  AttachClient attach(resolver_.get());
  EXPECT_EQ(MR_FILESYS, attach.Attach("no-such-locker"));
}

TEST_F(AttachTest, DetachFreesMountPoint) {
  AttachClient attach(resolver_.get());
  ASSERT_EQ(MR_SUCCESS, attach.Attach(logins_[0]));
  ASSERT_EQ(MR_SUCCESS, attach.Detach(logins_[0]));
  EXPECT_EQ(MR_NO_MATCH, attach.Detach(logins_[0]));
  EXPECT_EQ(MR_SUCCESS, attach.Attach(logins_[0]));
}

}  // namespace
}  // namespace moira
