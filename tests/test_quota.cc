// Quota engine tests (DESIGN.md "Quota engine"): live usage accounting,
// soft/hard limits with grace, the journalled sweep with deduplicated
// hard-limit notices, the seeded telemetry driver's fault oracle, the dbck
// quota pass, and replay determinism.
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/backup/checkpoint.h"
#include "src/backup/dbck.h"
#include "src/common/random.h"
#include "src/db/exec.h"
#include "src/dcm/cron.h"
#include "src/dcm/dcm.h"
#include "src/dcm/delta.h"
#include "src/nfsd/nfs_server.h"
#include "src/quota/quota.h"
#include "src/server/journal.h"
#include "src/sim/population.h"
#include "src/zephyrd/zephyr_bus.h"
#include "tests/test_env.h"

namespace moira {
namespace {

// Flattens a table to comparable strings (one per live row).
std::vector<std::string> DumpTable(Table* t) {
  std::vector<std::string> out;
  t->Scan([&](size_t, const Row& r) {
    std::string line;
    for (const Value& v : r) {
      line += v.ToString() + "|";
    }
    out.push_back(std::move(line));
    return true;
  });
  return out;
}

class QuotaQueryTest : public MoiraEnv {
 protected:
  void SetUp() override {
    SiteBuilder builder(mc_.get(), realm_.get());
    builder.Build(TestSiteSpec());
    logins_ = builder.active_logins();
  }

  // A login's home-locker coordinates as a fileserver would report them.
  struct Locker {
    int64_t uid = 0;
    std::string machine;
    std::string partition;
  };

  Locker LockerFor(const std::string& login) {
    Locker l;
    RowRef user = mc_->UserByLogin(login);
    EXPECT_EQ(MR_SUCCESS, user.code) << login;
    l.uid = MoiraContext::IntCell(mc_->users(), user.row, "uid");
    RowRef fs = mc_->FilesysByLabel(login);
    EXPECT_EQ(MR_SUCCESS, fs.code) << login;
    int64_t phys_id = MoiraContext::IntCell(mc_->filesys(), fs.row, "phys_id");
    RowRef phys = mc_->ExactOne(mc_->nfsphys(), "nfsphys_id", Value(phys_id), MR_NFSPHYS);
    EXPECT_EQ(MR_SUCCESS, phys.code);
    RowRef mach = mc_->ExactOne(
        mc_->machine(), "mach_id",
        Value(MoiraContext::IntCell(mc_->nfsphys(), phys.row, "mach_id")), MR_MACHINE);
    EXPECT_EQ(MR_SUCCESS, mach.code);
    l.machine = MoiraContext::StrCell(mc_->machine(), mach.row, "name");
    l.partition = PartitionStem(MoiraContext::StrCell(mc_->nfsphys(), phys.row, "dir"));
    return l;
  }

  int32_t Report(const Locker& l, int64_t delta, int64_t seq) {
    return RunRoot("report_quota_usage",
                   {l.machine, l.partition, std::to_string(l.uid), std::to_string(delta),
                    std::to_string(seq)});
  }

  // get_quota_status's single tuple: (kind, name, usage, reports, quota,
  // soft, entries, soft_exceeded, grace_flagged, hard_noticed).
  Tuple Status(const std::string& kind, const std::string& name) {
    std::vector<Tuple> tuples;
    EXPECT_EQ(MR_SUCCESS, RunRoot("get_quota_status", {kind, name}, &tuples));
    EXPECT_EQ(1u, tuples.size());
    return tuples.empty() ? Tuple{} : tuples[0];
  }

  std::vector<std::string> logins_;
};

TEST_F(QuotaQueryTest, ReportAccumulatesIntoUsageAndRollups) {
  Locker l = LockerFor(logins_[0]);
  ASSERT_EQ(MR_SUCCESS, Report(l, 120, 1));
  Tuple user = Status("USER", logins_[0]);
  EXPECT_EQ("120", user[2]);  // usage
  EXPECT_EQ("1", user[3]);    // reports
  EXPECT_EQ("300", user[4]);  // hard = site default
  EXPECT_EQ("300", user[5]);  // soft 0 means "soft = hard"
  EXPECT_EQ("1", user[6]);    // entries
  // Deltas accumulate; the filesystem total tracks the same number (a home
  // locker has a single quota holder).
  ASSERT_EQ(MR_SUCCESS, Report(l, -30, 2));
  EXPECT_EQ("90", Status("USER", logins_[0])[2]);
  EXPECT_EQ("90", Status("FILESYS", logins_[0])[2]);
  // Usage clamps at zero rather than going negative.
  ASSERT_EQ(MR_SUCCESS, Report(l, -1000, 3));
  EXPECT_EQ("0", Status("USER", logins_[0])[2]);
  EXPECT_EQ("0", Status("FILESYS", logins_[0])[2]);
}

TEST_F(QuotaQueryTest, StaleSequencesAreDeduplicatedPerMachine) {
  Locker l = LockerFor(logins_[0]);
  ASSERT_EQ(MR_SUCCESS, Report(l, 120, 1));
  // Same and older sequences are absorbed without touching the accounting.
  EXPECT_EQ(MR_EXISTS, Report(l, 50, 1));
  EXPECT_EQ(MR_EXISTS, Report(l, 50, 0));
  EXPECT_EQ("120", Status("USER", logins_[0])[2]);
  EXPECT_EQ("1", Status("USER", logins_[0])[3]);
  // Sequences are per machine: another server's seq 1 still applies.
  for (const std::string& other : logins_) {
    Locker lo = LockerFor(other);
    if (lo.machine != l.machine) {
      EXPECT_EQ(MR_SUCCESS, Report(lo, 10, 1));
      return;
    }
  }
  FAIL() << "test site has only one NFS server";
}

TEST_F(QuotaQueryTest, ReportValidation) {
  Locker l = LockerFor(logins_[0]);
  Locker bad = l;
  bad.machine = "NO-SUCH-HOST.MIT.EDU";
  EXPECT_EQ(MR_MACHINE, Report(bad, 10, 1));
  bad = l;
  bad.partition = "u99";
  EXPECT_EQ(MR_NFSPHYS, Report(bad, 10, 1));
  bad = l;
  bad.uid = 999999;
  EXPECT_EQ(MR_USER, Report(bad, 10, 1));
  EXPECT_EQ(MR_INTEGER, RunRoot("report_quota_usage",
                                {l.machine, l.partition, std::to_string(l.uid),
                                 "not-a-number", "1"}));
  // None of the rejects were journalled state: seq 1 still applies cleanly.
  EXPECT_EQ(MR_SUCCESS, Report(l, 10, 1));
}

TEST_F(QuotaQueryTest, SetQuotaLimitsValidatesAndTracksAllocation) {
  const std::string& login = logins_[0];
  EXPECT_EQ(MR_QUOTA, RunRoot("set_quota_limits", {login, login, "400", "300"}));
  EXPECT_EQ(MR_QUOTA, RunRoot("set_quota_limits", {login, login, "0", "0"}));
  EXPECT_EQ(MR_QUOTA, RunRoot("set_quota_limits", {login, login, "-5", "300"}));
  EXPECT_EQ(MR_INTEGER, RunRoot("set_quota_limits", {login, login, "soft", "300"}));
  EXPECT_EQ(MR_FILESYS,
            RunRoot("set_quota_limits", {"no-such-fs", login, "100", "300"}));
  // logins_[1] holds no quota on logins_[0]'s filesystem.
  EXPECT_EQ(MR_NO_QUOTA,
            RunRoot("set_quota_limits", {login, logins_[1], "100", "300"}));
  // A valid update moves the partition allocation by the hard-limit delta.
  RowRef fs = mc_->FilesysByLabel(login);
  int64_t phys_id = MoiraContext::IntCell(mc_->filesys(), fs.row, "phys_id");
  RowRef phys = mc_->ExactOne(mc_->nfsphys(), "nfsphys_id", Value(phys_id), MR_NFSPHYS);
  int64_t before = MoiraContext::IntCell(mc_->nfsphys(), phys.row, "allocated");
  ASSERT_EQ(MR_SUCCESS, RunRoot("set_quota_limits", {login, login, "100", "500"}));
  EXPECT_EQ(before + 200,
            MoiraContext::IntCell(mc_->nfsphys(), phys.row, "allocated"));
  Tuple status = Status("USER", login);
  EXPECT_EQ("500", status[4]);
  EXPECT_EQ("100", status[5]);
}

TEST_F(QuotaQueryTest, ListStatusAggregatesDirectMembersAtQueryTime) {
  Locker l0 = LockerFor(logins_[0]);
  Locker l1 = LockerFor(logins_[1]);
  ASSERT_EQ(MR_SUCCESS, Report(l0, 40, 100));
  int64_t seq = l1.machine == l0.machine ? 101 : 100;
  ASSERT_EQ(MR_SUCCESS, Report(l1, 25, seq));
  ASSERT_EQ(MR_SUCCESS,
            RunRoot("add_list", {"quota-watchers", "1", "1", "0", "0", "0", "-1", "USER",
                                 logins_[0], "quota test list"}));
  ASSERT_EQ(MR_SUCCESS,
            RunRoot("add_member_to_list", {"quota-watchers", "USER", logins_[0]}));
  ASSERT_EQ(MR_SUCCESS,
            RunRoot("add_member_to_list", {"quota-watchers", "USER", logins_[1]}));
  Tuple list = Status("LIST", "quota-watchers");
  EXPECT_EQ("65", list[2]);   // 40 + 25
  EXPECT_EQ("600", list[4]);  // two default 300-unit hard limits
  EXPECT_EQ("2", list[6]);
  // Membership churn is visible immediately: members expand at query time.
  ASSERT_EQ(MR_SUCCESS,
            RunRoot("delete_member_from_list", {"quota-watchers", "USER", logins_[1]}));
  EXPECT_EQ("40", Status("LIST", "quota-watchers")[2]);
  EXPECT_EQ(MR_TYPE, RunRoot("get_quota_status", {"GROUP", "quota-watchers"}));
}

TEST_F(QuotaQueryTest, StatusSelfAccessAndSweepStatsPrivilege) {
  // A user may always ask about themselves, and only themselves.
  EXPECT_EQ(MR_SUCCESS, Run(logins_[0], "get_quota_status", {"USER", logins_[0]}));
  EXPECT_EQ(MR_PERM, Run(logins_[0], "get_quota_status", {"USER", logins_[1]}));
  EXPECT_EQ(MR_PERM, Run(logins_[0], "get_quota_status", {"FILESYS", logins_[0]}));
  EXPECT_EQ(MR_PERM, Run(logins_[0], "get_quota_sweep_stats", {}));
  std::vector<Tuple> stats;
  EXPECT_EQ(MR_SUCCESS, RunRoot("get_quota_sweep_stats", {}, &stats));
  EXPECT_EQ(7u, stats.size());
}

// get_quota_status's tuple for every USER, LIST and FILESYS, checked after
// every step of a seeded mix of ingest (negative deltas included),
// set_quota_limits, quota and filesystem deletes, membership churn and
// sweeps against totals taken from full scans of quotausage, nfsquota and
// members (the rule bench_quota's ScanAnswer uses).
TEST_F(QuotaQueryTest, StatusMatchesFullScanTotalsUnderSeededChurn) {
  const std::vector<std::string> lists = {"quota-prop-0", "quota-prop-1"};
  for (const std::string& list : lists) {
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {list, "1", "1", "0", "0", "0", "-1", "USER",
                                               logins_[0], "quota property list"}));
  }
  // A sublist is not a direct USER member: its users never count.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {lists[0], "LIST", lists[1]}));

  // Totals by users_id and by filsys_id: the eight status columns after kind
  // and name (usage, reports, quota, soft, entries, soft_exceeded,
  // grace_flagged, hard_noticed).
  using Totals = std::array<int64_t, 8>;
  auto scan = [&](const char* key, std::map<int64_t, Totals>* out) {
    Table* usage = mc_->quotausage();
    for (size_t row : From(usage).Rows()) {
      Totals& t = (*out)[MoiraContext::IntCell(usage, row, key)];
      t[0] += MoiraContext::IntCell(usage, row, "usage");
      t[1] += MoiraContext::IntCell(usage, row, "reports");
    }
    Table* quota = mc_->nfsquota();
    for (size_t row : From(quota).Rows()) {
      Totals& t = (*out)[MoiraContext::IntCell(quota, row, key)];
      int64_t hard = MoiraContext::IntCell(quota, row, "quota");
      int64_t soft = MoiraContext::IntCell(quota, row, "soft");
      int64_t flags = MoiraContext::IntCell(quota, row, "qflags");
      t[2] += hard;
      t[3] += soft > 0 ? soft : hard;
      t[4] += 1;
      t[5] += MoiraContext::IntCell(quota, row, "sexceeded") != 0 ? 1 : 0;
      t[6] += (flags & kQuotaGraceExpired) != 0 ? 1 : 0;
      t[7] += (flags & kQuotaHardNoticed) != 0 ? 1 : 0;
    }
  };
  auto expect = [](const std::string& kind, const std::string& name, const Totals& t) {
    Tuple tuple = {kind, name};
    for (int64_t v : t) {
      tuple.push_back(std::to_string(v));
    }
    return tuple;
  };
  auto check_all = [&](int step) {
    std::map<int64_t, Totals> by_user;
    std::map<int64_t, Totals> by_filsys;
    scan("users_id", &by_user);
    scan("filsys_id", &by_filsys);
    for (const std::string& login : logins_) {
      int64_t id = MoiraContext::IntCell(mc_->users(), mc_->UserByLogin(login).row, "users_id");
      ASSERT_EQ(expect("USER", login, by_user[id]), Status("USER", login)) << "step " << step;
    }
    Table* members = mc_->members();
    for (const std::string& list : lists) {
      int64_t list_id = MoiraContext::IntCell(mc_->list(), mc_->ListByName(list).row, "list_id");
      Totals sum{};
      for (size_t row : From(members).Rows()) {
        if (MoiraContext::IntCell(members, row, "list_id") == list_id &&
            MoiraContext::StrCell(members, row, "member_type") == "USER") {
          const Totals& t = by_user[MoiraContext::IntCell(members, row, "member_id")];
          for (size_t i = 0; i < sum.size(); ++i) {
            sum[i] += t[i];
          }
        }
      }
      ASSERT_EQ(expect("LIST", list, sum), Status("LIST", list)) << "step " << step;
    }
    Table* filesys = mc_->filesys();
    for (size_t row : From(filesys).Rows()) {
      std::string label = MoiraContext::StrCell(filesys, row, "label");
      ASSERT_EQ(expect("FILESYS", label,
                       by_filsys[MoiraContext::IntCell(filesys, row, "filsys_id")]),
                Status("FILESYS", label))
          << "step " << step;
    }
  };

  SplitMix64 rng(20261019);
  std::map<std::string, int64_t> seqs;  // per-machine report sequence
  std::map<std::string, Locker> lockers;
  for (const std::string& login : logins_) {
    lockers[login] = LockerFor(login);
  }
  int reports = 0;
  int clamped = 0;
  int cascades = 0;
  int notices = 0;
  for (int step = 0; step < 300; ++step) {
    const std::string& login = logins_[rng.Below(logins_.size())];
    const Locker& l = lockers[login];
    switch (rng.Below(11)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        int64_t delta = rng.Between(-120, 160);
        int64_t before = std::stoll(Status("USER", login)[2]);
        if (Report(l, delta, ++seqs[l.machine]) == MR_SUCCESS) {
          ++reports;
          clamped += before + delta < 0 ? 1 : 0;
        }
        break;
      }
      case 4: {
        int64_t hard = rng.Between(1, 400);
        RunRoot("set_quota_limits", {login, login, std::to_string(rng.Between(0, hard)),
                                     std::to_string(hard)});
        break;
      }
      case 5:
        cascades += RunRoot("delete_nfs_quota", {login, login}) == MR_SUCCESS ? 1 : 0;
        break;
      case 6:
        if (rng.Chance(1, 3)) {
          cascades += RunRoot("delete_filesys", {login}) == MR_SUCCESS ? 1 : 0;
        }
        break;
      case 7:
      case 8:
        RunRoot("add_member_to_list", {lists[rng.Below(2)], "USER", login});
        break;
      case 9:
        RunRoot("delete_member_from_list", {lists[rng.Below(2)], "USER", login});
        break;
      default: {
        // A sweep past the grace window sets the grace and notice flags.
        clock_.Advance(4 * kSecondsPerDay);
        std::vector<Tuple> crossings;
        ASSERT_EQ(MR_SUCCESS, RunRoot("process_quota_sweep", {}, &crossings));
        notices += static_cast<int>(crossings.size());
        break;
      }
    }
    check_all(step);
    if (HasFatalFailure()) {
      return;
    }
  }
  // The mix exercised what it claims to.
  EXPECT_GT(reports, 50);
  EXPECT_GT(clamped, 0);
  EXPECT_GT(cascades, 2);
  EXPECT_GT(notices, 0);
}

// A checkpoint written before quotarollup was dropped from the schema still
// holds a file for it; loading ignores the file and restores the rest.
TEST_F(QuotaQueryTest, CheckpointWithStaleRollupFileLoads) {
  namespace fs = std::filesystem;
  Locker l = LockerFor(logins_[0]);
  ASSERT_EQ(MR_SUCCESS, Report(l, 120, 1));
  Tuple before = Status("USER", logins_[0]);
  fs::path root = fs::temp_directory_path() / "moira-test" / "quota-stale-rollup";
  fs::remove_all(root);
  ASSERT_TRUE(CheckpointManager::Write(*db_, root.string(), 9));
  std::optional<CheckpointRef> checkpoint = CheckpointManager::Latest(root.string());
  ASSERT_TRUE(checkpoint.has_value());
  {
    // kind:id:usage:reports:modtime, as the older dump wrote its rows.
    std::ofstream rollup(fs::path(checkpoint->path) / "quotarollup");
    rollup << "USER:1:120:1:568000000\nFILESYS:1:120:1:568000000\n";
  }
  Database db2(&clock_);
  CreateMoiraSchema(&db2);
  MoiraContext mc2(&db2);
  ASSERT_TRUE(CheckpointManager::Load(&db2, *checkpoint));
  EXPECT_EQ(nullptr, db2.GetTable("quotarollup"));
  EXPECT_EQ(DumpTable(mc_->quotausage()), DumpTable(mc2.quotausage()));
  std::vector<Tuple> after;
  ASSERT_EQ(MR_SUCCESS, QueryRegistry::Instance().Execute(
                            mc2, "root", "test", "get_quota_status", {"USER", logins_[0]},
                            [&](Tuple t) { after.push_back(std::move(t)); }));
  ASSERT_EQ(1u, after.size());
  EXPECT_EQ(before, after[0]);
  fs::remove_all(root);
}

class QuotaSweepTest : public QuotaQueryTest {
 protected:
  void SetUp() override {
    QuotaQueryTest::SetUp();
    zephyr_ = std::make_unique<ZephyrBus>(&clock_);
  }

  int32_t JReport(const Locker& l, int64_t delta, int64_t seq) {
    return ExecuteJournaled(*mc_, &journal_, "root", "quota_ingest",
                            "report_quota_usage",
                            {l.machine, l.partition, std::to_string(l.uid),
                             std::to_string(delta), std::to_string(seq)});
  }

  QuotaSweepSummary Sweep(uint64_t* marker = nullptr) {
    return RunQuotaSweep(*mc_, &journal_, zephyr_.get(), marker);
  }

  size_t Notices() { return zephyr_->Matching(kQuotaZephyrClass, kQuotaZephyrInstance).size(); }

  Journal journal_;
  std::unique_ptr<ZephyrBus> zephyr_;
};

TEST_F(QuotaSweepTest, GraceLifecycleOnSimulatedClock) {
  const std::string& login = logins_[0];
  Locker l = LockerFor(login);
  ASSERT_EQ(MR_SUCCESS,
            ExecuteJournaled(*mc_, &journal_, "root", "test", "set_quota_limits",
                             {login, login, "100", "200"}));
  ASSERT_EQ(MR_SUCCESS, JReport(l, 150, 1));  // crosses soft, starts grace
  Tuple status = Status("USER", login);
  EXPECT_EQ("1", status[7]);  // soft_exceeded
  EXPECT_EQ("0", status[8]);  // grace not expired yet
  uint64_t marker = 0;
  QuotaSweepSummary s1 = Sweep(&marker);
  EXPECT_TRUE(s1.ran);
  EXPECT_EQ(0, s1.flagged);
  EXPECT_EQ(0, s1.notices);
  // The journal is idle but a grace window is running: the sweep must keep
  // firing, and flags once the (default 7-day) window expires.
  clock_.Advance(7 * kSecondsPerDay + kSecondsPerMinute);
  QuotaSweepSummary s2 = Sweep(&marker);
  EXPECT_TRUE(s2.ran);
  EXPECT_EQ(1, s2.flagged);
  EXPECT_EQ(0, s2.notices);
  EXPECT_EQ("1", Status("USER", login)[8]);
  // Nothing pending and nothing journalled since: now the sweep skips.
  QuotaSweepSummary s3 = Sweep(&marker);
  EXPECT_FALSE(s3.ran);
  // Dropping back to or below soft clears the stamp and the flag.
  ASSERT_EQ(MR_SUCCESS, JReport(l, -100, 2));
  status = Status("USER", login);
  EXPECT_EQ("0", status[7]);
  EXPECT_EQ("0", status[8]);
  QuotaSweepSummary s4 = Sweep(&marker);
  EXPECT_TRUE(s4.ran);  // the ingest dirtied the journal range
  EXPECT_EQ(0, s4.flagged);
  EXPECT_EQ(0u, Notices());
}

TEST_F(QuotaSweepTest, HardCrossingFiresExactlyOneNotice) {
  const std::string& login = logins_[0];
  Locker l = LockerFor(login);
  ASSERT_EQ(MR_SUCCESS,
            ExecuteJournaled(*mc_, &journal_, "root", "test", "set_quota_limits",
                             {login, login, "100", "200"}));
  ASSERT_EQ(MR_SUCCESS, JReport(l, 250, 1));
  QuotaSweepSummary s1 = Sweep();
  EXPECT_EQ(1, s1.notices);
  ASSERT_EQ(1u, Notices());
  ZephyrNotice notice = zephyr_->Matching(kQuotaZephyrClass, kQuotaZephyrInstance)[0];
  EXPECT_NE(std::string::npos, notice.message.find(login));
  EXPECT_NE(std::string::npos, notice.message.find("250/200"));
  // Re-sweeping while still over hard dedups instead of re-sending.
  QuotaSweepSummary s2 = Sweep();
  EXPECT_EQ(0, s2.notices);
  EXPECT_EQ(1, s2.deduped);
  ASSERT_EQ(MR_SUCCESS, JReport(l, 30, 2));  // 280, still over
  EXPECT_EQ(0, Sweep().notices);
  EXPECT_EQ(1u, Notices());
  // Flapping around hard (but staying above soft) stays deduplicated.
  ASSERT_EQ(MR_SUCCESS, JReport(l, -130, 3));  // 150: below hard, above soft
  EXPECT_EQ(0, Sweep().notices);
  ASSERT_EQ(MR_SUCCESS, JReport(l, 100, 4));  // 250 again
  EXPECT_EQ(0, Sweep().notices);
  EXPECT_EQ(1u, Notices());
  // Only a full recovery below soft re-arms the notice.
  ASSERT_EQ(MR_SUCCESS, JReport(l, -200, 5));  // 50, below soft
  EXPECT_EQ(0, Sweep().notices);
  ASSERT_EQ(MR_SUCCESS, JReport(l, 200, 6));  // 250, a fresh crossing
  EXPECT_EQ(1, Sweep().notices);
  EXPECT_EQ(2u, Notices());
}

TEST_F(QuotaSweepTest, SweepSkipsIdleJournalAndUnrelatedTraffic) {
  uint64_t marker = 0;
  // Empty journal, nothing pending: skip.
  EXPECT_FALSE(Sweep(&marker).ran);
  // Unrelated journalled churn does not wake the sweep.
  ASSERT_EQ(MR_SUCCESS,
            ExecuteJournaled(*mc_, &journal_, "root", "test", "add_user",
                             {"qsweepx", "9901", "/bin/csh", "Sweep", "Quota", "Q", "1",
                              "hashq", "G"}));
  EXPECT_FALSE(Sweep(&marker).ran);
  // A usage report is quota-relevant: the next pass runs.
  Locker l = LockerFor(logins_[0]);
  ASSERT_EQ(MR_SUCCESS, JReport(l, 10, 1));
  EXPECT_TRUE(Sweep(&marker).ran);
  EXPECT_FALSE(Sweep(&marker).ran);
}

TEST_F(QuotaSweepTest, CronScheduledSweepUsesDirtySkip) {
  CronScheduler cron(&clock_);
  QuotaSweepSummary last;
  ScheduleQuotaSweep(&cron, mc_.get(), &journal_, zephyr_.get(), kSecondsPerDay, &last);
  // The first firing always sweeps (baseline); later idle firings skip.
  ASSERT_TRUE(cron.TriggerNow("quota_sweep"));
  EXPECT_TRUE(last.ran);
  ASSERT_TRUE(cron.TriggerNow("quota_sweep"));
  EXPECT_FALSE(last.ran);
  Locker l = LockerFor(logins_[0]);
  ASSERT_EQ(MR_SUCCESS, JReport(l, 10, 1));
  ASSERT_TRUE(cron.TriggerNow("quota_sweep"));
  EXPECT_TRUE(last.ran);
}

TEST_F(QuotaSweepTest, ReplayProducesIdenticalQuotaState) {
  // Drive limits, ingest, grace expiry, and notices through the journal.
  const std::string& login = logins_[0];
  Locker l0 = LockerFor(login);
  Locker l1 = LockerFor(logins_[1]);
  ASSERT_EQ(MR_SUCCESS,
            ExecuteJournaled(*mc_, &journal_, "root", "test", "set_quota_limits",
                             {login, login, "100", "200"}));
  ASSERT_EQ(MR_SUCCESS, JReport(l0, 250, 1));
  int64_t seq1 = l1.machine == l0.machine ? 2 : 1;
  ASSERT_EQ(MR_SUCCESS, JReport(l1, 40, seq1));
  Sweep();
  clock_.Advance(8 * kSecondsPerDay);
  ASSERT_EQ(MR_SUCCESS, JReport(l0, -10, seq1 + 1));
  Sweep();
  // Rebuild the same site from scratch and replay the journal with the
  // clock pinned to each entry's timestamp, as a replica does.
  SimulatedClock clock2(568000000);
  auto db2 = std::make_unique<Database>(&clock2);
  CreateMoiraSchema(db2.get());
  SeedMoiraDefaults(db2.get());
  auto mc2 = std::make_unique<MoiraContext>(db2.get());
  KerberosRealm realm2(&clock2);
  SiteBuilder builder2(mc2.get(), &realm2);
  builder2.Build(TestSiteSpec());
  for (const JournalEntry& entry : journal_.entries()) {
    clock2.Set(entry.when);
    EXPECT_EQ(MR_SUCCESS,
              QueryRegistry::Instance().Execute(*mc2, entry.principal, entry.client,
                                                entry.query, entry.args, [](Tuple) {}));
  }
  EXPECT_EQ(DumpTable(mc_->quotausage()), DumpTable(mc2->quotausage()));
  EXPECT_EQ(DumpTable(mc_->nfsquota()), DumpTable(mc2->nfsquota()));
  EXPECT_EQ(DumpTable(mc_->values()), DumpTable(mc2->values()));
}

// A complete site with DCM-shipped fileservers, for the telemetry loop.
struct QuotaSite {
  SimulatedClock clock{568000000};
  std::unique_ptr<Database> db;
  std::unique_ptr<MoiraContext> mc;
  std::unique_ptr<KerberosRealm> realm;
  HostDirectory directory;
  std::vector<std::unique_ptr<SimHost>> hosts;
  std::unique_ptr<ZephyrBus> bus;
  std::unique_ptr<Dcm> dcm;
  std::map<std::string, std::unique_ptr<NfsServerSim>> servers;
  std::vector<std::string> logins;
  std::vector<std::string> nfs_names;
  Journal journal;

  QuotaSite() {
    RegisterMoiraErrorTable();
    db = std::make_unique<Database>(&clock);
    CreateMoiraSchema(db.get());
    SeedMoiraDefaults(db.get());
    mc = std::make_unique<MoiraContext>(db.get());
    realm = std::make_unique<KerberosRealm>(&clock);
    SiteBuilder builder(mc.get(), realm.get());
    builder.Build(TestSiteSpec());
    logins = builder.active_logins();
    nfs_names = builder.nfs_server_names();
    bus = std::make_unique<ZephyrBus>(&clock);
    hosts = CreateSimHosts(*mc, realm.get(), &directory);
    dcm = std::make_unique<Dcm>(mc.get(), realm.get(), bus.get(), &directory);
    ConfigureStandardServices(dcm.get());
    for (const std::string& name : nfs_names) {
      auto server = std::make_unique<NfsServerSim>(directory.Find(name));
      InstallNfsUpdateCommand(directory.Find(name), server.get());
      servers.emplace(name, std::move(server));
    }
    clock.Advance(kSecondsPerDay);
    dcm->RunOnce();  // ships credentials/.quotas/.dirs to every fileserver
  }

  QuotaTelemetryDriver MakeDriver(uint64_t seed) {
    QuotaTelemetryDriver driver(mc.get(), &journal, seed);
    for (const std::string& name : nfs_names) {
      driver.AttachServer(name, servers.at(name).get());
    }
    return driver;
  }
};

TEST(QuotaTelemetryTest, FaultyIngestConvergesToServerTruth) {
  QuotaSite site;
  QuotaTelemetryDriver driver = site.MakeDriver(7);
  QuotaFaultPlan faults;
  faults.duplicate_permille = 300;
  faults.defer_permille = 300;
  QuotaIngestStats total;
  for (int round = 0; round < 10; ++round) {
    QuotaIngestStats s = driver.RunRound(faults);
    total.applied += s.applied;
    total.deduped += s.deduped;
    total.rejected += s.rejected;
    site.clock.Advance(kSecondsPerHour);
  }
  // Flush rounds with a clean transport drain everything still pending.
  driver.RunRound({});
  driver.RunRound({});
  EXPECT_EQ(0, total.rejected);
  EXPECT_GT(total.applied, 0);
  EXPECT_GT(total.deduped, 0);  // the fault plan actually injected retries
  // Every server's usage map is the ground truth the accounting must match.
  int checked = 0;
  for (const std::string& name : site.nfs_names) {
    NfsServerSim& server = *site.servers.at(name);
    for (const auto& [uid, used] : server.usage()) {
      RowRef user = site.mc->UserByUid(uid);
      ASSERT_EQ(MR_SUCCESS, user.code);
      int64_t users_id = MoiraContext::IntCell(site.mc->users(), user.row, "users_id");
      Table* usage = site.mc->quotausage();
      std::vector<size_t> rows =
          From(usage).WhereEq("users_id", Value(users_id)).Rows();
      ASSERT_EQ(1u, rows.size()) << uid;
      EXPECT_EQ(used, MoiraContext::IntCell(usage, rows[0], "usage")) << uid;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(QuotaTelemetryTest, DuplicateDeliveryIsByteIdenticalToExactlyOnce) {
  // Two identical sites, one with at-least-once redelivery faults, one with
  // exactly-once transport.  The per-machine sequence check must make them
  // indistinguishable: same tables, same sweep output, same notices.
  QuotaSite faulty;
  QuotaSite clean;
  QuotaTelemetryDriver faulty_driver = faulty.MakeDriver(42);
  QuotaTelemetryDriver clean_driver = clean.MakeDriver(42);
  QuotaFaultPlan faults;
  faults.duplicate_permille = 500;
  uint64_t faulty_marker = 0;
  uint64_t clean_marker = 0;
  for (int round = 0; round < 9; ++round) {
    faulty_driver.RunRound(faults);
    clean_driver.RunRound({});
    faulty.clock.Advance(kSecondsPerHour);
    clean.clock.Advance(kSecondsPerHour);
    if (round % 3 == 2) {
      QuotaSweepSummary fs =
          RunQuotaSweep(*faulty.mc, &faulty.journal, faulty.bus.get(), &faulty_marker);
      QuotaSweepSummary cs =
          RunQuotaSweep(*clean.mc, &clean.journal, clean.bus.get(), &clean_marker);
      EXPECT_EQ(cs.ran, fs.ran);
      EXPECT_EQ(cs.notices, fs.notices);
      EXPECT_EQ(cs.flagged, fs.flagged);
    }
  }
  EXPECT_EQ(DumpTable(clean.mc->quotausage()), DumpTable(faulty.mc->quotausage()));
  EXPECT_EQ(DumpTable(clean.mc->nfsquota()), DumpTable(faulty.mc->nfsquota()));
  // Zero missed and zero duplicate hard-limit notices, message for message.
  std::vector<ZephyrNotice> faulty_notices =
      faulty.bus->Matching(kQuotaZephyrClass, kQuotaZephyrInstance);
  std::vector<ZephyrNotice> clean_notices =
      clean.bus->Matching(kQuotaZephyrClass, kQuotaZephyrInstance);
  ASSERT_EQ(clean_notices.size(), faulty_notices.size());
  for (size_t i = 0; i < clean_notices.size(); ++i) {
    EXPECT_EQ(clean_notices[i].message, faulty_notices[i].message);
  }
  // The journals carry the same applied mutations (duplicates were never
  // journalled), so replicas of both sites converge too.
  ASSERT_EQ(clean.journal.entries().size(), faulty.journal.entries().size());
}

class NfsUsageSimTest : public MoiraEnv {
 protected:
  void SetUp() override {
    host_ = std::make_unique<SimHost>("NFS-TEST.MIT.EDU", realm_.get(), &clock_);
    server_ = std::make_unique<NfsServerSim>(host_.get());
  }

  int Apply(const std::string& quotas) {
    host_->WriteFileDirect("/site/moira/u1.quotas", quotas);
    return server_->ApplyMoiraFiles("/site/moira");
  }

  std::unique_ptr<SimHost> host_;
  std::unique_ptr<NfsServerSim> server_;
};

TEST_F(NfsUsageSimTest, QuotaForDistinguishesMissingFromZero) {
  ASSERT_EQ(0, Apply("5001 300\n5002 0\n"));
  EXPECT_EQ(300, server_->QuotaFor(5001).value_or(-1));
  EXPECT_EQ(0, server_->QuotaFor(5002).value_or(-1));  // explicit zero quota
  EXPECT_FALSE(server_->QuotaFor(5003).has_value());   // no quota at all
}

TEST_F(NfsUsageSimTest, ApplyQuotasRejectsMalformedFiles) {
  EXPECT_EQ(1, Apply("5001 300\n5001 200\n"));  // duplicate uid
  EXPECT_EQ(1, Apply("5001 -5\n"));             // negative units
  EXPECT_EQ(1, Apply("5001 lots\n"));           // non-numeric units
}

TEST_F(NfsUsageSimTest, DrainReportsOnlyChangedUidsWithMonotoneSequences) {
  ASSERT_EQ(0, Apply("5001 300\n5002 300\n"));
  server_->SetUsage(5001, 50);
  std::vector<UsageReportLine> lines = server_->DrainUsageReports();
  ASSERT_EQ(1u, lines.size());
  EXPECT_EQ("u1", lines[0].partition);
  EXPECT_EQ(5001, lines[0].uid);
  EXPECT_EQ(50, lines[0].delta);
  EXPECT_EQ(1, lines[0].seq);
  // No movement, nothing to report.
  EXPECT_TRUE(server_->DrainUsageReports().empty());
  // Shrinkage reports a negative delta; sequences keep climbing.
  server_->SetUsage(5001, 30);
  server_->SetUsage(5002, 10);
  lines = server_->DrainUsageReports();
  ASSERT_EQ(2u, lines.size());
  EXPECT_EQ(-20, lines[0].delta);
  EXPECT_EQ(10, lines[1].delta);
  EXPECT_LT(lines[0].seq, lines[1].seq);
  EXPECT_EQ(3, server_->report_seq());
}

TEST_F(NfsUsageSimTest, ChurnIsDeterministicForASeed) {
  ASSERT_EQ(0, Apply("5001 300\n5002 80\n5003 300\n"));
  NfsServerSim other(host_.get());
  ASSERT_EQ(0, other.ApplyMoiraFiles("/site/moira"));
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    server_->ChurnUsage(seed);
    other.ChurnUsage(seed);
  }
  EXPECT_EQ(server_->usage(), other.usage());
  // Churn touched every quota-holding uid.
  EXPECT_EQ(3u, server_->usage().size());
}

class DbckQuotaTest : public QuotaQueryTest {
 protected:
  std::vector<DbckIssue> QuotaIssues() {
    std::vector<DbckIssue> all = DbConsistencyChecker(mc_.get()).Check();
    std::vector<DbckIssue> quota;
    for (DbckIssue& issue : all) {
      if (issue.table == "nfsquota" || issue.table == "quotausage") {
        quota.push_back(std::move(issue));
      }
    }
    return quota;
  }

  bool HasIssue(const std::vector<DbckIssue>& issues, const std::string& needle) {
    for (const DbckIssue& issue : issues) {
      if (issue.description.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
};

TEST_F(DbckQuotaTest, DetectsAndRepairsQuotaInvariantViolations) {
  // Healthy accounting state first.
  Locker l = LockerFor(logins_[0]);
  ASSERT_EQ(MR_SUCCESS, Report(l, 120, 1));
  ASSERT_TRUE(QuotaIssues().empty());
  // Break every invariant the quota pass guards.
  Table* quota = mc_->nfsquota();
  size_t some_quota = From(quota).Rows()[0];
  MoiraContext::SetCell(quota, some_quota, "soft", Value(int64_t{900}));  // > hard 300
  mc_->quotausage()->Append({Value(int64_t{999999}), Value(int64_t{1}), Value(int64_t{1}),
                             Value(int64_t{10}), Value(int64_t{1}), Value(int64_t{0})});
  Table* usage = mc_->quotausage();
  size_t live_usage = From(usage).Rows()[0];
  MoiraContext::SetCell(usage, live_usage, "usage", Value(int64_t{-7}));
  std::vector<DbckIssue> issues = QuotaIssues();
  EXPECT_TRUE(HasIssue(issues, "soft limit 900 exceeds hard quota"));
  EXPECT_TRUE(HasIssue(issues, "usage for missing user"));
  EXPECT_TRUE(HasIssue(issues, "negative usage -7"));
  for (const DbckIssue& issue : issues) {
    EXPECT_TRUE(issue.repairable) << issue.description;
  }
  // Repair fixes everything, reporting one line per violation.
  std::vector<std::string> log;
  int repaired = DbConsistencyChecker(mc_.get()).Repair(&log);
  EXPECT_GE(repaired, 3);
  EXPECT_EQ(static_cast<size_t>(repaired), log.size());
  ASSERT_TRUE(QuotaIssues().empty());
  // And is idempotent.
  EXPECT_EQ(0, DbConsistencyChecker(mc_.get()).Repair());
}

TEST_F(DbckQuotaTest, CascadedQuotaDeleteLeavesConsistentAccounting) {
  // Usage accounted against a quota row, then the quota (and filesystem) is
  // deleted through the query layer: the cascade must remove the usage so
  // dbck stays clean and the totals drop.
  Locker l = LockerFor(logins_[0]);
  ASSERT_EQ(MR_SUCCESS, Report(l, 120, 1));
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_nfs_quota", {logins_[0], logins_[0]}));
  ASSERT_TRUE(QuotaIssues().empty());
  EXPECT_EQ("0", Status("USER", logins_[0])[2]);
  EXPECT_EQ("0", Status("USER", logins_[0])[6]);  // no quota entries left
}

// Usage is kept per (user, partition), quotas per (user, filesystem).  When
// a user holds quotas on two filesystems of one partition, deleting either
// keeps the usage, now accounted under the quota that remains, and later
// reports add to it.
TEST_F(DbckQuotaTest, DeletingOneQuotaKeepsUsageAccountedUnderAnother) {
  const std::string& login = logins_[0];
  Locker l = LockerFor(login);
  RowRef home = mc_->FilesysByLabel(login);
  ASSERT_EQ(MR_SUCCESS, home.code);
  const std::string home_dir = MoiraContext::StrCell(mc_->filesys(), home.row, "name");
  RowRef owners = mc_->ExactOne(
      mc_->list(), "list_id", Value(MoiraContext::IntCell(mc_->filesys(), home.row, "owners")),
      MR_LIST);
  ASSERT_EQ(MR_SUCCESS, owners.code);
  const std::string project_dir = home_dir.substr(0, home_dir.rfind('/')) + "/quotaproj";
  ASSERT_EQ(MR_SUCCESS,
            RunRoot("add_filesys",
                    {"quotaproj", "NFS", l.machine, project_dir, "/mit/quotaproj", "w", "", login,
                     MoiraContext::StrCell(mc_->list(), owners.row, "name"), "1", "PROJECT"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_nfs_quota", {"quotaproj", login, "100"}));
  ASSERT_EQ(MR_SUCCESS, Report(l, 50, 1));
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_nfs_quota", {"quotaproj", login}));
  EXPECT_EQ("50", Status("FILESYS", login)[2]);
  EXPECT_EQ("50", Status("USER", login)[2]);
  ASSERT_EQ(MR_SUCCESS, Report(l, 5, 2));
  EXPECT_EQ("55", Status("FILESYS", login)[2]);
  EXPECT_TRUE(QuotaIssues().empty());

  // delete_filesys on the filesystem the usage is accounted under moves it
  // to the quota left on the partition, leaving out the one being deleted.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_nfs_quota", {"quotaproj", login, "100"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_filesys", {login}));
  EXPECT_EQ("55", Status("FILESYS", "quotaproj")[2]);
  EXPECT_EQ("55", Status("USER", login)[2]);
  EXPECT_TRUE(QuotaIssues().empty());
  // With the last quota on the partition gone, so is the usage.
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_filesys", {"quotaproj"}));
  EXPECT_EQ("0", Status("USER", login)[2]);
  EXPECT_EQ(0u, From(mc_->quotausage()).Rows().size());
  EXPECT_TRUE(QuotaIssues().empty());
}

}  // namespace
}  // namespace moira
