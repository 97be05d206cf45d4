// Tests for the checkpoint + changelog lifecycle (DESIGN.md "Checkpoint &
// changelog lifecycle"): journal directory mode (segment rotation, on-disk
// truncation, restart recovery), crash-safe checkpoint writing, the
// scheduled lifecycle pass, offline point-in-time recovery, and the
// end-to-end checkpoint → rotate → truncate → restart → replica bootstrap
// flow under the seeded fault plan.
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "src/backup/backup.h"
#include "src/backup/checkpoint.h"
#include "src/client/client.h"
#include "src/dcm/cron.h"
#include "src/repl/repl_fault.h"
#include "src/repl/replica.h"
#include "src/server/server.h"
#include "tests/test_env.h"

namespace moira {
namespace {

namespace fs = std::filesystem;

fs::path TempDir(const char* name) {
  fs::path dir = fs::temp_directory_path() / "moira-test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JournalEntry MakeEntry(UnixTime when, const std::string& query) {
  return JournalEntry{0, when, "p", "c", query, {}};
}

// Every journal file under dir (sealed segments + live), parsed.
std::vector<JournalEntry> DiskEntries(const fs::path& dir) {
  std::optional<std::vector<JournalEntry>> entries = Journal::ReadRange(dir.string());
  EXPECT_TRUE(entries.has_value());
  return entries.value_or(std::vector<JournalEntry>{});
}

// Asserts the on-disk bytes describe exactly the journal's retained entries.
void ExpectDiskMatchesMemory(const Journal& journal, const fs::path& dir) {
  std::vector<JournalEntry> disk = DiskEntries(dir);
  ASSERT_EQ(journal.entries().size(), disk.size());
  for (size_t i = 0; i < disk.size(); ++i) {
    EXPECT_EQ(journal.entries()[i].ToLine(), disk[i].ToLine()) << "entry " << i;
  }
}

// --- Journal directory mode: rotation, truncation, recovery ---

TEST(JournalDirTest, RotateSealsLiveIntoNamedSegment) {
  fs::path dir = TempDir("dir-rotate");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
  for (int i = 1; i <= 3; ++i) {
    journal.Append(MakeEntry(100 + i, "q" + std::to_string(i)));
  }
  ASSERT_TRUE(journal.Rotate());
  ASSERT_EQ(1u, journal.segments().size());
  EXPECT_EQ(1u, journal.segments()[0].first_seq);
  EXPECT_EQ(3u, journal.segments()[0].last_seq);
  EXPECT_TRUE(fs::exists(dir / "journal.1-3"));
  // The live file is fresh; the next append lands there.
  journal.Append(MakeEntry(200, "q4"));
  ASSERT_TRUE(journal.Rotate());
  EXPECT_TRUE(fs::exists(dir / "journal.4-4"));
  // An empty live file has nothing to seal.
  EXPECT_FALSE(journal.Rotate());
  ExpectDiskMatchesMemory(journal, dir);
}

TEST(JournalDirTest, AutoRotateAtThreshold) {
  fs::path dir = TempDir("dir-auto-rotate");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
  journal.set_rotate_threshold(4);
  for (int i = 1; i <= 10; ++i) {
    journal.Append(MakeEntry(100 + i, "q" + std::to_string(i)));
  }
  // 10 entries at threshold 4: two sealed segments plus a live tail of 2.
  ASSERT_EQ(2u, journal.segments().size());
  EXPECT_TRUE(fs::exists(dir / "journal.1-4"));
  EXPECT_TRUE(fs::exists(dir / "journal.5-8"));
  EXPECT_EQ(10u, journal.last_seq());
  ExpectDiskMatchesMemory(journal, dir);
}

TEST(JournalDirTest, TruncateRetiresWholeSegmentsOnDisk) {
  fs::path dir = TempDir("dir-truncate");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
  journal.set_rotate_threshold(3);
  for (int i = 1; i <= 9; ++i) {
    journal.Append(MakeEntry(100 + i, "q" + std::to_string(i)));
  }
  // Segments 1-3 and 4-6 sealed, 7..9 live.  Truncating through 6 deletes
  // both sealed segments and advances base_seq to the boundary.
  EXPECT_EQ(6u, journal.TruncateThrough(6));
  EXPECT_EQ(6u, journal.base_seq());
  EXPECT_EQ(7u, journal.first_seq());
  EXPECT_FALSE(fs::exists(dir / "journal.1-3"));
  EXPECT_FALSE(fs::exists(dir / "journal.4-6"));
  ExpectDiskMatchesMemory(journal, dir);
  // Reloading the directory sees exactly the retained entries.
  Journal reloaded;
  EXPECT_EQ(3, reloaded.AttachDirectory(dir.string()));
  EXPECT_EQ(6u, reloaded.base_seq());
  EXPECT_EQ(9u, reloaded.last_seq());
}

TEST(JournalDirTest, TruncateMidSegmentKeepsWholeSegment) {
  fs::path dir = TempDir("dir-truncate-mid");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
  journal.set_rotate_threshold(3);
  for (int i = 1; i <= 7; ++i) {
    journal.Append(MakeEntry(100 + i, "q" + std::to_string(i)));
  }
  // Cut lands inside segment 4-6: only 1-3 retires; 4..7 all stay, on disk
  // and in memory, because truncation is segment-granular.
  EXPECT_EQ(3u, journal.TruncateThrough(5));
  EXPECT_EQ(3u, journal.base_seq());
  EXPECT_EQ(4u, journal.first_seq());
  EXPECT_TRUE(fs::exists(dir / "journal.4-6"));
  ExpectDiskMatchesMemory(journal, dir);
}

TEST(JournalDirTest, TruncateCoveringLiveSealsItFirst) {
  fs::path dir = TempDir("dir-truncate-live");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
  for (int i = 1; i <= 5; ++i) {
    journal.Append(MakeEntry(100 + i, "q" + std::to_string(i)));
  }
  // The cut covers the whole live file: it is sealed and retired, so the
  // truncated entries cannot resurrect on restart.
  EXPECT_EQ(5u, journal.TruncateThrough(5));
  EXPECT_EQ(5u, journal.base_seq());
  EXPECT_TRUE(journal.entries().empty());
  EXPECT_TRUE(DiskEntries(dir).empty());
  Journal reloaded;
  EXPECT_EQ(0, reloaded.AttachDirectory(dir.string()));
  EXPECT_TRUE(reloaded.entries().empty());
  // Sequence numbering survives via recovery from a checkpoint stamp, not
  // the empty directory; a fresh attach with after_seq carries it.
  Journal stamped;
  EXPECT_EQ(0, stamped.AttachDirectory(dir.string(), 5));
  EXPECT_EQ(5u, stamped.last_seq());
  EXPECT_EQ(6u, stamped.Append(MakeEntry(200, "q6")));
}

TEST(JournalDirTest, AttachRecoversAcrossSegmentsAndLive) {
  fs::path dir = TempDir("dir-recover");
  {
    Journal journal;
    ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
    journal.set_rotate_threshold(3);
    for (int i = 1; i <= 8; ++i) {
      journal.Append(MakeEntry(100 + i, "q" + std::to_string(i)));
    }
    journal.TruncateThrough(3);
  }
  Journal journal;
  EXPECT_EQ(5, journal.AttachDirectory(dir.string()));
  EXPECT_EQ(3u, journal.base_seq());  // restored from the first seq on disk
  EXPECT_EQ(4u, journal.first_seq());
  EXPECT_EQ(8u, journal.last_seq());
  // Appends resume both numbering and the previous live file.
  EXPECT_EQ(9u, journal.Append(MakeEntry(200, "q9")));
  ExpectDiskMatchesMemory(journal, dir);
  // After_seq skips entries a checkpoint already covers but keeps numbering.
  Journal tail;
  EXPECT_EQ(2, tail.AttachDirectory(dir.string(), 7));
  EXPECT_EQ(7u, tail.base_seq());
  EXPECT_EQ(9u, tail.last_seq());
  ASSERT_EQ(2u, tail.entries().size());
  EXPECT_EQ(8u, tail.entries()[0].seq);
}

TEST(JournalDirTest, TornLiveTailSkippedOnAttach) {
  fs::path dir = TempDir("dir-torn");
  {
    Journal journal;
    ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
    journal.Append(MakeEntry(100, "q1"));
    journal.Append(MakeEntry(101, "q2"));
  }
  {
    // Crash mid-append: a torn final line in the live file.
    std::ofstream out(dir / "journal", std::ios::app | std::ios::binary);
    out << "3:10";
  }
  Journal journal;
  EXPECT_EQ(2, journal.AttachDirectory(dir.string()));
  EXPECT_EQ(1, journal.corrupt_lines_skipped());
  EXPECT_EQ(2u, journal.last_seq());
  // The journal remains appendable; seq 3 is reassigned cleanly.
  EXPECT_EQ(3u, journal.Append(MakeEntry(200, "q3")));
}

TEST(JournalDirTest, CrashDuringRotationLeavesConsistentState) {
  fs::path dir = TempDir("dir-crash-rotate");
  {
    Journal journal;
    ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
    for (int i = 1; i <= 4; ++i) {
      journal.Append(MakeEntry(100 + i, "q" + std::to_string(i)));
    }
  }
  // Rotation is a single rename; a crash leaves either the live file or the
  // sealed segment, never both.  Simulate the post-rename crash (segment
  // exists, live file gone — the reopen never happened).
  fs::rename(dir / "journal", dir / "journal.1-4");
  Journal journal;
  EXPECT_EQ(4, journal.AttachDirectory(dir.string()));
  EXPECT_EQ(4u, journal.last_seq());
  ASSERT_EQ(1u, journal.segments().size());
  // The recreated live file picks up where the sealed segment stopped.
  EXPECT_EQ(5u, journal.Append(MakeEntry(200, "q5")));
  ExpectDiskMatchesMemory(journal, dir);
}

TEST(JournalDirTest, ReadRangeFiltersBySeq) {
  fs::path dir = TempDir("dir-readrange");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
  journal.set_rotate_threshold(2);
  for (int i = 1; i <= 7; ++i) {
    journal.Append(MakeEntry(100 + i, "q" + std::to_string(i)));
  }
  std::optional<std::vector<JournalEntry>> mid = Journal::ReadRange(dir.string(), 2, 5);
  ASSERT_TRUE(mid.has_value());
  ASSERT_EQ(3u, mid->size());
  EXPECT_EQ(3u, mid->front().seq);
  EXPECT_EQ(5u, mid->back().seq);
  EXPECT_FALSE(Journal::ReadRange((dir / "nope").string()).has_value());
}

// --- Checkpoint writing, listing, pruning ---

class CheckpointTest : public MoiraEnv {};

TEST_F(CheckpointTest, WriteListLoadRoundTrip) {
  fs::path root = TempDir("cp-roundtrip");
  AddActiveUser("cpuser", 900);
  ASSERT_TRUE(CheckpointManager::Write(*db_, root.string(), 41));
  ASSERT_TRUE(CheckpointManager::Write(*db_, root.string(), 57));
  // Duplicate seq refuses rather than clobbering.
  EXPECT_FALSE(CheckpointManager::Write(*db_, root.string(), 57));
  std::vector<CheckpointRef> all = CheckpointManager::List(root.string());
  ASSERT_EQ(2u, all.size());
  EXPECT_EQ(41u, all[0].seq);
  EXPECT_EQ(57u, all[1].seq);
  ASSERT_TRUE(CheckpointManager::Latest(root.string()).has_value());
  EXPECT_EQ(57u, CheckpointManager::Latest(root.string())->seq);
  EXPECT_EQ(41u, CheckpointManager::LatestAtOrBefore(root.string(), 56)->seq);
  EXPECT_FALSE(CheckpointManager::LatestAtOrBefore(root.string(), 40).has_value());
  // Loading reproduces the dump byte-for-byte.
  const std::string golden = BackupManager::DumpToString(*db_);
  SimulatedClock clock2(568000000);
  Database db2(&clock2);
  CreateMoiraSchema(&db2);
  SeedMoiraDefaults(&db2);
  ASSERT_TRUE(CheckpointManager::Load(&db2, all[1]));
  EXPECT_EQ(golden, BackupManager::DumpToString(db2));
}

TEST_F(CheckpointTest, CrashedWriteIsInvisible) {
  fs::path root = TempDir("cp-crash");
  ASSERT_TRUE(CheckpointManager::Write(*db_, root.string(), 10));
  // A crash mid-write leaves checkpoint.tmp without a rename: ignored.
  fs::create_directories(root / "checkpoint.tmp");
  std::ofstream(root / "checkpoint.tmp" / "users") << "partial";
  // A renamed directory whose stamp is missing or disagrees is also ignored
  // (tampering or a torn stamp write).
  fs::create_directories(root / "checkpoint.99");
  fs::create_directories(root / "checkpoint.77");
  std::ofstream(root / "checkpoint.77" / kCheckpointStampName) << 76 << '\n';
  std::vector<CheckpointRef> all = CheckpointManager::List(root.string());
  ASSERT_EQ(1u, all.size());
  EXPECT_EQ(10u, all[0].seq);
  // The next writer replaces the stale tmp and succeeds.
  ASSERT_TRUE(CheckpointManager::Write(*db_, root.string(), 20));
  EXPECT_EQ(20u, CheckpointManager::Latest(root.string())->seq);
  EXPECT_FALSE(fs::exists(root / "checkpoint.tmp"));
}

TEST_F(CheckpointTest, PruneKeepsNewest) {
  fs::path root = TempDir("cp-prune");
  for (uint64_t seq : {5u, 10u, 15u, 20u}) {
    ASSERT_TRUE(CheckpointManager::Write(*db_, root.string(), seq));
  }
  EXPECT_EQ(2, CheckpointManager::Prune(root.string(), 2));
  std::vector<CheckpointRef> all = CheckpointManager::List(root.string());
  ASSERT_EQ(2u, all.size());
  EXPECT_EQ(15u, all[0].seq);
  EXPECT_EQ(20u, all[1].seq);
  EXPECT_EQ(0, CheckpointManager::Prune(root.string(), 2));
}

// --- The scheduled lifecycle pass ---

class LifecycleTest : public MoiraEnv {
 protected:
  // Journals a mutation the way the server does, so replay reproduces it.
  void JournaledWrite(Journal* journal, const std::string& query,
                      const std::vector<std::string>& args) {
    ASSERT_EQ(MR_SUCCESS, RunRoot(query, args));
    journal->Append(JournalEntry{0, clock_.Now(), "root", "test", query, args});
  }
};

TEST_F(LifecycleTest, PassCheckpointsRotatesAndTruncates) {
  fs::path root = TempDir("life-pass");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(root.string()));
  for (int i = 0; i < 4; ++i) {
    JournaledWrite(&journal, "add_machine", {"LC" + std::to_string(i) + ".MIT.EDU", "VAX"});
  }
  CheckpointPolicy policy;
  policy.keep = 2;
  CheckpointSummary summary = RunCheckpointPass(*db_, &journal, policy);
  EXPECT_TRUE(summary.ran);
  EXPECT_EQ(4u, summary.seq);
  EXPECT_EQ(1u, summary.segments_retired);
  EXPECT_EQ(4u, summary.entries_truncated);
  EXPECT_EQ(4u, journal.base_seq());
  EXPECT_TRUE(DiskEntries(root).empty());
  ASSERT_EQ(1u, CheckpointManager::List(root.string()).size());
  // No new entries: the next pass skips (no disk churn on an idle primary).
  CheckpointSummary skipped = RunCheckpointPass(*db_, &journal, policy);
  EXPECT_FALSE(skipped.ran);
  ASSERT_EQ(1u, CheckpointManager::List(root.string()).size());
  // More writes re-arm it; old checkpoints are pruned to `keep`.
  for (int i = 4; i < 6; ++i) {
    JournaledWrite(&journal, "add_machine", {"LC" + std::to_string(i) + ".MIT.EDU", "VAX"});
  }
  CheckpointSummary second = RunCheckpointPass(*db_, &journal, policy);
  EXPECT_TRUE(second.ran);
  EXPECT_EQ(6u, second.seq);
  EXPECT_EQ(2u, CheckpointManager::List(root.string()).size());
}

TEST_F(LifecycleTest, GraceWindowRetainsTail) {
  fs::path root = TempDir("life-grace");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(root.string()));
  journal.set_rotate_threshold(2);
  for (int i = 0; i < 6; ++i) {
    JournaledWrite(&journal, "add_machine", {"LG" + std::to_string(i) + ".MIT.EDU", "VAX"});
  }
  CheckpointPolicy policy;
  policy.grace_entries = 3;
  CheckpointSummary summary = RunCheckpointPass(*db_, &journal, policy);
  EXPECT_TRUE(summary.ran);
  EXPECT_EQ(6u, summary.seq);
  // The cut is 6 - 3 = 3, which lands mid-segment 3-4: only 1-2 retires, so
  // a replica at seq >= 2 still catches up over the wire.
  EXPECT_EQ(2u, journal.base_seq());
  EXPECT_EQ(3u, journal.first_seq());
}

TEST_F(LifecycleTest, CronDrivesThePass) {
  fs::path root = TempDir("life-cron");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(root.string()));
  JournaledWrite(&journal, "add_machine", {"CRON1.MIT.EDU", "VAX"});
  CronScheduler cron(&clock_);
  CheckpointSummary last;
  ScheduleCheckpoints(&cron, db_.get(), &journal, kSecondsPerHour, CheckpointPolicy{},
                      &last);
  EXPECT_EQ(0, cron.RunDue());  // not due yet
  clock_.Advance(kSecondsPerHour);
  EXPECT_EQ(1, cron.RunDue());
  EXPECT_TRUE(last.ran);
  EXPECT_EQ(1u, last.seq);
  // Operator "checkpoint now" fires without waiting for the interval.
  JournaledWrite(&journal, "add_machine", {"CRON2.MIT.EDU", "VAX"});
  ASSERT_TRUE(cron.TriggerNow("checkpoint"));
  EXPECT_TRUE(last.ran);
  EXPECT_EQ(2u, last.seq);
  EXPECT_FALSE(cron.TriggerNow("no-such-job"));
}

// --- Recovery: checkpoint + tail replay ---

class RecoveryTest : public LifecycleTest {
 protected:
  // A freshly seeded context, as a restarted server would build.
  struct Fresh {
    SimulatedClock clock{568000000};
    std::unique_ptr<Database> db;
    std::unique_ptr<MoiraContext> mc;
    Fresh() {
      db = std::make_unique<Database>(&clock);
      CreateMoiraSchema(db.get());
      SeedMoiraDefaults(db.get());
      mc = std::make_unique<MoiraContext>(db.get());
    }
  };
};

TEST_F(RecoveryTest, RecoverReplaysCheckpointPlusTail) {
  fs::path root = TempDir("rec-replay");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(root.string()));
  for (int i = 0; i < 3; ++i) {
    clock_.Advance(60);
    JournaledWrite(&journal, "add_machine", {"RC" + std::to_string(i) + ".MIT.EDU", "VAX"});
  }
  ASSERT_TRUE(RunCheckpointPass(*db_, &journal).ran);
  for (int i = 3; i < 5; ++i) {
    clock_.Advance(60);
    JournaledWrite(&journal, "add_machine", {"RC" + std::to_string(i) + ".MIT.EDU", "VAX"});
  }
  const std::string golden = BackupManager::DumpToString(*db_);

  Fresh fresh;
  Journal journal2;
  std::optional<RecoveryResult> result =
      RecoverServerState(fresh.mc.get(), &fresh.clock, &journal2, root.string());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(3u, result->checkpoint_seq);
  EXPECT_EQ(2, result->entries_loaded);
  EXPECT_EQ(2, result->entries_replayed);
  EXPECT_EQ(5u, result->last_seq);
  EXPECT_EQ(3u, journal2.base_seq());
  EXPECT_EQ(5u, journal2.last_seq());
  // Replay at recorded times: modtime stamps and the whole dump match.
  EXPECT_EQ(golden, BackupManager::DumpToString(*fresh.db));
}

TEST_F(RecoveryTest, RecoverWithoutCheckpointReplaysFromSeed) {
  fs::path root = TempDir("rec-nocp");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(root.string()));
  for (int i = 0; i < 3; ++i) {
    clock_.Advance(60);
    JournaledWrite(&journal, "add_machine", {"RN" + std::to_string(i) + ".MIT.EDU", "VAX"});
  }
  const std::string golden = BackupManager::DumpToString(*db_);
  Fresh fresh;
  Journal journal2;
  std::optional<RecoveryResult> result =
      RecoverServerState(fresh.mc.get(), &fresh.clock, &journal2, root.string());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(0u, result->checkpoint_seq);
  EXPECT_EQ(3, result->entries_replayed);
  EXPECT_EQ(golden, BackupManager::DumpToString(*fresh.db));
}

TEST_F(RecoveryTest, RecoverRefusesGappedTail) {
  fs::path root = TempDir("rec-gap");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(root.string()));
  journal.set_rotate_threshold(2);
  for (int i = 0; i < 6; ++i) {
    JournaledWrite(&journal, "add_machine", {"RG" + std::to_string(i) + ".MIT.EDU", "VAX"});
  }
  ASSERT_TRUE(RunCheckpointPass(*db_, &journal).ran);
  for (int i = 6; i < 10; ++i) {
    JournaledWrite(&journal, "add_machine", {"RG" + std::to_string(i) + ".MIT.EDU", "VAX"});
  }
  // An operator deletes a mid-tail segment: the checkpoint (seq 6) no longer
  // connects to what is left, and recovery must refuse rather than silently
  // replay around the hole.
  ASSERT_TRUE(fs::remove(root / "journal.7-8"));
  Fresh fresh;
  Journal journal2;
  EXPECT_FALSE(
      RecoverServerState(fresh.mc.get(), &fresh.clock, &journal2, root.string())
          .has_value());
}

TEST_F(RecoveryTest, PointInTimeRestoreMatchesReferenceDumps) {
  fs::path root = TempDir("restore-pit");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(root.string()));
  journal.set_rotate_threshold(2);
  std::map<uint64_t, std::string> reference;  // seq -> dump after that seq
  for (int i = 0; i < 9; ++i) {
    clock_.Advance(60);
    JournaledWrite(&journal, "add_machine", {"PT" + std::to_string(i) + ".MIT.EDU", "VAX"});
    reference[journal.last_seq()] = BackupManager::DumpToString(*db_);
    if (i == 4) {
      // A mid-history checkpoint, so later targets recover from it and
      // earlier targets fall back to seed + full replay.
      CheckpointPolicy policy;
      policy.grace_entries = 100;  // keep every segment for the early targets
      ASSERT_TRUE(RunCheckpointPass(*db_, &journal, policy).ran);
    }
  }
  for (uint64_t target : {2u, 5u, 7u, 9u}) {
    Fresh fresh;
    std::optional<RecoveryResult> result =
        RestoreToSeq(fresh.mc.get(), &fresh.clock, root.string(), target);
    ASSERT_TRUE(result.has_value()) << "target " << target;
    EXPECT_EQ(target, result->last_seq);
    EXPECT_EQ(target <= 4 ? 0u : 5u, result->checkpoint_seq) << "target " << target;
    EXPECT_EQ(reference[target], BackupManager::DumpToString(*fresh.db))
        << "target " << target;
  }
}

// --- End-to-end: checkpoint → rotate → truncate → restart → bootstrap ---

class RestoreE2ETest : public MoiraEnv {
 protected:
  void SetUp() override {
    // One directory per test: ctest -j runs the cases concurrently, and
    // TempDir wipes the directory it returns.
    const std::string name =
        std::string("restore-e2e-") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    root_ = TempDir(name.c_str());
    options_.data_dir = root_.string();
    primary_ = std::make_unique<MoiraServer>(mc_.get(), realm_.get(), options_);
    ASSERT_EQ(0, primary_->journal().AttachDirectory(root_.string()));
    primary_->journal().set_rotate_threshold(3);
    realm_->AddPrincipal("root", "rootpw");
    // Every mutation goes through the wire so it is journalled.
    MrClient admin = MakeAdmin();
    ASSERT_EQ(MR_SUCCESS,
              admin.Query("add_user",
                          {"jrandom", "100", "/bin/csh", "Lastjrandom", "Firstjrandom",
                           "Q", "1", "hashjrandom", "G"},
                          [](Tuple) {}));
  }

  MrClient::Connector PrimaryConnector() {
    return [this] { return std::make_unique<LoopbackChannel>(primary_.get()); };
  }

  MrClient MakeAdmin() {
    MrClient client(PrimaryConnector());
    client.SetKerberosIdentity(realm_.get(), "root", "rootpw");
    EXPECT_EQ(MR_SUCCESS, client.Connect());
    EXPECT_EQ(MR_SUCCESS, client.Auth("ops"));
    return client;
  }

  std::unique_ptr<ReplicaServer> MakeReplica(const std::string& name) {
    ReplicaOptions options;
    options.name = name;
    auto replica = std::make_unique<ReplicaServer>(realm_.get(), options);
    replica->SetPrimaryLink(PrimaryConnector(), "root", "rootpw");
    return replica;
  }

  void AddMachine(MrClient& admin, const std::string& name) {
    ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {name, "VAX"}, [](Tuple) {}));
  }

  // Tears the primary down and recovers a replacement from the data
  // directory, exactly as a restarted moirad would.
  void RestartPrimary() {
    primary_.reset();
    const UnixTime wall = clock_.Now();
    restart_clock_ = std::make_unique<SimulatedClock>(568000000);
    restart_db_ = std::make_unique<Database>(restart_clock_.get());
    CreateMoiraSchema(restart_db_.get());
    SeedMoiraDefaults(restart_db_.get());
    restart_mc_ = std::make_unique<MoiraContext>(restart_db_.get());
    primary_ = std::make_unique<MoiraServer>(restart_mc_.get(), realm_.get(), options_);
    std::optional<RecoveryResult> recovered = RecoverServerState(
        restart_mc_.get(), restart_clock_.get(), &primary_->journal(), root_.string());
    ASSERT_TRUE(recovered.has_value());
    recovery_ = *recovered;
    primary_->journal().set_rotate_threshold(3);
    primary_->InvalidateAccessCaches();
    // Wall time continues across the restart (the realm's tickets and the
    // replicas' clocks live on clock_).
    restart_clock_->Set(wall);
  }

  Database& primary_db() { return restart_db_ ? *restart_db_ : *db_; }

  fs::path root_;
  ServerOptions options_;
  std::unique_ptr<MoiraServer> primary_;
  std::unique_ptr<SimulatedClock> restart_clock_;
  std::unique_ptr<Database> restart_db_;
  std::unique_ptr<MoiraContext> restart_mc_;
  RecoveryResult recovery_;
};

TEST_F(RestoreE2ETest, RestartTruncationReplicaBootstrapAndFaults) {
  MrClient admin = MakeAdmin();
  // seq 1 (add_user) .. seq 4.
  for (int i = 0; i < 3; ++i) {
    clock_.Advance(60);
    AddMachine(admin, "E2E" + std::to_string(i) + ".MIT.EDU");
  }
  // A replica that stops fetching at seq 4 — behind the coming cut at 7.
  std::unique_ptr<ReplicaServer> lagging = MakeReplica("lag");
  ASSERT_EQ(MR_SUCCESS, lagging->CatchUp());
  ASSERT_EQ(4u, lagging->applied_seq());
  // seq 5..7.
  for (int i = 3; i < 6; ++i) {
    clock_.Advance(60);
    AddMachine(admin, "E2E" + std::to_string(i) + ".MIT.EDU");
  }
  ASSERT_EQ(7u, primary_->journal().last_seq());

  // Checkpoint pass: checkpoint.7, segments sealed and retired.
  CheckpointPolicy policy;
  policy.keep = 2;
  CheckpointSummary summary = RunCheckpointPass(primary_db(), &primary_->journal(), policy);
  ASSERT_TRUE(summary.ran);
  EXPECT_EQ(7u, summary.seq);
  EXPECT_EQ(7u, primary_->journal().base_seq());
  EXPECT_TRUE(DiskEntries(root_).empty());

  // Post-checkpoint writes: seq 8..10 land in the new live file.
  for (int i = 6; i < 9; ++i) {
    clock_.Advance(60);
    AddMachine(admin, "E2E" + std::to_string(i) + ".MIT.EDU");
  }
  const std::string golden = BackupManager::DumpToString(primary_db());

  // Restart the primary from the data directory.  The replica's link channel
  // and the admin client point at the old server object; drop both before
  // tearing it down.
  lagging->DropLink();
  admin.Disconnect();
  RestartPrimary();
  EXPECT_EQ(7u, recovery_.checkpoint_seq);
  EXPECT_EQ(3, recovery_.entries_loaded);
  EXPECT_EQ(3, recovery_.entries_replayed);
  EXPECT_EQ(10u, primary_->journal().last_seq());
  EXPECT_EQ(7u, primary_->journal().base_seq());
  // Byte-identical recovery: same rows, same modby/modwith/modtime stamps.
  EXPECT_EQ(golden, BackupManager::DumpToString(primary_db()));

  // Satellite regression: the restarted primary must refuse to stream the
  // truncated prefix.  Before the base_seq restore fix this returned a
  // gapped range starting at seq 8 and the replica silently diverged.
  MrClient admin2 = MakeAdmin();
  EXPECT_EQ(MR_REPL_TRUNCATED,
            admin2.ReplFetch("probe", 1, 100, 0, [](Tuple) { FAIL() << "gapped stream"; }));

  // The lagging replica reconnects behind the cut (applied_seq 4 < base 7):
  // its fetch from seq 5 answers MR_REPL_TRUNCATED and it falls back to a
  // snapshot — which, with a data directory, streams checkpoint.7 plus the
  // wire tail 8..10 rather than a full live dump.
  lagging->SetPrimaryLink(PrimaryConnector(), "root", "rootpw");
  ASSERT_EQ(MR_SUCCESS, lagging->CatchUp());
  EXPECT_EQ(1u, lagging->stats().snapshot_loads);
  EXPECT_EQ(7u, lagging->stats().last_snapshot_seq);
  EXPECT_EQ(10u, lagging->applied_seq());
  EXPECT_EQ(0u, lagging->stats().apply_failures);
  EXPECT_EQ(golden, BackupManager::DumpToString(lagging->db()));

  // A fresh replica bootstraps the same way: checkpoint + tail.
  std::unique_ptr<ReplicaServer> fresh = MakeReplica("fresh");
  ASSERT_EQ(MR_SUCCESS, fresh->CatchUp());
  EXPECT_EQ(7u, fresh->stats().last_snapshot_seq);
  EXPECT_EQ(golden, BackupManager::DumpToString(fresh->db()));

  // Seeded fault rounds against the recovered primary, then heal: everything
  // converges byte-identically and the lifecycle keeps running.
  std::vector<ReplicaServer*> raw{lagging.get(), fresh.get()};
  ReplFaultSpec spec;
  spec.seed = 1988;
  spec.crash_permille = 250;
  spec.flap_permille = 300;
  spec.slow_permille = 300;
  spec.slow_apply_limit = 2;
  spec.kdc_down_permille = 200;
  MrClient admin3 = MakeAdmin();
  for (int round = 0; round < 8; ++round) {
    ArmRound(spec, raw, realm_.get(), round);
    clock_.Advance(30);
    restart_clock_->Set(clock_.Now());
    for (int w = 0; w < 3; ++w) {
      AddMachine(admin3, "F" + std::to_string(round) + "X" + std::to_string(w) + ".MIT.EDU");
    }
    if (round == 4) {
      // Mid-faults lifecycle pass: checkpoint, rotate, truncate under load.
      RunCheckpointPass(primary_db(), &primary_->journal(), policy);
    }
    for (ReplicaServer* replica : raw) {
      replica->CatchUp();
    }
  }
  ArmRound(ReplFaultSpec{}, raw, realm_.get(), 8);
  for (ReplicaServer* replica : raw) {
    ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  }
  const std::string healed = BackupManager::DumpToString(primary_db());
  for (ReplicaServer* replica : raw) {
    EXPECT_EQ(replica->applied_seq(), primary_->journal().last_seq()) << replica->name();
    EXPECT_EQ(0u, replica->stats().apply_failures) << replica->name();
    EXPECT_EQ(healed, BackupManager::DumpToString(replica->db())) << replica->name();
  }
  // And the on-disk journal still matches what the journal retains.
  ExpectDiskMatchesMemory(primary_->journal(), root_);
}

TEST_F(RestoreE2ETest, SnapshotFallsBackToLiveDumpWithoutCheckpoint) {
  MrClient admin = MakeAdmin();
  AddMachine(admin, "NOCP.MIT.EDU");
  // No checkpoint written yet: bootstrap streams the live tables cut at
  // last_seq, exactly the pre-lifecycle behaviour.
  std::unique_ptr<ReplicaServer> replica = MakeReplica("livecut");
  replica->Restart();  // force the snapshot path
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  EXPECT_EQ(primary_->journal().last_seq(), replica->stats().last_snapshot_seq);
  EXPECT_EQ(BackupManager::DumpToString(primary_db()),
            BackupManager::DumpToString(replica->db()));
}

}  // namespace
}  // namespace moira
