// Tests for the journal and the mrbackup / mrrestore system (paper section
// 5.2.2): escaping, dump/restore round trips, rotation, and journal replay.
#include <filesystem>

#include "src/backup/backup.h"
#include "src/server/journal.h"
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

// Escaping property sweep: every string survives the round trip, and the
// escaped form contains no raw colon or newline.
class EscapeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EscapeTest, RoundTripsAndIsClean) {
  const std::string& original = GetParam();
  std::string escaped = JournalEscape(original);
  EXPECT_EQ(original, JournalUnescape(escaped));
  EXPECT_EQ(std::string::npos, escaped.find('\n'));
  for (char c : escaped) {
    auto uc = static_cast<unsigned char>(c);
    EXPECT_TRUE(uc >= 0x20 && uc < 0x7f) << static_cast<int>(uc);
  }
  // Joining two escaped fields with a colon splits back into exactly two.
  std::vector<std::string> split = SplitEscaped(escaped + ":" + escaped);
  ASSERT_EQ(2u, split.size());
  EXPECT_EQ(original, split[0]);
  EXPECT_EQ(original, split[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Strings, EscapeTest,
    ::testing::Values("", "plain", "with:colon", "back\\slash", "tab\there",
                      std::string("nul\0middle", 10), "newline\nhere",
                      "\\:edge::\\\\", std::string("\xff\x80\x01", 3),
                      "Harmon C Fowler,,,,:/mit/babette:/bin/csh"));

TEST(UnescapeTest, MalformedSequencesCopyLiterally) {
  // Sequences JournalEscape never emits must not decode as garbage or drop
  // the backslash: the parser keeps them byte-for-byte.
  EXPECT_EQ("\\0x9", JournalUnescape("\\0x9"));   // non-octal digit at i+2
  EXPECT_EQ("\\079", JournalUnescape("\\079"));   // non-octal digit at i+3
  EXPECT_EQ("\\7", JournalUnescape("\\7"));       // short trailing escape
  EXPECT_EQ("\\81", JournalUnescape("\\81"));     // non-octal first digit
  EXPECT_EQ("\\", JournalUnescape("\\"));         // lone trailing backslash
  EXPECT_EQ("ab\\", JournalUnescape("ab\\"));
  // Well-formed escapes still decode.
  EXPECT_EQ("A", JournalUnescape("\\101"));
  EXPECT_EQ("\na", JournalUnescape("\\012a"));
  EXPECT_EQ(":", JournalUnescape("\\:"));
  EXPECT_EQ("\\", JournalUnescape("\\\\"));
  // A valid triple followed by more digits consumes exactly three.
  EXPECT_EQ("\0012", JournalUnescape(std::string("\\0012")).substr(0, 2));
}

TEST(UnescapeTest, FuzzNeverCrashesAndDecodedIsStable) {
  // Arbitrary byte soup through JournalUnescape: no crash, and re-escaping
  // the decoded form round-trips (escape ∘ unescape is idempotent on its
  // image, even when the input was never a legal escaped field).
  uint64_t state = 0xfeedface;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int iter = 0; iter < 500; ++iter) {
    std::string input;
    const size_t len = next() % 24;
    for (size_t i = 0; i < len; ++i) {
      input += static_cast<char>(next() % 256);
    }
    std::string decoded = JournalUnescape(input);
    EXPECT_EQ(decoded, JournalUnescape(JournalEscape(decoded))) << "iter " << iter;
  }
}

TEST(SplitEscapedTest, FieldsSeparateCleanly) {
  std::vector<std::string> fields = {"a:b", "c\\d", "", "plain"};
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) {
      line += ':';
    }
    line += JournalEscape(fields[i]);
  }
  EXPECT_EQ(fields, SplitEscaped(line));
}

TEST(JournalEntryTest, LineRoundTrip) {
  JournalEntry entry{7, 12345, "jrandom", "moira-app", "update_user_shell",
                     {"jrandom", "/bin:odd"}};
  std::optional<JournalEntry> back = JournalEntry::FromLine(entry.ToLine());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(entry.seq, back->seq);
  EXPECT_EQ(entry.when, back->when);
  EXPECT_EQ(entry.principal, back->principal);
  EXPECT_EQ(entry.client, back->client);
  EXPECT_EQ(entry.query, back->query);
  EXPECT_EQ(entry.args, back->args);
}

TEST(JournalEntryTest, RejectsMalformedLines) {
  EXPECT_FALSE(JournalEntry::FromLine("").has_value());
  EXPECT_FALSE(JournalEntry::FromLine("notaseq:123:p:c:q").has_value());
  EXPECT_FALSE(JournalEntry::FromLine("1:notatime:p:c:q").has_value());
  EXPECT_FALSE(JournalEntry::FromLine("1:123:only:three").has_value());
}

TEST(JournalTest, FilePersistenceAndReload) {
  fs::path dir = TempDir("journal");
  {
    Journal journal;
    ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
    journal.Append(JournalEntry{0, 1, "a", "app", "q1", {"x"}});
    journal.Append(JournalEntry{0, 2, "b", "app", "q2", {}});
  }
  Journal reloaded;
  EXPECT_EQ(2, reloaded.AttachDirectory(dir.string()));
  ASSERT_EQ(2u, reloaded.entries().size());
  EXPECT_EQ("q1", reloaded.entries()[0].query);
  // Sequence numbers were assigned at append time and survive the reload.
  EXPECT_EQ(1u, reloaded.entries()[0].seq);
  EXPECT_EQ(2u, reloaded.last_seq());
  // A data directory that cannot be created is refused.
  Journal refused;
  EXPECT_EQ(-1, refused.AttachDirectory((dir / "journal" / "sub").string()));
}

class BackupTest : public MoiraEnv {
 protected:
  void PopulateSomething() {
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"bk.mit.edu", "VAX"}));
    AddActiveUser("bkuser", 100);
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"bklist", "1", "0", "0", "1", "0", "-1",
                                               "USER", "bkuser", "weird: desc\\with\nstuff"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"bklist", "USER", "bkuser"}));
  }
};

TEST_F(BackupTest, RowLineRoundTrip) {
  std::vector<Value> row = {Value("name:with colon"), Value(int64_t{-42}), Value("")};
  TableSchema schema{"t",
                     {{"a", ColumnType::kString},
                      {"b", ColumnType::kInt},
                      {"c", ColumnType::kString}}};
  std::vector<Value> back;
  ASSERT_TRUE(BackupManager::LineToRow(BackupManager::RowToLine(row), schema, &back));
  EXPECT_EQ(row, back);
}

TEST_F(BackupTest, LineToRowRejectsArityAndTypeErrors) {
  TableSchema schema{"t", {{"a", ColumnType::kString}, {"b", ColumnType::kInt}}};
  std::vector<Value> row;
  EXPECT_FALSE(BackupManager::LineToRow("onlyone\n", schema, &row));
  EXPECT_FALSE(BackupManager::LineToRow("x:notint\n", schema, &row));
  EXPECT_TRUE(BackupManager::LineToRow("x:5\n", schema, &row));
}

TEST_F(BackupTest, DumpRestoreRoundTrip) {
  PopulateSomething();
  fs::path dir = TempDir("dump");
  int64_t bytes = BackupManager::Dump(*db_, dir);
  ASSERT_GT(bytes, 0);
  // Every relation gets a file.
  for (const std::string& name : db_->TableNames()) {
    EXPECT_TRUE(fs::exists(dir / name)) << name;
  }
  // Restore into a fresh "smstemp" database with the same schema.
  Database restored(&clock_);
  CreateMoiraSchema(&restored);
  ASSERT_EQ(MR_SUCCESS, BackupManager::Restore(&restored, dir));
  // Relations match row for row.
  for (const std::string& name : db_->TableNames()) {
    const Table* a = db_->GetTable(name);
    const Table* b = restored.GetTable(name);
    ASSERT_EQ(a->LiveCount(), b->LiveCount()) << name;
    std::vector<std::vector<Value>> rows_a;
    std::vector<std::vector<Value>> rows_b;
    a->Scan([&](size_t, const Row& r) {
      rows_a.emplace_back(r.begin(), r.end());
      return true;
    });
    b->Scan([&](size_t, const Row& r) {
      rows_b.emplace_back(r.begin(), r.end());
      return true;
    });
    EXPECT_EQ(rows_a, rows_b) << name;
  }
  // The restored database answers queries.
  MoiraContext restored_mc(&restored);
  EXPECT_EQ(MR_SUCCESS, restored_mc.UserByLogin("bkuser").code);
}

TEST_F(BackupTest, RestoreRefusesNonEmptyDatabase) {
  PopulateSomething();
  fs::path dir = TempDir("refuse");
  ASSERT_GT(BackupManager::Dump(*db_, dir), 0);
  EXPECT_EQ(MR_INTERNAL, BackupManager::Restore(db_.get(), dir));
}

TEST_F(BackupTest, NightlyRotationKeepsThree) {
  PopulateSomething();
  fs::path root = TempDir("rotate");
  ASSERT_GT(BackupManager::RotateAndDump(*db_, root), 0);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"second.mit.edu", "VAX"}));
  ASSERT_GT(BackupManager::RotateAndDump(*db_, root), 0);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"third.mit.edu", "VAX"}));
  ASSERT_GT(BackupManager::RotateAndDump(*db_, root), 0);
  ASSERT_GT(BackupManager::RotateAndDump(*db_, root), 0);
  EXPECT_TRUE(fs::exists(root / "backup_1"));
  EXPECT_TRUE(fs::exists(root / "backup_2"));
  EXPECT_TRUE(fs::exists(root / "backup_3"));
  // backup_3 is the oldest: it lacks third.mit.edu.
  Database old(&clock_);
  CreateMoiraSchema(&old);
  ASSERT_EQ(MR_SUCCESS, BackupManager::Restore(&old, root / "backup_3"));
  MoiraContext old_mc(&old);
  EXPECT_EQ(MR_MACHINE, old_mc.MachineByName("third.mit.edu").code);
  EXPECT_EQ(MR_SUCCESS, old_mc.MachineByName("second.mit.edu").code);
}

TEST_F(BackupTest, JournalReplayRecoversPostBackupChanges) {
  PopulateSomething();
  fs::path dir = TempDir("replay");
  ASSERT_GT(BackupManager::Dump(*db_, dir), 0);
  // Changes after the dump, captured in a journal.
  Journal journal;
  clock_.Advance(100);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"late.mit.edu", "RT"}));
  journal.Append(JournalEntry{0, clock_.Now(), "root", "test", "add_machine",
                              {"late.mit.edu", "RT"}});
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_user_shell", {"bkuser", "/bin/late"}));
  journal.Append(JournalEntry{0, clock_.Now(), "root", "test", "update_user_shell",
                              {"bkuser", "/bin/late"}});
  // Restore the backup, then replay the journal: no more than the journalled
  // window of transactions is lost.
  Database restored(&clock_);
  CreateMoiraSchema(&restored);
  ASSERT_EQ(MR_SUCCESS, BackupManager::Restore(&restored, dir));
  MoiraContext restored_mc(&restored);
  EXPECT_EQ(2, BackupManager::ReplayJournal(&restored_mc, journal.entries()));
  EXPECT_EQ(MR_SUCCESS, restored_mc.MachineByName("late.mit.edu").code);
  RowRef user = restored_mc.UserByLogin("bkuser");
  ASSERT_EQ(MR_SUCCESS, user.code);
  EXPECT_EQ("/bin/late",
            MoiraContext::StrCell(restored_mc.users(), user.row, "shell"));
}

}  // namespace
}  // namespace moira
