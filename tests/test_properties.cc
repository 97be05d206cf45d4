// Randomized property tests across module boundaries: the database engine
// against a reference model, backup escaping over random byte strings, the
// block cipher over random payloads, and archive round trips.
#include <gtest/gtest.h>

#include <map>

#include "src/backup/backup.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/krb/block_cipher.h"
#include "src/server/journal.h"
#include "src/update/archive.h"

namespace moira {
namespace {

std::string RandomBytes(SplitMix64& rng, size_t max_len) {
  std::string out(rng.Below(max_len + 1), '\0');
  for (char& c : out) {
    c = static_cast<char>(rng.Below(256));
  }
  return out;
}

// --- database vs reference model ---

class DbModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DbModelTest, RandomOpsMatchReferenceModel) {
  SplitMix64 rng(GetParam());
  SimulatedClock clock(0);
  Database db(&clock);
  Table* table = db.CreateTable(TableSchema{
      "t", {{"k", ColumnType::kString}, {"v", ColumnType::kInt}}});
  table->CreateIndex("k");
  // Reference: map slot index -> (key, value) for live rows.
  std::map<size_t, std::pair<std::string, int64_t>> model;
  std::vector<size_t> live;
  for (int op = 0; op < 2000; ++op) {
    uint64_t kind = rng.Below(10);
    if (kind < 5 || live.empty()) {
      std::string key = "k" + std::to_string(rng.Below(30));
      auto value = static_cast<int64_t>(rng.Below(1000));
      size_t slot = table->Append({Value(key), Value(value)});
      model[slot] = {key, value};
      live.push_back(slot);
    } else if (kind < 8) {
      size_t pick = live[rng.Below(live.size())];
      std::string key = "k" + std::to_string(rng.Below(30));
      table->Update(pick, 0, Value(key));
      model[pick].first = key;
    } else {
      size_t index = rng.Below(live.size());
      size_t pick = live[index];
      table->Delete(pick);
      model.erase(pick);
      live.erase(live.begin() + static_cast<ptrdiff_t>(index));
    }
  }
  ASSERT_EQ(model.size(), table->LiveCount());
  // Every key query via index equals the model.
  for (int k = 0; k < 30; ++k) {
    std::string key = "k" + std::to_string(k);
    std::vector<size_t> got = table->Match({Condition{0, Condition::Op::kEq, Value(key)}});
    std::vector<size_t> expected;
    for (const auto& [slot, kv] : model) {
      if (kv.first == key) {
        expected.push_back(slot);
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(expected, got) << key;
  }
  // Cell contents match.
  for (const auto& [slot, kv] : model) {
    EXPECT_EQ(kv.first, table->Cell(slot, 0).AsString());
    EXPECT_EQ(kv.second, table->Cell(slot, 1).AsInt());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbModelTest, ::testing::Values(1, 2, 3, 42, 1988));

// --- backup line round trip over random rows ---

class BackupRowTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackupRowTest, RandomRowsRoundTrip) {
  SplitMix64 rng(GetParam());
  TableSchema schema{"t",
                     {{"a", ColumnType::kString},
                      {"b", ColumnType::kInt},
                      {"c", ColumnType::kString},
                      {"d", ColumnType::kInt}}};
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> row = {Value(RandomBytes(rng, 40)),
                              Value(static_cast<int64_t>(rng.Next()) / 2),
                              Value(RandomBytes(rng, 10)), Value(rng.Between(-5, 5))};
    std::vector<Value> back;
    ASSERT_TRUE(BackupManager::LineToRow(BackupManager::RowToLine(row), schema, &back));
    EXPECT_EQ(row, back);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackupRowTest, ::testing::Values(7, 8, 9));

// --- journal escaping over random bytes ---

class EscapeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EscapeFuzzTest, RandomStringsSurvive) {
  SplitMix64 rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    std::string original = RandomBytes(rng, 64);
    EXPECT_EQ(original, JournalUnescape(JournalEscape(original)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EscapeFuzzTest, ::testing::Values(11, 12, 13));

// --- block cipher over random payloads and keys ---

class CipherFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CipherFuzzTest, RandomPayloadsRoundTrip) {
  SplitMix64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    uint64_t key = rng.Next() | 1;
    std::string plain = RandomBytes(rng, 300);
    auto back = PcbcDecrypt(key, PcbcEncrypt(key, plain));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(plain, *back);
  }
}

TEST_P(CipherFuzzTest, RandomBitFlipsNeverYieldOriginal) {
  SplitMix64 rng(GetParam() + 100);
  for (int i = 0; i < 100; ++i) {
    uint64_t key = rng.Next() | 1;
    std::string plain = RandomBytes(rng, 100);
    if (plain.empty()) {
      continue;
    }
    std::string cipher = PcbcEncrypt(key, plain);
    std::string tampered = cipher;
    tampered[rng.Below(tampered.size())] ^= static_cast<char>(1 + rng.Below(255));
    auto back = PcbcDecrypt(key, tampered);
    if (back.has_value()) {
      EXPECT_NE(plain, *back);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CipherFuzzTest, ::testing::Values(21, 22));

// --- archive round trip over random member sets ---

class ArchiveFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArchiveFuzzTest, RandomArchivesRoundTrip) {
  SplitMix64 rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Archive archive;
    size_t members = rng.Below(12);
    for (size_t m = 0; m < members; ++m) {
      archive.Add("member-" + std::to_string(m), RandomBytes(rng, 2000));
    }
    std::optional<Archive> back = Archive::Parse(archive.Serialize());
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(archive.size(), back->size());
    for (const auto& [name, contents] : archive.members()) {
      ASSERT_NE(nullptr, back->Find(name));
      EXPECT_EQ(*contents, *back->Find(name));
    }
  }
}

TEST_P(ArchiveFuzzTest, RandomCorruptionDetected) {
  SplitMix64 rng(GetParam() + 500);
  Archive archive;
  archive.Add("f1", RandomBytes(rng, 500));
  archive.Add("f2", RandomBytes(rng, 500));
  std::string bytes = archive.Serialize();
  for (int i = 0; i < 200; ++i) {
    std::string corrupted = bytes;
    corrupted[rng.Below(corrupted.size())] ^= static_cast<char>(1 + rng.Below(255));
    std::optional<Archive> back = Archive::Parse(corrupted);
    // Either the CRC catches it, or (vanishingly unlikely here) the parse
    // must at least produce a well-formed archive.
    if (back.has_value()) {
      ADD_FAILURE() << "corruption escaped the checksum at byte flip " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchiveFuzzTest, ::testing::Values(31, 32));

}  // namespace
}  // namespace moira
