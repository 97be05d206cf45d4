// Unit and property tests for the relational database engine (paper section
// 5.2's INGRES substitute).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "src/common/clock.h"
#include "src/common/strutil.h"
#include "src/db/database.h"
#include "src/db/exec.h"

namespace moira {
namespace {

TableSchema PeopleSchema() {
  return TableSchema{"people",
                     {{"name", ColumnType::kString},
                      {"uid", ColumnType::kInt},
                      {"shell", ColumnType::kString}}};
}

class DbTest : public ::testing::Test {
 protected:
  DbTest() : clock_(1000), db_(&clock_) { table_ = db_.CreateTable(PeopleSchema()); }

  SimulatedClock clock_;
  Database db_;
  Table* table_;
};

TEST_F(DbTest, AppendAndRead) {
  size_t row = table_->Append({"alice", 100, "/bin/csh"});
  EXPECT_TRUE(table_->IsLive(row));
  EXPECT_EQ("alice", table_->Cell(row, 0).AsString());
  EXPECT_EQ(100, table_->Cell(row, 1).AsInt());
  EXPECT_EQ(1u, table_->LiveCount());
}

TEST_F(DbTest, ColumnIndexLookup) {
  EXPECT_EQ(0, table_->ColumnIndex("name"));
  EXPECT_EQ(1, table_->ColumnIndex("uid"));
  EXPECT_EQ(-1, table_->ColumnIndex("nope"));
}

TEST_F(DbTest, UpdateCell) {
  size_t row = table_->Append({"alice", 100, "/bin/csh"});
  table_->Update(row, 2, Value("/bin/sh"));
  EXPECT_EQ("/bin/sh", table_->Cell(row, 2).AsString());
}

TEST_F(DbTest, DeleteTombstonesRow) {
  size_t a = table_->Append({"alice", 100, "/bin/csh"});
  size_t b = table_->Append({"bob", 101, "/bin/sh"});
  table_->Delete(a);
  EXPECT_FALSE(table_->IsLive(a));
  EXPECT_TRUE(table_->IsLive(b));
  EXPECT_EQ(1u, table_->LiveCount());
  // b's index is stable across a's deletion.
  EXPECT_EQ("bob", table_->Cell(b, 0).AsString());
}

TEST_F(DbTest, MatchEquality) {
  table_->Append({"alice", 100, "/bin/csh"});
  table_->Append({"bob", 101, "/bin/sh"});
  table_->Append({"alice", 102, "/bin/sh"});
  auto rows = table_->Match({Condition{0, Condition::Op::kEq, Value("alice")}});
  EXPECT_EQ(2u, rows.size());
  rows = table_->Match({Condition{1, Condition::Op::kEq, Value(int64_t{101})}});
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ("bob", table_->Cell(rows[0], 0).AsString());
}

TEST_F(DbTest, MatchConjunction) {
  table_->Append({"alice", 100, "/bin/csh"});
  table_->Append({"alice", 101, "/bin/sh"});
  auto rows = table_->Match({Condition{0, Condition::Op::kEq, Value("alice")},
                             Condition{2, Condition::Op::kEq, Value("/bin/sh")}});
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(101, table_->Cell(rows[0], 1).AsInt());
}

TEST_F(DbTest, MatchWildcardAndCaseInsensitive) {
  table_->Append({"Kermit.MIT.EDU", 1, ""});
  table_->Append({"gonzo.mit.edu", 2, ""});
  auto rows = table_->Match({Condition{0, Condition::Op::kWildNoCase, Value("*.mit.edu")}});
  EXPECT_EQ(2u, rows.size());
  rows = table_->Match({Condition{0, Condition::Op::kEqNoCase, Value("KERMIT.mit.edu")}});
  EXPECT_EQ(1u, rows.size());
}

TEST_F(DbTest, IndexedMatchEqualsScan) {
  // Property: Match through an index returns the same rows as an unindexed
  // scan, across appends, updates, and deletes.
  Table* indexed = db_.CreateTable(TableSchema{
      "indexed", {{"k", ColumnType::kString}, {"v", ColumnType::kInt}}});
  indexed->CreateIndex("k");
  Table* plain = db_.CreateTable(TableSchema{
      "plain", {{"k", ColumnType::kString}, {"v", ColumnType::kInt}}});
  auto mutate = [&](Table* t) {
    for (int i = 0; i < 200; ++i) {
      t->Append({"k" + std::to_string(i % 17), i});
    }
    for (size_t i = 0; i < 200; i += 3) {
      t->Delete(i);
    }
    for (size_t i = 1; i < 200; i += 7) {
      if (t->IsLive(i)) {
        t->Update(i, 0, Value("rekeyed"));
      }
    }
  };
  mutate(indexed);
  mutate(plain);
  for (const char* key : {"k0", "k5", "k16", "rekeyed", "missing"}) {
    auto a = indexed->Match({Condition{0, Condition::Op::kEq, Value(key)}});
    auto b = plain->Match({Condition{0, Condition::Op::kEq, Value(key)}});
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(b, a) << "key " << key;
  }
}

TEST_F(DbTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    table_->Append({"u" + std::to_string(i), i, ""});
  }
  int visited = 0;
  table_->Scan([&](size_t, const Row&) { return ++visited < 3; });
  EXPECT_EQ(3, visited);
  // Every row a Scan hands to its visitor counts as emitted — including on
  // an early stop, where only the visited prefix reached the caller.
  EXPECT_EQ(3, table_->stats().rows_emitted);
}

TEST_F(DbTest, StatsTrackMutations) {
  clock_.Set(2000);
  size_t row = table_->Append({"a", 1, ""});
  EXPECT_EQ(1, table_->stats().appends);
  EXPECT_EQ(2000, table_->stats().modtime);
  clock_.Set(3000);
  table_->Update(row, 1, Value(int64_t{2}));
  EXPECT_EQ(1, table_->stats().updates);
  EXPECT_EQ(3000, table_->stats().modtime);
  clock_.Set(4000);
  table_->Delete(row);
  EXPECT_EQ(1, table_->stats().deletes);
  EXPECT_EQ(4000, table_->stats().modtime);
}

TEST_F(DbTest, DatabaseLastModified) {
  EXPECT_EQ(0, db_.LastModified());
  clock_.Set(5555);
  table_->Append({"x", 1, ""});
  EXPECT_EQ(5555, db_.LastModified());
}

TEST_F(DbTest, DuplicateTableRejected) {
  EXPECT_EQ(nullptr, db_.CreateTable(PeopleSchema()));
}

TEST_F(DbTest, TableNamesInCreationOrder) {
  db_.CreateTable(TableSchema{"zeta", {{"a", ColumnType::kInt}}});
  db_.CreateTable(TableSchema{"alpha", {{"a", ColumnType::kInt}}});
  std::vector<std::string> names = db_.TableNames();
  ASSERT_EQ(3u, names.size());
  EXPECT_EQ("people", names[0]);
  EXPECT_EQ("zeta", names[1]);
  EXPECT_EQ("alpha", names[2]);
}

TEST_F(DbTest, ClearAllRowsKeepsSchemas) {
  table_->Append({"a", 1, ""});
  db_.ClearAllRows();
  EXPECT_EQ(0u, table_->LiveCount());
  EXPECT_NE(nullptr, db_.GetTable("people"));
}

TEST(ValueTest, TypeAndConversions) {
  Value i{int64_t{42}};
  Value s{"hello"};
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ("42", i.ToString());
  EXPECT_EQ("hello", s.ToString());
  EXPECT_EQ(0, s.AsInt());
  EXPECT_EQ("", i.AsString());
  EXPECT_EQ(Value(int64_t{42}), i);
  EXPECT_NE(Value("hello "), s);
}

// Property: a cell behaves as its reference, std::variant<int64_t,
// std::string>.  Seeded strings of every length 0-40 (both sides
// of the 15/16-byte inline limit) over an alphabet with NUL and bytes >= 0x80,
// and ints out to both extremes, are checked against that reference for ==,
// <, AsString, AsInt, ToString and type(), through copy and move construction
// and assignment between every pair of kinds (int, inline, heap),
// self-assignment included; a std::set<Value> iterates in the reference's
// order.  Under the sanitized build this also checks the cells' heap
// ownership.
TEST(ValueTest, MatchesVariantReference) {
  using Ref = std::variant<int64_t, std::string>;
  uint64_t rng = 0x9e3779b97f4a7c15ull;  // deterministic: no seed plumbing
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };
  auto random_string = [&](size_t length) {
    std::string s;
    for (size_t i = 0; i < length; ++i) {
      s += std::string("a\0\x7f\x80\xff", 5)[next(5)];
    }
    return s;
  };
  auto make = [](const Ref& r) {
    return std::holds_alternative<int64_t>(r) ? Value(std::get<int64_t>(r))
                                               : Value(std::get<std::string>(r));
  };
  auto describe = [](const Ref& r) {
    if (std::holds_alternative<int64_t>(r)) {
      return "int " + std::to_string(std::get<int64_t>(r));
    }
    std::string out = "string of " + std::to_string(std::get<std::string>(r).size()) + ":";
    for (char c : std::get<std::string>(r)) {
      out += " " + std::to_string(static_cast<unsigned char>(c));
    }
    return out;
  };
  auto expect_holds = [&](const Value& v, const Ref& r, const std::string& what) {
    SCOPED_TRACE(what + ", expecting " + describe(r));
    if (std::holds_alternative<int64_t>(r)) {
      const int64_t i = std::get<int64_t>(r);
      EXPECT_TRUE(v.is_int());
      EXPECT_EQ(ColumnType::kInt, v.type());
      EXPECT_EQ(i, v.AsInt());
      EXPECT_EQ("", v.AsString());
      EXPECT_EQ(std::to_string(i), v.ToString());
    } else {
      const std::string& s = std::get<std::string>(r);
      EXPECT_TRUE(v.is_string());
      EXPECT_EQ(ColumnType::kString, v.type());
      EXPECT_EQ(0, v.AsInt());
      EXPECT_EQ(s, v.AsString());
      EXPECT_EQ(s, v.ToString());
    }
  };

  std::vector<Ref> refs = {int64_t{0},
                           int64_t{-1},
                           int64_t{1} << 40,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (size_t length = 0; length <= 40; ++length) {
    for (int i = 0; i < 3; ++i) {
      refs.emplace_back(random_string(length));
    }
    refs.emplace_back(static_cast<int64_t>(next(1u << 20)) - (1 << 19));
  }
  // A 15-byte string against itself plus one byte, and duplicates of every
  // kind, so equal keys and shared prefixes meet across the inline limit.
  const std::string s15 = random_string(15);
  refs.insert(refs.end(), {s15, s15 + std::string(1, '\0'), s15 + "\xff", Ref(s15)});
  for (size_t i = 0, n = refs.size(); i < n; i += 7) {
    refs.push_back(refs[i]);
  }

  std::vector<Value> values;
  for (const Ref& r : refs) {
    values.push_back(make(r));
    expect_holds(values.back(), r, "constructed");
  }
  for (size_t a = 0; a < refs.size(); ++a) {
    for (size_t b = 0; b < refs.size(); ++b) {
      if ((refs[a] == refs[b]) != (values[a] == values[b]) ||
          (refs[a] < refs[b]) != (values[a] < values[b]) ||
          (refs[a] != refs[b]) != (values[a] != values[b])) {
        ADD_FAILURE() << "order differs: " << describe(refs[a]) << " vs " << describe(refs[b]);
      }
    }
  }

  // One of each kind at each edge: ints, inline strings (0, 1 and 15
  // bytes), heap strings (16, 17 and 40 bytes).
  const std::vector<Ref> kinds = {int64_t{-7},
                                  std::numeric_limits<int64_t>::min(),
                                  std::string(),
                                  std::string("\x80", 1),
                                  s15,
                                  s15 + std::string(1, '\0'),
                                  random_string(17),
                                  random_string(40)};
  // Assignment through references, so the self-assignment cases compile
  // without a self-assignment warning.
  auto copy_assign = [](Value& to, const Value& from) { to = from; };
  auto move_assign = [](Value& to, Value& from) { to = std::move(from); };
  for (const Ref& a : kinds) {
    for (const Ref& b : kinds) {
      const std::string pair = describe(a) + " <- " + describe(b);
      Value to = make(a);
      Value from = make(b);
      copy_assign(to, from);
      expect_holds(to, b, "copy-assigned " + pair);
      expect_holds(from, b, "copied-from " + pair);
      Value moved = make(a);
      move_assign(moved, from);
      expect_holds(moved, b, "move-assigned " + pair);
      from = make(a);  // a moved-from cell takes a new value
      expect_holds(from, a, "reassigned after move " + pair);
    }
    Value copy(make(a));
    Value copied(copy);
    expect_holds(copied, a, "copy-constructed " + describe(a));
    expect_holds(copy, a, "copy source " + describe(a));
    Value moved(std::move(copy));
    expect_holds(moved, a, "move-constructed " + describe(a));
    copy = moved;
    expect_holds(copy, a, "moved-from reassigned " + describe(a));
    copy_assign(moved, moved);
    expect_holds(moved, a, "self-copy-assigned " + describe(a));
    move_assign(moved, moved);
    expect_holds(moved, a, "self-move-assigned " + describe(a));
  }

  std::set<Ref> ref_set(refs.begin(), refs.end());
  std::set<Value> value_set(values.begin(), values.end());
  ASSERT_EQ(ref_set.size(), value_set.size());
  auto v = value_set.begin();
  for (const Ref& r : ref_set) {
    expect_holds(*v++, r, "set order");
  }
}

// Index maintenance across updates must not leave dangling entries.
TEST_F(DbTest, IndexUpdatedOnRekey) {
  table_->CreateIndex("name");
  size_t row = table_->Append({"old", 1, ""});
  table_->Update(row, 0, Value("new"));
  EXPECT_TRUE(table_->Match({Condition{0, Condition::Op::kEq, Value("old")}}).empty());
  ASSERT_EQ(1u, table_->Match({Condition{0, Condition::Op::kEq, Value("new")}}).size());
}

TEST_F(DbTest, IndexCreationOnPopulatedTable) {
  for (int i = 0; i < 20; ++i) {
    table_->Append({"name" + std::to_string(i % 5), i, ""});
  }
  table_->CreateIndex("name");
  EXPECT_EQ(4u, table_->Match({Condition{0, Condition::Op::kEq, Value("name2")}}).size());
}

// Regression: with several equality-indexable conditions the planner must
// probe the index with the most distinct keys, not the first one declared.
// (The pre-planner Table::FindIndexFor took whichever index it saw first,
// so a 2-key "shell" index could swallow a lookup the unique "name" index
// answers in one row.)
TEST_F(DbTest, PlannerPicksMostSelectiveIndex) {
  table_->CreateIndex("shell");  // declared first, nearly useless: 2 keys
  table_->CreateIndex("name");   // unique
  for (int i = 0; i < 100; ++i) {
    table_->Append({"user" + std::to_string(i), i, i % 2 ? "/bin/csh" : "/bin/sh"});
  }
  std::vector<Condition> conds = {Condition{2, Condition::Op::kEq, Value("/bin/csh")},
                                  Condition{0, Condition::Op::kEq, Value("user41")}};
  AccessPath path = PlanAccess(*table_, conds);
  EXPECT_EQ(AccessPath::Kind::kIndexEq, path.kind);
  EXPECT_EQ(1u, path.cond_pos) << "must serve the name condition, not shell";

  int64_t examined_before = table_->stats().rows_examined;
  std::vector<size_t> rows = table_->Match(conds);
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(41, table_->Cell(rows[0], 1).AsInt());
  // A unique-index probe fetches one row; the shell index would fetch 50.
  EXPECT_EQ(1, table_->stats().rows_examined - examined_before);
}

TEST_F(DbTest, PlannerUsesFoldedIndexForNoCase) {
  table_->CreateFoldedIndex("name");
  table_->Append({"Kermit", 1, ""});
  table_->Append({"gonzo", 2, ""});
  std::vector<Condition> conds = {Condition{0, Condition::Op::kEqNoCase, Value("KERMIT")}};
  AccessPath path = PlanAccess(*table_, conds);
  EXPECT_EQ(AccessPath::Kind::kIndexEq, path.kind);
  EXPECT_TRUE(path.skip_cond) << "folded probe fully answers kEqNoCase";
  int64_t hits_before = table_->stats().index_hits;
  ASSERT_EQ(1u, table_->Match(conds).size());
  EXPECT_EQ(1, table_->stats().index_hits - hits_before);
}

TEST_F(DbTest, PlannerPrefixPrunesWildcards) {
  table_->CreateIndex("name");
  for (int i = 0; i < 500; ++i) {
    table_->Append({"host" + std::to_string(i) + ".mit.edu", i, ""});
  }
  std::vector<Condition> conds = {Condition{0, Condition::Op::kWild, Value("host42?.*")}};
  AccessPath path = PlanAccess(*table_, conds);
  EXPECT_EQ(AccessPath::Kind::kIndexPrefix, path.kind);
  EXPECT_EQ("host42", path.lower);

  int64_t examined_before = table_->stats().rows_examined;
  // host42.mit.edu doesn't match (no digit before '.'), host420..host429 do.
  std::vector<size_t> rows = table_->Match(conds);
  EXPECT_EQ(10u, rows.size());
  // The range touches the 11 "host42"-prefixed keys, not all 500 rows.
  EXPECT_EQ(11, table_->stats().rows_examined - examined_before);
  // Prefix results come back in storage order like every other path.
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST_F(DbTest, IntColumnWildcardNotPrefixPruned) {
  table_->CreateIndex("uid");
  table_->Append({"a", 123, ""});
  table_->Append({"b", 456, ""});
  // "12*" has a literal prefix but uid keys are ints; the planner must not
  // build a string range over an int index.
  std::vector<Condition> conds = {Condition{1, Condition::Op::kWild, Value("12*")}};
  AccessPath path = PlanAccess(*table_, conds);
  EXPECT_EQ(AccessPath::Kind::kFullScan, path.kind);
  EXPECT_EQ(1u, table_->Match(conds).size());
}

TEST_F(DbTest, AccessPathCountersDistinguishPaths) {
  table_->CreateIndex("name");
  table_->Append({"alice", 1, "/bin/sh"});
  table_->Append({"bob", 2, "/bin/csh"});

  table_->Match({Condition{0, Condition::Op::kEq, Value("alice")}});
  EXPECT_EQ(1, table_->stats().index_hits);
  table_->Match({Condition{0, Condition::Op::kWild, Value("ali*")}});
  EXPECT_EQ(1, table_->stats().prefix_scans);
  table_->Match({Condition{2, Condition::Op::kEq, Value("/bin/sh")}});
  EXPECT_EQ(1, table_->stats().full_scans);
  EXPECT_EQ(3, table_->stats().rows_emitted);

  // Raw storage sweeps count as full scans too, and every visited row is
  // emitted (a sweep has no predicate), so selectivity ratios stay honest
  // for scan-heavy callers.
  table_->Scan([](size_t, const Row&) { return true; });
  EXPECT_EQ(2, table_->stats().full_scans);
  EXPECT_EQ(5, table_->stats().rows_emitted);

  table_->CreateIndex("uid");
  table_->Match({Condition{1, Condition::Op::kLt, Value(int64_t{2}), Value()}});
  EXPECT_EQ(1, table_->stats().range_scans);
}

// Rewriting a whole row one cell at a time moves it in the exact and folded
// indexes of each written column.
TEST_F(DbTest, UpdateRowKeepsIndexesConsistent) {
  table_->CreateIndex("name");
  table_->CreateFoldedIndex("name");
  table_->CreateIndex("uid");
  size_t row = table_->Append({"Old", 1, ""});
  table_->Append({"other", 2, ""});
  table_->Update(row, 0, Value("New"));
  table_->Update(row, 1, Value(3));
  table_->Update(row, 2, Value("/bin/sh"));
  EXPECT_TRUE(table_->Match({Condition{0, Condition::Op::kEq, Value("Old")}}).empty());
  EXPECT_TRUE(table_->Match({Condition{0, Condition::Op::kEqNoCase, Value("old")}}).empty());
  ASSERT_EQ(1u, table_->Match({Condition{0, Condition::Op::kEq, Value("New")}}).size());
  ASSERT_EQ(1u, table_->Match({Condition{0, Condition::Op::kEqNoCase, Value("NEW")}}).size());
  EXPECT_TRUE(table_->Match({Condition{1, Condition::Op::kEq, Value(1)}}).empty());
  EXPECT_EQ(std::vector<size_t>{row},
            table_->Match({Condition{1, Condition::Op::kEq, Value(3)}}));
}

TEST_F(DbTest, DeleteRemovesIndexEntries) {
  table_->CreateIndex("name");
  table_->CreateFoldedIndex("name");
  size_t a = table_->Append({"dup", 1, ""});
  table_->Append({"dup", 2, ""});
  table_->Delete(a);
  auto rows = table_->Match({Condition{0, Condition::Op::kEq, Value("dup")}});
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(2, table_->Cell(rows[0], 1).AsInt());
  rows = table_->Match({Condition{0, Condition::Op::kEqNoCase, Value("DUP")}});
  ASSERT_EQ(1u, rows.size());
}

TEST_F(DbTest, ClearAllRowsEmptiesIndexes) {
  table_->CreateIndex("name");
  table_->CreateFoldedIndex("name");
  table_->Append({"alice", 1, ""});
  db_.ClearAllRows();
  EXPECT_TRUE(table_->Match({Condition{0, Condition::Op::kEq, Value("alice")}}).empty());
  EXPECT_TRUE(table_->Match({Condition{0, Condition::Op::kEqNoCase, Value("ALICE")}}).empty());
  for (const IndexDesc& desc : table_->IndexDescs()) {
    EXPECT_EQ(0u, desc.entries);
    EXPECT_EQ(0u, desc.distinct_keys);
  }
  // The table is fully usable after the wipe.
  table_->Append({"alice", 1, ""});
  EXPECT_EQ(1u, table_->Match({Condition{0, Condition::Op::kEqNoCase, Value("Alice")}}).size());
}

TEST_F(DbTest, IndexCardinalityTracksLiveKeys) {
  table_->CreateIndex("name");
  size_t a = table_->Append({"x", 1, ""});
  table_->Append({"y", 2, ""});
  table_->Append({"y", 3, ""});
  ASSERT_EQ(1u, table_->IndexDescs().size());
  EXPECT_EQ(2u, table_->IndexDescs()[0].distinct_keys);
  EXPECT_EQ(3u, table_->IndexDescs()[0].entries);
  table_->Delete(a);
  EXPECT_EQ(1u, table_->IndexDescs()[0].distinct_keys);
  table_->Update(1, 0, Value("z"));
  EXPECT_EQ(2u, table_->IndexDescs()[0].distinct_keys);
}

// --- ordered-range predicates (kLt/kLe/kGt/kGe/kBetween) ---

TEST_F(DbTest, PlannerPlansOrderedRangeScan) {
  table_->CreateIndex("uid");
  for (int i = 0; i < 100; ++i) {
    table_->Append({"u" + std::to_string(i), i, ""});
  }
  std::vector<Condition> conds = {
      Condition{1, Condition::Op::kGe, Value(int64_t{40}), Value()},
      Condition{1, Condition::Op::kLt, Value(int64_t{50}), Value()}};
  AccessPath path = PlanAccess(*table_, conds);
  ASSERT_EQ(AccessPath::Kind::kIndexRange, path.kind);
  EXPECT_TRUE(path.range_lower.present);
  EXPECT_TRUE(path.range_lower.inclusive);
  EXPECT_EQ(Value(int64_t{40}), path.range_lower.key);
  EXPECT_TRUE(path.range_upper.present);
  EXPECT_FALSE(path.range_upper.inclusive);
  EXPECT_EQ(Value(int64_t{50}), path.range_upper.key);
  EXPECT_EQ(2u, path.range_conds.size()) << "both conditions absorbed, no residual";

  int64_t examined_before = table_->stats().rows_examined;
  std::vector<size_t> rows = table_->Match(conds);
  EXPECT_EQ(10u, rows.size());
  EXPECT_EQ(1, table_->stats().range_scans);
  // The scan touches only the 10 keys in [40, 50), not all 100 rows.
  EXPECT_EQ(10, table_->stats().rows_examined - examined_before);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST_F(DbTest, PlannerIntersectsRangeConditionsToTightestWindow) {
  table_->CreateIndex("uid");
  for (int i = 0; i < 100; ++i) {
    table_->Append({"u", i, ""});
  }
  // uid >= 10, uid > 19, uid <= 90, uid in [0, 30] intersect to (19, 30].
  std::vector<Condition> conds = {
      Condition{1, Condition::Op::kGe, Value(int64_t{10}), Value()},
      Condition{1, Condition::Op::kGt, Value(int64_t{19}), Value()},
      Condition{1, Condition::Op::kLe, Value(int64_t{90}), Value()},
      Condition{1, Condition::Op::kBetween, Value(int64_t{0}), Value(int64_t{30})}};
  AccessPath path = PlanAccess(*table_, conds);
  ASSERT_EQ(AccessPath::Kind::kIndexRange, path.kind);
  EXPECT_EQ(Value(int64_t{19}), path.range_lower.key);
  EXPECT_FALSE(path.range_lower.inclusive);
  EXPECT_EQ(Value(int64_t{30}), path.range_upper.key);
  EXPECT_TRUE(path.range_upper.inclusive);
  EXPECT_EQ(4u, path.range_conds.size()) << "every range condition absorbed";
  EXPECT_EQ(11u, table_->Match(conds).size());  // uids 20..30
}

// Regression: tightening used to AND the old bound's inclusivity into the new
// one even when the new key was strictly tighter, so `uid > 5 AND uid >= 10`
// planned an exclusive lower bound at 10 and silently dropped uid == 10 (the
// absorbed conditions run no residual check).  Same defect mirrored on the
// upper side.
TEST_F(DbTest, TighterInclusiveBoundKeepsItsInclusivity) {
  table_->CreateIndex("uid");
  for (int i = 0; i < 30; ++i) {
    table_->Append({"u", i, ""});
  }
  // kGt then kGe with a strictly larger key: bound is inclusive-at-10.
  std::vector<Condition> lower_conds = {
      Condition{1, Condition::Op::kGt, Value(int64_t{5}), Value()},
      Condition{1, Condition::Op::kGe, Value(int64_t{10}), Value()}};
  AccessPath lower_path = PlanAccess(*table_, lower_conds);
  ASSERT_EQ(AccessPath::Kind::kIndexRange, lower_path.kind);
  EXPECT_EQ(Value(int64_t{10}), lower_path.range_lower.key);
  EXPECT_TRUE(lower_path.range_lower.inclusive);
  EXPECT_EQ(20u, table_->Match(lower_conds).size());  // uids 10..29, 10 included

  // kLt then kLe with a strictly smaller key: bound is inclusive-at-10.
  std::vector<Condition> upper_conds = {
      Condition{1, Condition::Op::kLt, Value(int64_t{20}), Value()},
      Condition{1, Condition::Op::kLe, Value(int64_t{10}), Value()}};
  AccessPath upper_path = PlanAccess(*table_, upper_conds);
  ASSERT_EQ(AccessPath::Kind::kIndexRange, upper_path.kind);
  EXPECT_EQ(Value(int64_t{10}), upper_path.range_upper.key);
  EXPECT_TRUE(upper_path.range_upper.inclusive);
  EXPECT_EQ(11u, table_->Match(upper_conds).size());  // uids 0..10, 10 included

  // Equal keys still AND: x >= 7 AND x > 7 is exclusive-at-7.
  std::vector<Condition> equal_conds = {
      Condition{1, Condition::Op::kGe, Value(int64_t{7}), Value()},
      Condition{1, Condition::Op::kGt, Value(int64_t{7}), Value()}};
  AccessPath equal_path = PlanAccess(*table_, equal_conds);
  ASSERT_EQ(AccessPath::Kind::kIndexRange, equal_path.kind);
  EXPECT_FALSE(equal_path.range_lower.inclusive);
  EXPECT_EQ(22u, table_->Match(equal_conds).size());  // uids 8..29
}

TEST_F(DbTest, RangeScanAppliesResidualPredicates) {
  table_->CreateIndex("uid");
  for (int i = 0; i < 100; ++i) {
    table_->Append({i % 2 ? "odd" : "even", i, ""});
  }
  std::vector<Condition> conds = {
      Condition{1, Condition::Op::kBetween, Value(int64_t{10}), Value(int64_t{19})},
      Condition{0, Condition::Op::kEq, Value("odd"), Value()}};
  AccessPath path = PlanAccess(*table_, conds);
  ASSERT_EQ(AccessPath::Kind::kIndexRange, path.kind);
  ASSERT_EQ(1u, path.range_conds.size());
  EXPECT_EQ(0u, path.range_conds[0]) << "only the window condition is absorbed";
  std::vector<size_t> rows = table_->Match(conds);
  EXPECT_EQ(5u, rows.size());
  for (size_t row : rows) {
    EXPECT_EQ("odd", table_->Cell(row, 0).AsString());
  }
}

TEST_F(DbTest, EqualityProbeBeatsRangeScan) {
  table_->CreateIndex("name");
  table_->CreateIndex("uid");
  for (int i = 0; i < 50; ++i) {
    table_->Append({"user" + std::to_string(i), i, ""});
  }
  // With both an equality and a range condition indexable, the probe wins:
  // one key beats a window.
  std::vector<Condition> conds = {
      Condition{1, Condition::Op::kGe, Value(int64_t{0}), Value()},
      Condition{0, Condition::Op::kEq, Value("user7"), Value()}};
  AccessPath path = PlanAccess(*table_, conds);
  EXPECT_EQ(AccessPath::Kind::kIndexEq, path.kind);
  ASSERT_EQ(1u, table_->Match(conds).size());
}

TEST_F(DbTest, ContradictoryRangeWindowMatchesNothing) {
  table_->CreateIndex("uid");
  for (int i = 0; i < 10; ++i) {
    table_->Append({"u", i, ""});
  }
  // uid > 5 AND uid < 5: empty, and must not derive inverted iterators.
  EXPECT_TRUE(table_->Match({Condition{1, Condition::Op::kGt, Value(int64_t{5}), Value()},
                             Condition{1, Condition::Op::kLt, Value(int64_t{5}), Value()}})
                  .empty());
  // Touching bounds with one exclusive end: still empty.
  EXPECT_TRUE(table_->Match({Condition{1, Condition::Op::kGe, Value(int64_t{5}), Value()},
                             Condition{1, Condition::Op::kLt, Value(int64_t{5}), Value()}})
                  .empty());
  // Both ends inclusive on the same key: exactly that key.
  EXPECT_EQ(1u, table_->Match({Condition{1, Condition::Op::kGe, Value(int64_t{5}), Value()},
                               Condition{1, Condition::Op::kLe, Value(int64_t{5}), Value()}})
                    .size());
}

TEST_F(DbTest, FoldedIndexNotUsedForStringRange) {
  table_->CreateFoldedIndex("name");
  table_->Append({"Apple", 1, ""});
  table_->Append({"banana", 2, ""});
  table_->Append({"Cherry", 3, ""});
  // Folded keys are lowercased, which reorders them relative to the operand
  // ("Apple" < "B" but "apple" > "B"); the planner must fall back to a scan.
  std::vector<Condition> conds = {Condition{0, Condition::Op::kGe, Value("B"), Value()}};
  AccessPath path = PlanAccess(*table_, conds);
  EXPECT_EQ(AccessPath::Kind::kFullScan, path.kind);
  EXPECT_EQ(2u, table_->Match(conds).size());  // banana, Cherry
}

TEST_F(DbTest, SelectorRangeHelpers) {
  table_->CreateIndex("uid");
  for (int i = 0; i < 20; ++i) {
    table_->Append({"u" + std::to_string(i), i, ""});
  }
  EXPECT_EQ(3u, From(table_).WhereLt("uid", Value(int64_t{3})).Count());
  EXPECT_EQ(4u, From(table_).WhereLe("uid", Value(int64_t{3})).Count());
  EXPECT_EQ(3u, From(table_).WhereGt("uid", Value(int64_t{16})).Count());
  EXPECT_EQ(4u, From(table_).WhereGe("uid", Value(int64_t{16})).Count());
  EXPECT_EQ(5u, From(table_).WhereBetween("uid", Value(int64_t{3}), Value(int64_t{7})).Count());
  EXPECT_EQ(5, table_->stats().range_scans) << "each helper ran as a range scan";
}

// Regression: an update re-inserts the row's index entry at the end of its
// multimap equal range, so an equality probe used to return rows in
// index-insertion order while the prefix and scan paths return storage
// order.  Result order must not depend on the plan chosen.
TEST_F(DbTest, EqualityProbeResultOrderIsPlanIndependent) {
  Table* indexed = db_.CreateTable(TableSchema{
      "ordered", {{"k", ColumnType::kString}, {"v", ColumnType::kInt}}});
  indexed->CreateIndex("k");
  Table* plain = db_.CreateTable(TableSchema{
      "plain", {{"k", ColumnType::kString}, {"v", ColumnType::kInt}}});
  for (Table* t : {indexed, plain}) {
    t->Append({"dup", 0});
    t->Append({"dup", 1});
    t->Append({"dup", 2});
    // Rewriting row 0 moves its entry to the end of the "dup" equal range.
    t->Update(0, 1, Value(int64_t{9}));
  }
  std::vector<Condition> conds = {Condition{0, Condition::Op::kEq, Value("dup"), Value()}};
  std::vector<size_t> via_probe = indexed->Match(conds);
  std::vector<size_t> via_scan = plain->Match(conds);
  EXPECT_TRUE(std::is_sorted(via_probe.begin(), via_probe.end()));
  EXPECT_EQ(via_scan, via_probe);
}

TEST_F(DbTest, EqNoCaseOnIntColumnFallsBackToEquality) {
  table_->Append({"a", 42, ""});
  std::vector<Condition> conds = {
      Condition{1, Condition::Op::kEqNoCase, Value(int64_t{42}), Value()}};
  // Case only exists for strings; against an int column this must behave as
  // exact equality, not silently match nothing.
  ASSERT_EQ(1u, table_->Match(conds).size());
  EXPECT_TRUE(
      table_->Match({Condition{1, Condition::Op::kEqNoCase, Value(int64_t{7}), Value()}})
          .empty());
  // Same through a folded index: FoldCaseKey passes ints through unchanged.
  table_->CreateFoldedIndex("uid");
  ASSERT_EQ(1u, table_->Match(conds).size());
}

using DbDeathTest = DbTest;

// A page slot holds exactly the schema's cells, so a row of another arity
// never reaches one.
TEST_F(DbDeathTest, AppendOfWrongArityAbortsInAllBuilds) {
  EXPECT_DEATH(table_->Append({"alice", 100}), "takes rows of 3 cells, not 2");
  EXPECT_DEATH(table_->Append({"alice", 100, "/bin/csh", 7}), "takes rows of 3 cells, not 4");
}

TEST_F(DbDeathTest, SelectorUnknownColumnAbortsInAllBuilds) {
  // An unresolved column would silently drop the predicate (and index out of
  // bounds) in NDEBUG builds; Selector aborts instead, assert or no assert.
  EXPECT_DEATH(From(table_).WhereEq("no_such_column", Value(int64_t{1})), "no column");
  EXPECT_DEATH(From(table_).WhereGe("no_such_column", Value(int64_t{1})), "no column");
  EXPECT_DEATH(From(table_).Join(table_, "name", "no_such_column"), "no column");
  EXPECT_DEATH(From(table_).Join(table_, "no_such_column", "name"), "no column");
}

// The rows a condition list selects, by evaluating every condition on every
// live row's cell as its definition reads: the oracle of the index property
// tests.  Ascending by construction, so it also pins Match's storage order.
std::vector<size_t> BruteForceMatch(const Table& t, const std::vector<Condition>& conds) {
  std::vector<size_t> out;
  for (size_t row = 0; row < t.SlotCount(); ++row) {
    if (!t.IsLive(row)) continue;
    bool ok = true;
    for (const Condition& c : conds) {
      const Value& cell = t.Cell(row, c.column);
      switch (c.op) {
        case Condition::Op::kEq:
          ok = cell == c.operand;
          break;
        case Condition::Op::kEqNoCase:
          ok = cell.is_string() && c.operand.is_string()
                   ? EqualsIgnoreCase(cell.AsString(), c.operand.AsString())
                   : cell == c.operand;
          break;
        case Condition::Op::kWild:
          ok = WildcardMatch(c.operand.AsString(), cell.ToString());
          break;
        case Condition::Op::kWildNoCase:
          ok = WildcardMatch(c.operand.AsString(), cell.ToString(), /*fold_case=*/true);
          break;
        case Condition::Op::kLt:
          ok = cell < c.operand;
          break;
        case Condition::Op::kLe:
          ok = !(c.operand < cell);
          break;
        case Condition::Op::kGt:
          ok = c.operand < cell;
          break;
        case Condition::Op::kGe:
          ok = !(cell < c.operand);
          break;
        case Condition::Op::kBetween:
          ok = !(cell < c.operand) && !(c.operand2 < cell);
          break;
        case Condition::Op::kNe:
          ok = cell != c.operand;
          break;
        case Condition::Op::kAnyBits:
          ok = cell.is_int() && c.operand.is_int() && (cell.AsInt() & c.operand.AsInt()) != 0;
          break;
        case Condition::Op::kIn:
          ok = std::find(c.operand_set.begin(), c.operand_set.end(), cell) !=
               c.operand_set.end();
          break;
      }
      if (!ok) break;
    }
    if (ok) out.push_back(row);
  }
  return out;
}

// Property: across a randomized mutation history, every Match — equality,
// folded equality, wildcard, folded wildcard, ranges, sets — agrees with a
// brute-force scan that evaluates the predicates directly, and every index's
// cardinality statistics agree with a recount.  The history writes every
// column through Update and UpdateNoStats: k has an exact and a folded
// index, v an exact one, g an exact one over three values (so every erase
// lands in a long duplicate run), n only a folded one, and s none.
TEST_F(DbTest, RandomizedIndexConsistency) {
  Table* t = db_.CreateTable(TableSchema{"rand",
                                         {{"k", ColumnType::kString},
                                          {"v", ColumnType::kInt},
                                          {"g", ColumnType::kInt},
                                          {"n", ColumnType::kString},
                                          {"s", ColumnType::kString}}});
  t->CreateIndex("k");
  t->CreateFoldedIndex("k");
  t->CreateIndex("v");
  t->CreateIndex("g");
  t->CreateFoldedIndex("n");

  uint64_t rng = 0x9e3779b97f4a7c15ull;  // deterministic: no seed plumbing
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };
  auto random_key = [&next] {
    static const char* stems[] = {"Alpha", "beta", "GAMMA", "delta"};
    return std::string(stems[next(4)]) + std::to_string(next(25));
  };

  auto random_cell = [&](int column) {
    switch (column) {
      case 0:
      case 3:
        return Value(random_key());
      case 1:
        return Value(static_cast<int64_t>(next(50)));
      case 2:
        return Value(static_cast<int64_t>(next(3)));
      default:
        return Value("s" + std::to_string(next(10)));
    }
  };

  int64_t counted_updates = 0;
  for (int step = 0; step < 3000; ++step) {
    switch (next(4)) {
      case 0:
        t->Append({random_cell(0), random_cell(1), random_cell(2), random_cell(3),
                   random_cell(4)});
        break;
      case 1:
      case 2: {
        if (t->SlotCount() == 0) break;
        size_t row = next(t->SlotCount());
        if (!t->IsLive(row)) break;
        int column = static_cast<int>(next(5));
        if (next(2) == 0) {
          t->Update(row, column, random_cell(column));
          ++counted_updates;
        } else {
          t->UpdateNoStats(row, column, random_cell(column));
        }
        break;
      }
      default: {
        if (t->SlotCount() == 0) break;
        size_t row = next(t->SlotCount());
        if (t->IsLive(row)) t->Delete(row);
        break;
      }
    }
  }

  // Match must also return storage order without help: the brute force is
  // ascending by construction.
  auto check = [&](std::vector<Condition> conds, const char* what) {
    EXPECT_EQ(BruteForceMatch(*t, conds), t->Match(conds)) << what;
  };

  for (const char* probe : {"Alpha3", "beta17", "GAMMA0", "delta24", "missing9"}) {
    check({Condition{0, Condition::Op::kEq, Value(probe)}}, "kEq");
    check({Condition{0, Condition::Op::kEqNoCase, Value(ToUpperCopy(probe))}}, "kEqNoCase");
  }
  for (const char* pattern : {"Alpha*", "beta1?", "GAMMA*", "*2", "de*a5"}) {
    check({Condition{0, Condition::Op::kWild, Value(pattern)}}, "kWild");
    check({Condition{0, Condition::Op::kWildNoCase, Value(pattern)}}, "kWildNoCase");
  }
  for (int64_t v : {int64_t{0}, int64_t{25}, int64_t{49}}) {
    check({Condition{1, Condition::Op::kEq, Value(v)},
           Condition{0, Condition::Op::kWildNoCase, Value("alpha*")}},
          "conjunction");
  }
  // Ordered-range predicates: int windows ride the v index, string bounds
  // ride the exact k index (the folded one is skipped for string ranges).
  // The mutation history above already left tombstones and duplicate keys.
  for (int64_t v : {int64_t{0}, int64_t{10}, int64_t{25}, int64_t{49}}) {
    check({Condition{1, Condition::Op::kLt, Value(v), Value()}}, "kLt");
    check({Condition{1, Condition::Op::kLe, Value(v), Value()}}, "kLe");
    check({Condition{1, Condition::Op::kGt, Value(v), Value()}}, "kGt");
    check({Condition{1, Condition::Op::kGe, Value(v), Value()}}, "kGe");
    check({Condition{1, Condition::Op::kBetween, Value(v), Value(v + 15)}}, "kBetween");
    check({Condition{1, Condition::Op::kGe, Value(v), Value()},
           Condition{1, Condition::Op::kLt, Value(v + 10), Value()}},
          "intersected window");
    check({Condition{1, Condition::Op::kGe, Value(v), Value()},
           Condition{0, Condition::Op::kWild, Value("beta*"), Value()}},
          "range plus residual");
  }
  for (const char* bound : {"Alpha", "beta2", "GAMMA10", "delta", "zzz"}) {
    check({Condition{0, Condition::Op::kGe, Value(bound), Value()}}, "string kGe");
    check({Condition{0, Condition::Op::kLt, Value(bound), Value()}}, "string kLt");
    check({Condition{0, Condition::Op::kBetween, Value("A"), Value(bound)}},
          "string kBetween");
  }
  // The duplicate-heavy g index, the folded-only n index and unindexed s.
  for (int64_t g : {int64_t{0}, int64_t{1}, int64_t{2}}) {
    check({Condition{2, Condition::Op::kEq, Value(g)}}, "g kEq");
    check({Condition{2, Condition::Op::kNe, Value(g)}}, "g kNe");
    check({Condition{2, Condition::Op::kEq, Value(g)},
           Condition{1, Condition::Op::kLt, Value(int64_t{20}), Value()}},
          "g plus v window");
  }
  Condition g_set{2, Condition::Op::kIn, Value()};
  g_set.operand_set = {Value(int64_t{0}), Value(int64_t{2})};
  check({g_set}, "g kIn");
  for (const char* probe : {"alpha3", "BETA17", "Gamma0", "missing9"}) {
    check({Condition{3, Condition::Op::kEqNoCase, Value(probe)}}, "n kEqNoCase");
  }
  for (const char* pattern : {"ALPHA*", "beta1?", "*2"}) {
    check({Condition{3, Condition::Op::kWildNoCase, Value(pattern)}}, "n kWildNoCase");
  }
  for (const char* probe : {"s0", "s7", "s10"}) {
    check({Condition{4, Condition::Op::kEq, Value(probe)}}, "s kEq");
  }

  // Index statistics: entries is the live row count and distinct_keys the
  // number of distinct (folded, for a folded index) live keys.
  for (const IndexDesc& desc : t->IndexDescs()) {
    std::set<Value> keys;
    for (size_t row = 0; row < t->SlotCount(); ++row) {
      if (t->IsLive(row)) {
        const Value& cell = t->Cell(row, desc.column);
        keys.insert(desc.folded ? FoldCaseKey(cell) : cell);
      }
    }
    EXPECT_EQ(t->LiveCount(), desc.entries) << "column " << desc.column;
    EXPECT_EQ(keys.size(), desc.distinct_keys)
        << "column " << desc.column << (desc.folded ? " folded" : "");
  }
  EXPECT_EQ(counted_updates, t->stats().updates);
}

// Property: an index's block layout never shows.  A seeded history grows the
// table past 3,000 live rows with appends, Update, UpdateNoStats and deletes.
// g holds three int keys, so each key's run spans many 256-entry blocks and
// most writes land inside a long run.  k has an exact and a folded index
// over strings that share 16 or more leading bytes and differ past the prefix
// or only in case, keys of exactly 16 and 17 bytes, embedded NULs, bytes
// >= 0x80, and int cells (a digit-led pattern reaches the cell 2^40 through
// its decimal rendering).  At each checkpoint every index-backed path equals
// a brute-force scan in storage order and every IndexDescs() entry a
// recount; last, every row of one g key goes, emptying whole blocks.
TEST_F(DbTest, BlockEdgeIndexConsistency) {
  Table* t = db_.CreateTable(TableSchema{
      "edges", {{"g", ColumnType::kInt}, {"k", ColumnType::kString}, {"n", ColumnType::kInt}}});
  t->CreateIndex("g");
  t->CreateIndex("k");
  t->CreateFoldedIndex("k");

  uint64_t rng = 0x2545f4914f6cdd1dull;  // deterministic: no seed plumbing
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };
  const std::string shared = "shared-prefix-0123-";  // 19 bytes
  const std::string k16 = "abcdefghijklmnop";        // exactly 16 bytes
  const std::vector<Value> fixed = {
      Value(k16),
      Value(k16 + "q"),
      Value("ABCDEFGHIJKLMNOPQ"),
      Value(k16 + std::string(1, '\0')),
      Value(k16 + std::string("\0x", 2)),
      Value(std::string("ab\0cd", 5)),
      Value("ab"),
      Value(std::string("ab\0", 3)),
      Value("\x80"
            "abc"),
      Value("\xff\xfe"),
      Value("caf\xc3\xa9"),
      Value("CAF\xc3\xa9"),
      Value(shared),
      Value(""),
      Value(int64_t{-5}),
      Value(int64_t{0}),
      Value(int64_t{1} << 40),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
  };
  // Two keys in three are long: the shared stem in either case, then a short
  // tail over "aAbB", so exact and folded prefixes tie and tails decide.
  auto random_key = [&] {
    if (next(3) == 0) {
      return fixed[next(fixed.size())];
    }
    std::string key = next(2) == 0 ? shared : ToUpperCopy(shared);
    for (uint64_t n = next(4); n > 0; --n) {
      key += "aAbB"[next(4)];
    }
    return Value(key);
  };
  auto mutate = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      const uint64_t op = next(20);
      if (op < 11 || t->SlotCount() == 0) {
        t->Append({Value(static_cast<int64_t>(next(3))), random_key(),
                   Value(static_cast<int64_t>(i))});
        continue;
      }
      const size_t row = next(t->SlotCount());
      if (!t->IsLive(row)) {
        continue;
      }
      if (op < 15) {
        const int column = static_cast<int>(next(2));
        Value value = column == 0 ? Value(static_cast<int64_t>(next(3))) : random_key();
        if (op < 13) {
          t->Update(row, column, std::move(value));
        } else {
          t->UpdateNoStats(row, column, std::move(value));
        }
      } else {
        t->Delete(row);
      }
    }
  };

  auto check = [&](const Condition& cond, const std::string& what) {
    EXPECT_EQ(BruteForceMatch(*t, {cond}), t->Match({cond})) << what;
  };
  auto in_set = [](int column, std::vector<Value> set) {
    std::sort(set.begin(), set.end());
    Condition cond{column, Condition::Op::kIn, Value()};
    cond.operand_set = std::move(set);
    return cond;
  };
  const std::vector<Condition::Op> range_ops = {Condition::Op::kLt, Condition::Op::kLe,
                                                Condition::Op::kGt, Condition::Op::kGe};

  auto checkpoint = [&](const std::string& when) {
    const int64_t full_scans = t->stats().full_scans;
    for (int64_t g : {0, 1, 2, 3}) {
      check(Condition{0, Condition::Op::kEq, Value(g)}, when + " g kEq");
      for (Condition::Op op : range_ops) {
        check(Condition{0, op, Value(g)}, when + " g range");
      }
      check(Condition{0, Condition::Op::kBetween, Value(g), Value(int64_t{1})},
            when + " g kBetween");
    }
    check(in_set(0, {Value(int64_t{0}), Value(int64_t{2})}), when + " g kIn");
    check(in_set(0, {Value(int64_t{1}), Value(int64_t{3})}), when + " g kIn");

    std::vector<Value> probes = fixed;
    for (const char* tail : {"", "a", "aA", "Ab", "bBaA", "BBBB", "c"}) {
      probes.emplace_back(shared + tail);
      probes.emplace_back(ToUpperCopy(shared) + tail);
    }
    for (const Value& key : probes) {
      const std::string name = when + " k " + key.ToString();
      check(Condition{1, Condition::Op::kEq, key}, name + " kEq");
      const Value upper = key.is_string() ? Value(ToUpperCopy(key.AsString())) : key;
      check(Condition{1, Condition::Op::kEqNoCase, upper}, name + " kEqNoCase");
      for (Condition::Op op : range_ops) {
        check(Condition{1, op, key}, name + " range");
      }
      check(Condition{1, Condition::Op::kBetween, key, Value(shared + "aB")},
            name + " kBetween");
    }
    check(in_set(1, {fixed[0], fixed[3], fixed[7], fixed[14], Value(shared + "aA"),
                     Value(ToUpperCopy(shared))}),
          when + " k kIn");
    for (const std::string& pattern :
         {shared + "a*", shared + "?b*", ToUpperCopy(shared) + "B*", k16 + "*", k16 + "q*",
          std::string("ab\0*", 4), std::string("ab*"), std::string("\xff*"),
          std::string("caf*"), std::string("1*")}) {
      check(Condition{1, Condition::Op::kWild, Value(pattern)}, when + " kWild " + pattern);
      check(Condition{1, Condition::Op::kWildNoCase, Value(ToUpperCopy(pattern))},
            when + " kWildNoCase " + pattern);
    }
    EXPECT_EQ(full_scans, t->stats().full_scans) << when << ": a probe scanned the table";

    for (const IndexDesc& desc : t->IndexDescs()) {
      std::set<Value> keys;
      size_t entries = 0;
      for (size_t row = 0; row < t->SlotCount(); ++row) {
        if (t->IsLive(row)) {
          const Value& cell = t->Cell(row, desc.column);
          keys.insert(desc.folded ? FoldCaseKey(cell) : cell);
          ++entries;
        }
      }
      EXPECT_EQ(entries, desc.entries) << when << " column " << desc.column;
      EXPECT_EQ(keys.size(), desc.distinct_keys)
          << when << " column " << desc.column << (desc.folded ? " folded" : "");
    }
  };

  for (int round = 0; round < 3; ++round) {
    mutate(3000);
    checkpoint("round " + std::to_string(round));
  }
  ASSERT_GE(t->LiveCount(), 3000u);
  for (size_t row : t->Match({Condition{0, Condition::Op::kEq, Value(int64_t{1})}})) {
    t->Delete(row);
  }
  checkpoint("g=1 deleted");
}

// ClearAllRows, which every snapshot and checkpoint load runs first, leaves
// no dead copy of any row behind: each table frees its pages and starts over
// at row 0, with the statistics deleting each row would leave.
TEST_F(DbTest, ClearAllRowsFreesRowCells) {
  for (int i = 0; i < 50; ++i) {
    table_->Append({"user" + std::to_string(i) + " with a heap-long name", i, "/bin/csh"});
  }
  table_->CreateIndex("name");
  table_->Delete(7);
  db_.ClearAllRows();
  EXPECT_EQ(0u, table_->SlotCount());
  EXPECT_EQ(0u, table_->PageCount());
  EXPECT_EQ(0u, table_->LiveCount());
  EXPECT_EQ(50, table_->stats().deletes);
  EXPECT_EQ(0u, table_->IndexDescs()[0].entries);
  EXPECT_EQ(0u, table_->Append({"again", 1, "/bin/sh"}));
  EXPECT_EQ(std::vector<size_t>{0}, table_->Match({{0, Condition::Op::kEq, Value("again")}}));
}

// --- pages ---

// A view of an inline string cell (15 bytes or fewer) points into the page,
// which never moves: it reads the same after appends open many more pages.
TEST_F(DbTest, InlineCellViewSurvivesAppendsAcrossPages) {
  const size_t row = table_->Append({"inline-name", 1, "/bin/csh"});
  const std::string_view name = table_->Cell(row, 0).AsString();
  const Row view = table_->At(row);
  const size_t pages = table_->PageCount();
  for (int i = 0; i < static_cast<int>(4 * table_->PageRows()); ++i) {
    table_->Append({"u" + std::to_string(i), i, "/bin/sh"});
  }
  ASSERT_GE(table_->PageCount(), pages + 4);
  EXPECT_EQ("inline-name", name);
  EXPECT_EQ("inline-name", view[0].AsString());
  EXPECT_EQ(1, view[1].AsInt());
}

// Scan, IsLive, LiveCount and At agree with a plain model across page
// boundaries after deletes, on either side of each boundary too.
TEST_F(DbTest, PagesAgreeAcrossBoundariesAfterDeletes) {
  const size_t per_page = table_->PageRows();
  const size_t rows = 3 * per_page + 5;
  std::vector<std::vector<Value>> model;
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> cells = {Value("name" + std::to_string(i) + " padded past inline"),
                                Value(static_cast<int64_t>(i)), Value("/bin/sh")};
    model.push_back(cells);
    ASSERT_EQ(i, table_->Append(std::move(cells)));
  }
  std::vector<bool> live(rows, true);
  for (size_t i = 0; i < rows; ++i) {
    // Each page's first and last rows, and every third row.
    if (i % per_page == 0 || i % per_page == per_page - 1 || i % 3 == 0) {
      table_->Delete(i);
      live[i] = false;
    }
  }
  std::vector<size_t> expected;
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(live[i], table_->IsLive(i)) << "row " << i;
    if (live[i]) {
      expected.push_back(i);
      EXPECT_EQ(Row(model[i]), table_->At(i)) << "row " << i;
    } else {
      // Delete resets a dead row's cells, freeing its heap strings.
      for (const Value& cell : table_->At(i)) {
        EXPECT_EQ(Value(), cell) << "row " << i;
      }
    }
  }
  EXPECT_EQ(expected.size(), table_->LiveCount());
  std::vector<size_t> scanned;
  table_->Scan([&](size_t row, const Row& cells) {
    scanned.push_back(row);
    EXPECT_EQ(Row(model[row]), cells) << "row " << row;
    return true;
  });
  EXPECT_EQ(expected, scanned);
  EXPECT_EQ(expected, table_->Match({}));
  EXPECT_FALSE(table_->IsLive(rows));
}

// A table allocates pages as rows arrive, so it leaves at most one page
// unused, and a page holds as many whole rows as kPageBytes allows.
TEST_F(DbTest, WideAndNarrowTablesLeaveAtMostOnePageUnused) {
  std::vector<ColumnDef> wide_columns;
  for (int i = 0; i < 30; ++i) {
    wide_columns.push_back({"c" + std::to_string(i), ColumnType::kInt});
  }
  Table* wide = db_.CreateTable(TableSchema{"wide", wide_columns});
  Table* narrow = db_.CreateTable(TableSchema{"narrow", {{"c", ColumnType::kInt}}});
  for (Table* t : {wide, narrow}) {
    const size_t row_bytes = t->schema().columns.size() * sizeof(Value);
    EXPECT_LE(t->PageRows() * row_bytes, Table::kPageBytes) << t->name();
    EXPECT_GT((t->PageRows() + 1) * row_bytes, Table::kPageBytes) << t->name();
    EXPECT_EQ(0u, t->PageCount()) << t->name();
    for (size_t rows = 1; rows <= 2 * t->PageRows() + 3; ++rows) {
      t->Append(std::vector<Value>(t->schema().columns.size(), Value(int64_t{7})));
      const size_t capacity = t->PageCount() * t->PageRows();
      ASSERT_GE(capacity, rows) << t->name();
      ASSERT_LT(capacity - rows, t->PageRows()) << t->name() << " at " << rows << " rows";
    }
  }
}

// --- cost-based join planning ---

// fact: 60 rows fanning out over 3 keys; dim: one row per key, with a
// unique indexed name column that makes a dim-side equality maximally
// selective.
class JoinPlanTest : public ::testing::Test {
 protected:
  JoinPlanTest() : clock_(1000), db_(&clock_) {
    fact_ = db_.CreateTable(TableSchema{
        "fact", {{"key", ColumnType::kInt}, {"tag", ColumnType::kString}}});
    dim_ = db_.CreateTable(TableSchema{
        "dim", {{"key", ColumnType::kInt}, {"name", ColumnType::kString}}});
    fact_->CreateIndex("key");
    dim_->CreateIndex("key");
    dim_->CreateIndex("name");
    for (int i = 0; i < 60; ++i) {
      fact_->Append({i % 3, "t" + std::to_string(i)});
    }
    for (int k = 0; k < 3; ++k) {
      dim_->Append({k, "name" + std::to_string(k)});
    }
  }

  using Tuples = std::vector<std::vector<size_t>>;
  static Tuples Collect(Selector& s) {
    Tuples out;
    s.Emit([&](const std::vector<size_t>& rows) { out.push_back(rows); });
    return out;
  }

  SimulatedClock clock_;
  Database db_;
  Table* fact_;
  Table* dim_;
};

TEST_F(JoinPlanTest, PlannedOrderStartsFromSelectiveStage) {
  // name is unique on dim (est 1 row) vs. 60 unconditioned fact rows: the
  // planner must start from the tail and probe fact in reverse.
  Selector s = From(fact_).Join(dim_, "key", "key").WhereEq("name", Value("name1"));
  EXPECT_EQ((std::vector<size_t>{1, 0}), s.PlannedJoinOrder());
  // Forcing naive execution restores the declared left-to-right order.
  EXPECT_EQ((std::vector<size_t>{0, 1}),
            From(fact_).Join(dim_, "key", "key").WhereEq("name", Value("name1"))
                .ForceNaiveJoin().PlannedJoinOrder());
  // With no condition on any stage the declared order stays, although dim
  // (3 rows) is smaller than fact (60).
  EXPECT_EQ((std::vector<size_t>{0, 1}),
            From(fact_).Join(dim_, "key", "key").PlannedJoinOrder());
}

TEST_F(JoinPlanTest, ReorderedJoinMatchesNaiveAndSavesWork) {
  auto run = [&](bool naive) {
    Selector s = From(fact_).Join(dim_, "key", "key").WhereEq("name", Value("name1"));
    if (naive) s.ForceNaiveJoin();
    return Collect(s);
  };
  const int64_t reorders_before = fact_->stats().join_reorders;
  const int64_t examined_before = fact_->stats().rows_examined;
  Tuples cost_based = run(/*naive=*/false);
  const int64_t cost_examined = fact_->stats().rows_examined - examined_before;
  EXPECT_EQ(reorders_before + 1, fact_->stats().join_reorders);

  const int64_t naive_before = fact_->stats().rows_examined;
  Tuples naive = run(/*naive=*/true);
  const int64_t naive_examined = fact_->stats().rows_examined - naive_before;

  // Identical tuple sequences (not just multisets): emission order is
  // restored to the left-to-right nested-loop order after reordering.
  EXPECT_EQ(naive, cost_based);
  ASSERT_EQ(20u, cost_based.size());
  // Reverse execution probes fact's key index for the single surviving dim
  // row instead of scanning all 60 fact rows first.
  EXPECT_LT(cost_examined, naive_examined);
}

TEST_F(JoinPlanTest, AnyStopsAtFirstJoinedTuple) {
  // No condition anywhere: the declared order runs, and the loop streams, so
  // Any() stops inside the first outer row's probe of fact (one key's run of
  // 20 rows) instead of materializing the whole join first.
  Table* small = db_.CreateTable(TableSchema{
      "small", {{"key", ColumnType::kInt}, {"w", ColumnType::kInt}}});
  for (int64_t k : {1, 1, 1, 2, 2}) small->Append({k, k * 10});

  const int64_t examined_before = fact_->stats().rows_examined;
  EXPECT_TRUE(From(small).Join(fact_, "key", "key").Any());
  EXPECT_EQ(examined_before + 20, fact_->stats().rows_examined);
}

TEST_F(JoinPlanTest, ThreeStageChainReordersAroundSelectiveMiddle) {
  // wide(60) -> dim(3, unique name eq) -> fact(60): the middle stage is the
  // cheapest start; both neighbours are then probed in reverse/forward.
  Table* wide = db_.CreateTable(TableSchema{
      "wide", {{"key", ColumnType::kInt}, {"pad", ColumnType::kString}}});
  wide->CreateIndex("key");
  for (int i = 0; i < 60; ++i) wide->Append({i % 3, "p"});

  Selector s = From(wide)
                   .Join(dim_, "key", "key")
                   .WhereEq("name", Value("name2"))
                   .Join(fact_, "key", "key");
  EXPECT_EQ((std::vector<size_t>{1, 0, 2}), s.PlannedJoinOrder());
  Tuples cost_based = Collect(s);

  Selector naive = From(wide)
                       .Join(dim_, "key", "key")
                       .WhereEq("name", Value("name2"))
                       .Join(fact_, "key", "key");
  naive.ForceNaiveJoin();
  EXPECT_EQ(Collect(naive), cost_based);
  ASSERT_EQ(20u * 20u, cost_based.size());
}

TEST_F(JoinPlanTest, JoinSkipsTombstonedRows) {
  Table* small = db_.CreateTable(TableSchema{
      "small", {{"key", ColumnType::kInt}, {"w", ColumnType::kInt}}});
  std::vector<size_t> rows;
  for (int64_t k : {0, 1, 2}) rows.push_back(small->Append({k, k}));
  small->Delete(rows[1]);
  dim_->Delete(dim_->Match({Condition{0, Condition::Op::kEq, Value(int64_t{2}),
                                      Value()}})[0]);

  Selector s = From(small).Join(dim_, "key", "key");
  Tuples got = Collect(s);
  Selector naive = From(small).Join(dim_, "key", "key");
  naive.ForceNaiveJoin();
  EXPECT_EQ(Collect(naive), got);
  // Only small key 0 survives: key 1's outer row and key 2's dim row are
  // tombstoned.
  ASSERT_EQ(1u, got.size());
  EXPECT_EQ(rows[0], got[0][0]);
}

TEST_F(JoinPlanTest, RowsDedupIsOrderIndependent) {
  // Each fact key matches 20 dim-side... inverted: each dim row matches 20
  // fact rows, so base rows repeat; under reordering the repeats need not be
  // adjacent in probe order.  Rows() must still return each base row once,
  // in storage order.
  Selector s = From(dim_).Join(fact_, "key", "key");
  std::vector<size_t> rows = s.Rows();
  ASSERT_EQ(3u, rows.size());
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_EQ(rows.end(), std::adjacent_find(rows.begin(), rows.end()));
  Selector naive = From(dim_).Join(fact_, "key", "key");
  naive.ForceNaiveJoin();
  EXPECT_EQ(rows, naive.Rows());
}

TEST_F(JoinPlanTest, EstimateMatchRowsRanksPaths) {
  // Unconditioned: every live row.
  EXPECT_DOUBLE_EQ(60.0, EstimateMatchRows(*fact_, {}));
  // Equality on an indexed column: entries / distinct keys.
  EXPECT_DOUBLE_EQ(20.0, EstimateMatchRows(
      *fact_, {Condition{0, Condition::Op::kEq, Value(int64_t{1}), Value()}}));
  EXPECT_DOUBLE_EQ(1.0, EstimateMatchRows(
      *dim_, {Condition{1, Condition::Op::kEq, Value("name1"), Value()}}));
  // Unindexed residual: half the table.
  EXPECT_DOUBLE_EQ(30.0, EstimateMatchRows(
      *fact_, {Condition{1, Condition::Op::kEq, Value("t7"), Value()}}));
}

}  // namespace
}  // namespace moira
