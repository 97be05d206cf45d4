// Randomized join-consistency properties for the cost-based executor.
//
// The reordered execution (src/db/exec.cc) must be observationally
// identical to the naive left-to-right nested loop: same tuple sequence, not
// just the same multiset.  Each round builds a random chain of 2-4 tables —
// random indexes (including folded), duplicate join keys, tombstoned rows,
// random stage conditions and residual filters, and join columns at
// different positions on the two sides of an edge — and checks three
// executions against each other:
//
//   1. a handwritten nested loop over the raw slots (the oracle);
//   2. Selector with ForceNaiveJoin() (the declared order);
//   3. the cost-based Selector (stages in PlannedJoinOrder()).
//
// Emit, Rows and Count run on the cost-based Selector; Any and One run on
// both, since a declared-order loop stops early and a reordered one does not.
// Most equality operands come from a stage's live rows, and each seed must
// give non-empty answers in at least half its rounds, some of them on
// reordered plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/db/exec.h"

namespace moira {
namespace {

// A mixed-case pool so folded indexes see keys that collide only after
// case-folding.
const char* const kStrings[] = {"Aa", "aa", "bB", "bb", "Cc"};

// One stage of a randomly generated join chain, kept in a declarative form
// so the oracle can re-evaluate it without going through the executor.
struct StageSpec {
  Table* table = nullptr;
  // 1 when the table starts with a "pad" column.  Odd-numbered tables do, so
  // a join column sits at different positions on the two sides of an edge
  // and a probe that reads an edge's columns the wrong way round misses.
  int pad = 0;
  // Join with the previous stage (unused for stage 0), as a column of the
  // unpadded layout: 0 = k (int), 1 = s (string), 2 = v (int).
  int join_col = 0;
  // Conditions: kEq on s, kEq on v, or kBetween on v.
  std::vector<Condition> conds;
  // Residual filter on v's parity, if any.
  bool has_filter = false;
  int64_t parity = 0;

  // The table's position of a column of the unpadded layout.
  int Col(int column) const { return column + pad; }
};

bool OracleRowPasses(const StageSpec& spec, size_t row) {
  for (const Condition& cond : spec.conds) {
    const Value& cell = spec.table->Cell(row, cond.column);
    switch (cond.op) {
      case Condition::Op::kEq:
        if (!(cell == cond.operand)) return false;
        break;
      case Condition::Op::kBetween:
        if (cell < cond.operand || cond.operand2 < cell) return false;
        break;
      default:
        ADD_FAILURE() << "unexpected generated op";
        return false;
    }
  }
  if (spec.has_filter && spec.table->Cell(row, spec.Col(2)).AsInt() % 2 != spec.parity) {
    return false;
  }
  return true;
}

// The naive left-to-right nested loop, written directly against the slots.
std::vector<std::vector<size_t>> OracleJoin(const std::vector<StageSpec>& specs) {
  std::vector<std::vector<size_t>> out;
  std::vector<size_t> tuple(specs.size());
  std::function<void(size_t)> rec = [&](size_t stage) {
    if (stage == specs.size()) {
      out.push_back(tuple);
      return;
    }
    const StageSpec& spec = specs[stage];
    for (size_t row = 0; row < spec.table->SlotCount(); ++row) {
      if (!spec.table->IsLive(row) || !OracleRowPasses(spec, row)) continue;
      if (stage > 0) {
        const StageSpec& prev = specs[stage - 1];
        const Value& left = prev.table->Cell(tuple[stage - 1], prev.Col(spec.join_col));
        if (!(spec.table->Cell(row, spec.Col(spec.join_col)) == left)) continue;
      }
      tuple[stage] = row;
      rec(stage + 1);
    }
  };
  rec(0);
  return out;
}

Selector BuildSelector(const std::vector<StageSpec>& specs) {
  Selector sel = From(specs[0].table);
  for (size_t i = 0; i < specs.size(); ++i) {
    const StageSpec& spec = specs[i];
    const char* join_name = spec.join_col == 0 ? "k" : "s";
    if (i > 0) sel.Join(spec.table, join_name, join_name);
    for (const Condition& cond : spec.conds) sel.Where(cond);
    if (spec.has_filter) {
      const int64_t parity = spec.parity;
      const int v = spec.Col(2);
      sel.Filter([parity, v](const Table& t, size_t row) {
        return t.Cell(row, v).AsInt() % 2 == parity;
      });
    }
  }
  return sel;
}

std::vector<std::vector<size_t>> Collect(Selector& sel) {
  std::vector<std::vector<size_t>> out;
  sel.Emit([&](const std::vector<size_t>& rows) { out.push_back(rows); });
  return out;
}

class JoinConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinConsistencyTest, CostBasedMatchesNaiveNestedLoop) {
  SplitMix64 rng(GetParam());
  constexpr int kRounds = 40;
  int nonempty = 0;            // rounds whose oracle answer has a tuple
  int nonempty_reordered = 0;  // ... and whose cost-based plan is reordered
  for (int round = 0; round < kRounds; ++round) {
    SimulatedClock clock(0);
    Database db(&clock);
    const size_t nstages = 2 + rng.Below(3);
    std::vector<StageSpec> specs(nstages);
    std::vector<std::optional<size_t>> anchors(nstages);
    for (size_t i = 0; i < nstages; ++i) {
      StageSpec& spec = specs[i];
      spec.pad = static_cast<int>(i % 2);
      std::vector<ColumnDef> columns = {
          {"k", ColumnType::kInt}, {"s", ColumnType::kString}, {"v", ColumnType::kInt}};
      if (spec.pad == 1) columns.insert(columns.begin(), {"pad", ColumnType::kString});
      Table* t = db.CreateTable(TableSchema{"t" + std::to_string(i), std::move(columns)});
      if (rng.Below(2) == 0) t->CreateIndex("k");
      if (rng.Below(2) == 0) t->CreateIndex("s");
      if (rng.Below(2) == 0) t->CreateFoldedIndex("s");
      if (rng.Below(3) == 0) t->CreateIndex("v");
      const size_t nrows = 1 + rng.Below(40);
      for (size_t r = 0; r < nrows; ++r) {
        std::vector<Value> cells = {Value(static_cast<int64_t>(rng.Below(6))),
                                    Value(kStrings[rng.Below(5)]),
                                    Value(static_cast<int64_t>(rng.Below(50)))};
        if (spec.pad == 1) cells.insert(cells.begin(), Value("x"));
        size_t row = t->Append(std::move(cells));
        if (rng.Below(5) == 0) t->Delete(row);
      }
      spec.table = t;
      spec.join_col = rng.Below(2) == 0 ? 0 : 1;
      // Seven equality operands in eight come from one live row of the stage,
      // its anchor, which joins the previous stage's anchor where a row can,
      // so most rounds have a tuple for the conditions to keep or drop.
      std::vector<size_t> live;
      std::vector<size_t> linked;
      for (size_t row = 0; row < t->SlotCount(); ++row) {
        if (!t->IsLive(row)) continue;
        live.push_back(row);
        if (i > 0 && anchors[i - 1].has_value() &&
            t->Cell(row, spec.Col(spec.join_col)) ==
                specs[i - 1].table->Cell(*anchors[i - 1], specs[i - 1].Col(spec.join_col))) {
          linked.push_back(row);
        }
      }
      const std::vector<size_t>& pool = linked.empty() ? live : linked;
      if (!pool.empty()) anchors[i] = pool[rng.Below(pool.size())];
      // Most conditions and filters also keep the anchor.
      auto anchored = [&] { return anchors[i].has_value() && rng.Below(8) != 0; };
      auto anchor_cell = [&](int column) { return t->Cell(*anchors[i], spec.Col(column)); };
      auto eq_operand = [&](int column, Value random) {
        return anchored() ? anchor_cell(column) : random;
      };
      const size_t nconds = rng.Below(3);
      for (size_t c = 0; c < nconds; ++c) {
        switch (rng.Below(3)) {
          case 0:
            spec.conds.push_back(Condition{spec.Col(1), Condition::Op::kEq,
                                           eq_operand(1, Value(kStrings[rng.Below(5)])),
                                           Value()});
            break;
          case 1:
            spec.conds.push_back(
                Condition{spec.Col(2), Condition::Op::kEq,
                          eq_operand(2, Value(static_cast<int64_t>(rng.Below(50)))), Value()});
            break;
          default: {
            int64_t lo = static_cast<int64_t>(rng.Below(40));
            int64_t hi = lo + static_cast<int64_t>(rng.Below(20));
            if (anchored()) {
              const int64_t v = anchor_cell(2).AsInt();
              lo = v - static_cast<int64_t>(rng.Below(10));
              hi = v + static_cast<int64_t>(rng.Below(10));
            }
            spec.conds.push_back(
                Condition{spec.Col(2), Condition::Op::kBetween, Value(lo), Value(hi)});
            break;
          }
        }
      }
      if (rng.Below(3) == 0) {
        spec.has_filter = true;
        spec.parity = static_cast<int64_t>(rng.Below(2));
        if (anchored()) spec.parity = anchor_cell(2).AsInt() % 2;
      }
    }
    const std::vector<std::vector<size_t>> expected = OracleJoin(specs);

    Selector naive = BuildSelector(specs);
    naive.ForceNaiveJoin();
    EXPECT_EQ(expected, Collect(naive)) << "naive, round " << round;

    Selector cost = BuildSelector(specs);
    EXPECT_EQ(expected, Collect(cost)) << "cost-based, round " << round;
    if (!expected.empty()) {
      ++nonempty;
      std::vector<size_t> declared(nstages);
      std::iota(declared.begin(), declared.end(), size_t{0});
      if (cost.PlannedJoinOrder() != declared) ++nonempty_reordered;
    }

    // Rows(): deduplicated base rows in storage order, identical across
    // execution strategies.
    std::vector<size_t> base;
    for (const auto& tuple : expected) base.push_back(tuple[0]);
    std::sort(base.begin(), base.end());
    base.erase(std::unique(base.begin(), base.end()), base.end());
    Selector rows_cost = BuildSelector(specs);
    EXPECT_EQ(base, rows_cost.Rows()) << "Rows(), round " << round;

    Selector count_cost = BuildSelector(specs);
    EXPECT_EQ(expected.size(), count_cost.Count()) << "Count(), round " << round;

    // Any() and One(): whether a tuple survives, and the single surviving
    // base row (nullopt for none or several), pinned and planned.
    const std::optional<size_t> one =
        base.size() == 1 ? std::optional<size_t>(base[0]) : std::nullopt;
    for (bool pinned : {true, false}) {
      Selector any = BuildSelector(specs);
      Selector single = BuildSelector(specs);
      if (pinned) {
        any.ForceNaiveJoin();
        single.ForceNaiveJoin();
      }
      const char* how = pinned ? "naive" : "cost-based";
      EXPECT_EQ(!expected.empty(), any.Any()) << "Any(), " << how << ", round " << round;
      EXPECT_EQ(one, single.One()) << "One(), " << how << ", round " << round;
    }
  }
  // The comparisons above prove little on empty answers.
  EXPECT_GE(2 * nonempty, kRounds) << nonempty << " non-empty rounds";
  EXPECT_GT(nonempty_reordered, 0) << "no non-empty round ran a reordered plan";
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinConsistencyTest,
                         ::testing::Values(21, 22, 23, 99, 2026));

}  // namespace
}  // namespace moira
