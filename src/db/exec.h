// Query-execution layer of the Moira database engine.
//
// Two pieces live here:
//
//  * The access-path planner.  Given a condition list, PlanAccess picks the
//    cheapest way to satisfy it against a table using live statistics: the
//    most selective equality index (estimated via index cardinality), a
//    folded-case index for case-insensitive equality, an ordered-index range
//    scan for kLt/kLe/kGt/kGe/kBetween predicates, a literal-prefix range
//    over an ordered index for wildcard patterns, or — only as a last
//    resort — a full scan.  Table::Match executes the chosen plan and keeps
//    per-table counters (TableStats) of which paths ran and how many rows
//    they examined vs. emitted.
//
//  * Selector, a small fluent query API that encapsulates the
//    scan/filter/join/emit idiom the query handlers and DCM generators
//    previously hand-rolled:
//
//      From(mc.serverhosts())
//          .Where(service_col, Condition::Op::kEq, Value("NFS"))
//          .Join(mc.machine(), "mach_id", "mach_id")
//          .Emit([&](const std::vector<size_t>& rows) { ... });
//
//    Every stage goes through the planner, so a Selector pipeline is
//    index-backed wherever an index exists.
#ifndef MOIRA_SRC_DB_EXEC_H_
#define MOIRA_SRC_DB_EXEC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/db/table.h"

namespace moira {

// The plan for one Table::Match call.
struct AccessPath {
  enum class Kind {
    kFullScan,     // visit every live row
    kIndexEq,      // equality probe of one index
    kIndexPrefix,  // range scan of one index over a literal prefix
    kIndexRange,   // range scan of one index over an ordered-predicate window
    kIndexIn,      // union of equality probes for a kIn membership set
  };
  // One end of a kIndexRange window.  An absent bound scans to that end of
  // the index.
  struct Bound {
    bool present = false;
    bool inclusive = false;
    Value key;
  };
  Kind kind = Kind::kFullScan;
  size_t index_pos = 0;    // position in Table::IndexDescs()
  size_t cond_pos = 0;     // the condition the index serves
  bool skip_cond = false;  // probe fully satisfies the condition (no residual)
  Value eq_key;            // kIndexEq: probe key (already folded if needed)
  std::string lower;       // kIndexPrefix: scan the int keys and the string
  std::string upper;       //   keys in [lower, upper); empty upper = scan to
                           //   the end of the index
  Bound range_lower;       // kIndexRange: window over the index keys; the
  Bound range_upper;       //   tightest intersection of every range condition
  std::vector<size_t> range_conds;  // kIndexRange: conditions the window
                                    // fully absorbs (no residual check)
  std::vector<Value> in_keys;       // kIndexIn: the distinct probe keys
                                    // (sorted; one index probe per key)
};

// Case-folds an index key: strings are lowercased, other values pass
// through.  Shared by index maintenance (table.cc) and the planner so probe
// keys and stored keys always agree.
Value FoldCaseKey(const Value& v);

// Estimated number of rows Match(conditions) would emit, derived from the
// same statistics PlanAccess consults: an equality probe expects
// entries/distinct_keys rows, a two-sided range window a quarter of the
// table, a one-sided window or a residual-only scan half of it.  The join
// planner orders probe stages by this estimate; it only needs the estimates
// to rank correctly, not to be exact.
double EstimateMatchRows(const Table& table, const std::vector<Condition>& conditions);

// Picks the cheapest access path for `conditions` against `table`:
//   1. the equality-indexable condition whose index has the highest
//      cardinality (fewest expected rows per key) — kEq on an exact index,
//      kEqNoCase on a folded index, kEq on a folded index as a fallback;
//   1b. otherwise a kIn membership set over an exact index, executed as a
//      union of equality probes (most selective index on ties);
//   2. otherwise the indexed column with the tightest ordered-range window:
//      every kLt/kLe/kGt/kGe/kBetween condition on one indexed column is
//      intersected into a single [lower, upper] window over the index keys
//      (preferring a window bounded on both ends, then the index with the
//      most distinct keys), and the absorbed conditions run no residual;
//   3. otherwise the wildcard condition with the longest literal prefix that
//      has an ordered index to range-scan — kWild on an exact index,
//      kWildNoCase (or kWild) on a folded index;
//   4. otherwise a full scan.
AccessPath PlanAccess(const Table& table, const std::vector<Condition>& conditions);

// Fluent multi-stage query over one or more tables.  Stage 0 is the base
// table; each Join adds a stage.  Where/Filter apply to the most recently
// added stage.  Terminal operations (Emit/ForEach/Rows/One/Count) run the
// pipeline; each stage's conditions go through the planner.
//
// Every pipeline runs through one nested loop (Bind) that binds the stages
// in PlannedJoinOrder() and probes each stage with its bound neighbour's join
// key, so every probe goes through the planner too.  Multi-stage order is
// cost-based: the join planner estimates each stage's standalone output
// cardinality (EstimateMatchRows), starts from the most selective stage and
// walks the chain outward toward whichever neighbour is cheaper next, so a
// pipeline whose tail carries the selective predicate runs tail-first with
// reverse index probes instead of fanning out from an unselective base.  A
// pipeline with no condition on any stage keeps its declared order.  In
// declared order the loop streams (Any/One stop at the first tuple); a
// reordered plan collects its tuples and sorts them back to the order the
// declared loop would have emitted (lexicographic by per-stage row index),
// so results are plan-independent.  TableStats counts reordered pipelines
// as join_reorders on the base table.
class Selector {
 public:
  explicit Selector(const Table* table);

  // Adds a predicate on the current stage.  Naming a column the stage's
  // table does not have is a caller bug and aborts in every build mode
  // (release included): a silently dropped predicate would leak rows.
  Selector& Where(Condition cond);
  Selector& Where(std::string_view column, Condition::Op op, Value operand);
  Selector& WhereEq(std::string_view column, Value operand);
  // Ordered-range helpers; planned as index range scans when the column has
  // an index (see PlanAccess step 2).
  Selector& WhereLt(std::string_view column, Value operand);
  Selector& WhereLe(std::string_view column, Value operand);
  Selector& WhereGt(std::string_view column, Value operand);
  Selector& WhereGe(std::string_view column, Value operand);
  // Closed range: lower <= column <= upper.
  Selector& WhereBetween(std::string_view column, Value lower, Value upper);
  // Wildcard helper: picks kEq/kEqNoCase when the pattern has no
  // metacharacters, else kWild/kWildNoCase.
  Selector& WhereWild(std::string_view column, std::string_view pattern,
                      bool case_insensitive = false);
  // Typed predicates the planner can see into (unlike an opaque Filter,
  // these push down into index-backed scans and cost estimation).
  Selector& WhereNe(std::string_view column, Value operand);
  // (column & mask) != 0 — the flag-membership shape of the qualifier
  // queries (DCM-enable bits, status masks).
  Selector& WhereAnyBits(std::string_view column, int64_t mask);
  // column ∈ set — the membership shape previously expressed as a
  // set-capturing Filter lambda.  The set is sorted and deduplicated here;
  // with an exact index on the column it plans as a union of index probes
  // (kIndexIn) instead of a full scan.
  Selector& WhereIn(std::string_view column, std::vector<Value> set);

  // Residual predicate the planner cannot index (ranges, bitmasks,
  // tri-state).  Runs after the stage's conditions.
  Selector& Filter(std::function<bool(const Table&, size_t)> pred);

  // Inner join: rows of `other` where other[right_col] == current[left_col].
  // The per-row equality lookup goes through the planner, so it is an index
  // probe whenever `other` indexes right_col.
  Selector& Join(const Table* other, std::string_view left_col,
                 std::string_view right_col);

  // Pins the declared left-to-right stage order: the baseline for
  // consistency tests and the bench reduction factors.
  Selector& ForceNaiveJoin();

  // The stage order the cost-based planner would execute (identity when
  // naive execution is forced, there is no join, or no stage has a
  // condition).  Exposed for tests.
  std::vector<size_t> PlannedJoinOrder() const;

  // --- Terminal operations ---

  // Visits every surviving tuple; `rows[i]` is the row index in stage i's
  // table.  ForEach stops early when the visitor returns false.
  void Emit(const std::function<void(const std::vector<size_t>&)>& visit) const;
  void ForEach(const std::function<bool(const std::vector<size_t>&)>& visit) const;

  // Base-table row indices of every surviving tuple (deduplicated, in
  // storage order).  Every pipeline emits base rows in that order, so a
  // join's repeats are adjacent and are dropped as they arrive; nothing is
  // re-sorted.
  std::vector<size_t> Rows() const;

  // The single surviving base row; nullopt when zero or several match.
  std::optional<size_t> One() const;

  size_t Count() const;
  bool Any() const;

 private:
  struct Stage {
    const Table* table = nullptr;
    // Join columns linking this stage to the previous one (-1 for stage 0).
    int left_col = -1;
    int right_col = -1;
    std::vector<Condition> conds;
    std::vector<std::function<bool(const Table&, size_t)>> filters;
  };

  // Binds stage order[k] for every row that joins the stages bound before
  // it, then recurses; visits each complete tuple and stops when the
  // visitor returns false (and then returns false).
  bool Bind(const std::vector<size_t>& order, size_t k, std::vector<size_t>* rows,
            const std::function<bool(const std::vector<size_t>&)>& visit) const;
  bool PassesFilters(const Stage& stage, size_t row) const;

  std::vector<Stage> stages_;
  bool naive_join_ = false;
};

// Entry points reading as a query: From(table).Where(...).Emit(...).
Selector From(const Table* table);
Selector From(const Table& table);

}  // namespace moira

#endif  // MOIRA_SRC_DB_EXEC_H_
