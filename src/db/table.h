// A single relation of the Moira database engine.
//
// Rows are kept in an append-only slot vector with tombstoned deletes, so row
// indices remain stable across mutation (scans that collect matches and then
// update are safe).  Optional per-column equality indexes accelerate the id
// and name lookups that dominate the query mix; folded-case indexes back the
// case-insensitive predicates, and because indexes are ordered they also
// serve literal-prefix pruning for wildcard patterns and ordered-range
// predicates (kLt/kLe/kGt/kGe/kBetween) — see src/db/exec.h for the planner
// that chooses among them.
//
// Each index is one ordered set of exact (key, row index) entries.  A cell
// write therefore finds and moves its row's entry in O(log n) however long
// the key's duplicate run is, and it touches only the indexes on the written
// column.  An equality probe's run comes out in storage order.
#ifndef MOIRA_SRC_DB_TABLE_H_
#define MOIRA_SRC_DB_TABLE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/stat_counter.h"
#include "src/db/value.h"

namespace moira {

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kString;
};

struct TableSchema {
  std::string name;
  std::vector<ColumnDef> columns;
};

using Row = std::vector<Value>;

// A predicate on one column, used by Table::Match.
struct Condition {
  enum class Op {
    kEq,          // exact equality
    kEqNoCase,    // case-insensitive string equality (exact for non-strings)
    kWild,        // wildcard pattern match ('*' and '?')
    kWildNoCase,  // case-insensitive wildcard match
    kLt,          // cell <  operand
    kLe,          // cell <= operand
    kGt,          // cell >  operand
    kGe,          // cell >= operand
    kBetween,     // operand <= cell <= operand2 (closed range)
    kNe,          // cell != operand
    kAnyBits,     // (cell & operand) != 0, ints only (flag-mask membership)
    kIn,          // cell is one of operand_set (which must be sorted)
  };
  Condition() = default;
  Condition(int column_in, Op op_in, Value operand_in, const Value& operand2_in = Value())
      : column(column_in),
        op(op_in),
        operand(std::move(operand_in)),
        operand2(operand2_in) {}

  int column = 0;
  Op op = Op::kEq;
  Value operand;
  Value operand2{};  // kBetween only: the upper bound
  // kIn only: the membership set.  Must be sorted ascending and deduplicated
  // (Selector::WhereIn enforces this); evaluation binary-searches it.
  std::vector<Value> operand_set;
};

// Mutation counters, surfaced as the TBLSTATS relation (paper section 6),
// plus the access-path counters the query executor maintains so load can be
// reasoned about per table (index-backed vs. scanning execution).
//
// One thread executes every request (DESIGN.md "Concurrency model"), so
// every counter has a single writer.  Mutation counters are plain integers.
// The access-path counters are StatCounters (relaxed atomics that read like
// int64_t) because other threads read them while that thread runs: a
// benchmark client polling MoiraServer::access_path_stats(), for one.
struct TableStats {
  int64_t appends = 0;
  int64_t updates = 0;
  int64_t deletes = 0;
  int64_t modtime = 0;  // unix time of last append/update/delete

  // Access paths taken by Match (one increment per Match call).
  StatCounter index_hits = 0;    // answered by an equality-index probe
  StatCounter prefix_scans = 0;  // answered by a literal-prefix index range
  StatCounter range_scans = 0;   // answered by an ordered-index range scan
  StatCounter full_scans = 0;    // had to visit every live row
  StatCounter set_probes = 0;    // answered by a kIn union of index probes

  // Work done vs. work returned across all Match calls.
  StatCounter rows_examined = 0;  // rows fetched and tested against predicates
  StatCounter rows_emitted = 0;   // rows that satisfied every predicate

  // Join-executor counters, bumped by Selector (src/db/exec.cc) rather than
  // by Match itself.
  StatCounter join_reorders = 0;     // pipelines rooted here whose probe order
                                     // was rewritten by the cost-based planner
  StatCounter probe_cache_hits = 0;  // join probes of this table answered from
                                     // the batched distinct-key cache
};

// Public description of one index, consumed by the planner (src/db/exec.cc)
// to estimate selectivity without reaching into Table internals.
struct IndexDesc {
  int column = 0;
  bool folded = false;       // keys are stored case-folded (supports NoCase ops)
  size_t distinct_keys = 0;  // exact live cardinality; higher means more
                             // selective
  size_t entries = 0;        // live rows indexed (== Table::LiveCount())
};

struct AccessPath;  // planner output; defined in src/db/exec.h

class Table {
 public:
  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }

  // Returns the column position, or -1 if no such column.
  int ColumnIndex(std::string_view column) const;

  // Builds an equality index over `column`.  Idempotent.
  void CreateIndex(std::string_view column);

  // Builds a case-folded index over `column`: keys are stored lowercased, so
  // kEqNoCase probes and kWildNoCase prefix ranges are index-backed.
  // Idempotent, and independent of any exact index on the same column.
  void CreateFoldedIndex(std::string_view column);

  // Describes every index (for the planner and for tests).
  std::vector<IndexDesc> IndexDescs() const;

  // Appends a row (must match the schema arity); returns its stable index.
  size_t Append(Row row);

  // Overwrites one cell of a live row, re-indexing it only in the indexes
  // (exact and folded) on that column.
  void Update(size_t row_index, int column, Value value);

  // Bookkeeping write: updates the cell (and indexes) without counting in
  // TBLSTATS or bumping the table modtime.  Used for DCM-internal fields —
  // the paper's ModTime "refers only to modification by a user, not by the
  // DCM", and the incremental-generation check must not see DCM writes.
  void UpdateNoStats(size_t row_index, int column, Value value);

  // Tombstones a row.
  void Delete(size_t row_index);

  bool IsLive(size_t row_index) const {
    return row_index < slots_.size() && slots_[row_index].live;
  }

  const Row& At(size_t row_index) const { return slots_[row_index].row; }
  const Value& Cell(size_t row_index, int column) const {
    return slots_[row_index].row[column];
  }

  // Returns the indices of all live rows satisfying every condition, using
  // the cheapest access path the planner finds (see src/db/exec.h).  The
  // result is always in ascending row-index (storage) order, independent of
  // the plan.
  std::vector<size_t> Match(const std::vector<Condition>& conditions) const;

  // Executes `conditions` along a caller-supplied plan.  The Selector join
  // executor plans each probe stage once and patches the probe key between
  // calls instead of re-planning per key; the plan must have been produced
  // by PlanAccess against this table and a structurally identical condition
  // list (only operand values may differ).
  std::vector<size_t> Match(const std::vector<Condition>& conditions,
                            const AccessPath& path) const;

  // Join-executor hooks: these counters belong to TableStats but are bumped
  // by Selector (a const reader), outside any Match call.
  void NoteJoinReorder() const { ++stats_.join_reorders; }
  void NoteProbeCacheHits(int64_t n) const { stats_.probe_cache_hits += n; }

  // Visits every live row; stop early by returning false from the visitor.
  // This is the raw storage sweep — it bypasses the planner and counts as a
  // full scan.  Query handlers should go through Selector instead.
  void Scan(const std::function<bool(size_t, const Row&)>& visit) const;

  // Number of live rows.
  size_t LiveCount() const { return live_count_; }

  // Total slots including tombstones (the valid row-index range).
  size_t SlotCount() const { return slots_.size(); }

  const TableStats& stats() const { return stats_; }

  // The engine stamps stats modtimes through this hook; set by Database.
  void set_time_source(const std::function<int64_t()>& now) { now_ = now; }

 private:
  struct Slot {
    Row row;
    bool live = true;
  };

  // Index entries are exact (key, row index) pairs.  The transparent
  // overloads let probes and range bounds look up by key alone; one key's
  // run is ordered by row index, i.e. storage order.
  using IndexEntry = std::pair<Value, size_t>;
  struct EntryLess {
    using is_transparent = void;
    bool operator()(const IndexEntry& a, const IndexEntry& b) const {
      if (a.first < b.first) {
        return true;
      }
      return !(b.first < a.first) && a.second < b.second;
    }
    bool operator()(const IndexEntry& a, const Value& key) const { return a.first < key; }
    bool operator()(const Value& key, const IndexEntry& a) const { return key < a.first; }
  };

  struct Index {
    int column = 0;
    bool folded = false;
    size_t distinct_keys = 0;
    std::set<IndexEntry, EntryLess> entries;
  };

  void Touch(int64_t* counter);
  void BuildIndex(int column, bool folded);
  // The cell write Update and UpdateNoStats share.
  void Write(size_t row_index, int column, Value value);
  Value IndexKey(const Index& index, size_t row_index) const;
  void IndexInsert(Index* index, size_t row_index);
  void IndexErase(Index* index, size_t row_index);
  // Executes a plan produced by PlanAccess (src/db/exec.cc), bumping the
  // access-path counters.
  std::vector<size_t> ExecutePath(const AccessPath& path,
                                  const std::vector<Condition>& conditions) const;

  TableSchema schema_;
  std::vector<Slot> slots_;
  std::vector<Index> indexes_;
  size_t live_count_ = 0;
  // Mutation counters are bumped by writers; the access-path counters are
  // bumped by const reads, hence mutable (and atomic — see TableStats).
  mutable TableStats stats_;
  std::function<int64_t()> now_;
};

}  // namespace moira

#endif  // MOIRA_SRC_DB_TABLE_H_
