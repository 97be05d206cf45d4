// A single relation of the Moira database engine.
//
// Rows are kept in pages with tombstoned deletes, so row indices remain
// stable across mutation (scans that collect matches and then update are
// safe).  A row is `width` 16-byte cells (src/db/value.h): an int, or a
// string of up to 15 bytes, sits in its cell; a longer string is in a buffer
// the cell owns.  A page is one contiguous array of cells holding
// PageRows() rows, kPageBytes rounded down to whole rows: row r sits in
// page r / PageRows() at cell (r % PageRows()) * width, and each row has one
// live byte beside the pages.  Pages are allocated as rows arrive and never
// reallocated, so a table leaves at most one page partly unused and a cell
// never moves.  Delete resets the dead row's cells (freeing their heap
// strings) but keeps its place in the page; Clear frees every page at once.
//
// A Row is a read-only view of one row's cells (a pointer and a width), as
// At and Scan hand it out; it points into the page and lives as long as the
// table.  A view from Cell(...).AsString() lives until that cell is written
// (Update, UpdateNoStats) or its row deleted; appends never end it.
//
// Optional per-column equality indexes accelerate the id and name lookups
// that dominate the query mix; folded-case indexes back the case-insensitive
// predicates, and because indexes are ordered they also serve literal-prefix
// pruning for wildcard patterns (the string keys in the prefix's range, plus
// every int key, since a pattern also matches an int's decimal rendering)
// and ordered-range predicates (kLt/kLe/kGt/kGe/kBetween) — see
// src/db/exec.h for the planner that chooses among them.
//
// Each index holds one exact (key, row) entry per live row, kept in sorted
// blocks of at most 256 entries plus a contiguous fence vector of each
// block's last entry: a probe binary-searches the fences, then one block.
// An entry is 24 bytes: a 16-byte order-preserving key prefix (an int with
// its sign bit flipped in the first 8 bytes, or a string's first 16 bytes,
// zero-padded and, in a folded index, folded by FoldLower as FoldCaseKey
// folds), the 32-bit row number, and a tag (0 for an int, else
// 1 + min(length, 17)).
// Entries order by ints-before-strings, prefix, tag, then row number, which
// is the Value (or folded) key order: only when two strings longer than 16
// bytes share their prefix is the rest of each key read from its row.  A
// key's run is therefore ordered by row, i.e. storage order.
//
// Upkeep is exact and O(log n + 256): a cell write finds and moves its row's
// entry however long the key's duplicate run is, and touches only the
// indexes on the written column.  An insert that falls between two blocks
// (or before the first, or after the last) goes to a neighbour with room,
// the earlier first, and else opens a new block there, so the table's tail
// (ascending keys) leaves full blocks behind.  A full block that must take
// an entry inside it is halved into two 128-entry buffers, so a run growing
// inside the index (one key's run, or keys landing between existing ones)
// leaves half-full blocks that hold no spare room.  A block's buffer grows
// by at most 32 entries at a time, so it stays that close to its size.  A
// block that empties goes with its fence.  An index built over existing rows
// inserts them one by one, as Append would have.  Row numbers are 32-bit, so
// a table holds at most 2^32 - 1 slots; Append aborts past that in every
// build.
#ifndef MOIRA_SRC_DB_TABLE_H_
#define MOIRA_SRC_DB_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
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

// A read-only view of one row's cells: a pointer and a width.  Table::At and
// Table::Scan hand out views into the table's pages, which live as long as
// the table.  A view made from a std::vector<Value> lives as long as that
// vector holds its cells where they are.
class Row {
 public:
  using value_type = Value;
  using const_iterator = const Value*;
  using iterator = const_iterator;

  Row() = default;
  Row(const Value* cells, size_t size) : cells_(cells), size_(size) {}
  Row(const std::vector<Value>& cells)  // NOLINT(google-explicit-constructor)
      : cells_(cells.data()), size_(cells.size()) {}

  const Value& operator[](size_t i) const { return cells_[i]; }
  size_t size() const { return size_; }
  const_iterator begin() const { return cells_; }
  const_iterator end() const { return cells_ + size_; }

  friend bool operator==(const Row& a, const Row& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const Value* cells_ = nullptr;
  size_t size_ = 0;
};

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

  // Pipelines rooted here that the cost-based join planner ran from another
  // stage; bumped by Selector (src/db/exec.cc) rather than by Match itself.
  StatCounter join_reorders = 0;
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

class Table {
 public:
  // The byte budget of one page of cells.
  static constexpr size_t kPageBytes = 16384;

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

  // Describes every index (for the planner and for tests), in creation
  // order; kept in step with every write.
  const std::vector<IndexDesc>& IndexDescs() const { return descs_; }

  // Appends a row, moving its cells into the table's last page; returns its
  // stable index.  A row whose arity is not the schema's aborts in every
  // build.
  size_t Append(std::vector<Value> row);

  // Overwrites one cell of a live row, re-indexing it only in the indexes
  // (exact and folded) on that column.
  void Update(size_t row_index, int column, Value value);

  // Bookkeeping write: updates the cell (and indexes) without counting in
  // TBLSTATS or bumping the table modtime.  Used for DCM-internal fields —
  // the paper's ModTime "refers only to modification by a user, not by the
  // DCM", and the incremental-generation check must not see DCM writes.
  void UpdateNoStats(size_t row_index, int column, Value value);

  // Tombstones a row and resets its cells, freeing their heap strings.
  void Delete(size_t row_index);

  // Deletes every row and frees the pages, live bytes and index blocks, so
  // the table starts over at row 0; the statistics are those Delete of each
  // live row leaves.  For whole-state reloads (Database::ClearAllRows), after
  // which no earlier row number is used.
  void Clear();

  bool IsLive(size_t row_index) const {
    return row_index < live_.size() && live_[row_index] != 0;
  }

  // A slot's cells (a dead row's are all Value()); see the header comment
  // for how long the view lives.
  Row At(size_t row_index) const { return Row(RowCells(row_index), width_); }
  const Value& Cell(size_t row_index, int column) const {
    return RowCells(row_index)[column];
  }

  // Returns the indices of all live rows satisfying every condition, using
  // the cheapest access path the planner finds (see src/db/exec.h).  The
  // result is always in ascending row-index (storage) order, independent of
  // the plan.
  std::vector<size_t> Match(const std::vector<Condition>& conditions) const;

  // Join-executor hook: the counter belongs to TableStats but is bumped by
  // Selector (a const reader), outside any Match call.
  void NoteJoinReorder() const { ++stats_.join_reorders; }

  // Visits every live row; stop early by returning false from the visitor.
  // This is the raw storage sweep — it bypasses the planner and counts as a
  // full scan.  Query handlers should go through Selector instead.
  void Scan(const std::function<bool(size_t, const Row&)>& visit) const;

  // Number of live rows.
  size_t LiveCount() const { return live_count_; }

  // Total slots including tombstones (the valid row-index range).
  size_t SlotCount() const { return live_.size(); }

  // Rows per page (kPageBytes over the row's bytes, at least 1), and the
  // pages allocated so far.
  size_t PageRows() const { return page_rows_; }
  size_t PageCount() const { return pages_.size(); }

  const TableStats& stats() const { return stats_; }

  // The engine stamps stats modtimes through this hook; set by Database.
  void set_time_source(const std::function<int64_t()>& now) { now_ = now; }

 private:
  // One index entry (layout in the header comment).
  struct IndexEntry {
    uint64_t hi = 0;  // key prefix bytes 0-7, big-endian, so integer order
    uint64_t lo = 0;  //   is byte order; bytes 8-15
    uint32_t row = 0;
    uint8_t tag = 0;  // 0 for an int, else 1 + min(string length, 17)

    // Three-way comparison of the keys as far as prefix and tag order them;
    // 0 is final unless both keys are strings longer than the prefix.
    int ComparePrefix(const IndexEntry& other) const;
  };

  // The blocks of one index; its column, folding and statistics are the
  // IndexDesc at the same position in descs_.
  struct Index {
    std::vector<std::vector<IndexEntry>> blocks;  // each sorted, never empty
    std::vector<IndexEntry> fences;               // fences[b] == blocks[b].back()
  };

  // Entry `entry` of block `block`; {blocks.size(), 0} is the end.
  struct IndexPos {
    size_t block = 0;
    size_t entry = 0;
  };

  const Value* RowCells(size_t row_index) const {
    return pages_[row_index / page_rows_].get() + row_index % page_rows_ * width_;
  }
  Value* RowCells(size_t row_index) {
    return pages_[row_index / page_rows_].get() + row_index % page_rows_ * width_;
  }
  // Calls visit(row_index, cells) for each live row in storage order until it
  // returns false.  The slot count is read at every step, so rows appended
  // by `visit` are visited too.
  template <typename Visit>
  void ForEachLive(Visit visit) const {
    for (size_t page = 0; page * page_rows_ < live_.size(); ++page) {
      const Value* cells = pages_[page].get();
      const size_t page_end = (page + 1) * page_rows_;
      for (size_t row = page * page_rows_; row < page_end && row < live_.size();
           ++row, cells += width_) {
        if (live_[row] != 0 && !visit(row, cells)) {
          return;
        }
      }
    }
  }
  void Touch(int64_t* counter);
  void BuildIndex(int column, bool folded);
  // The cell write Update and UpdateNoStats share.
  void Write(size_t row_index, int column, Value value);
  // The prefix and tag of `key` (row 0), folded when `fold` is set.
  static IndexEntry EncodeKey(const Value& key, bool fold);
  // Three-way comparisons: of two stored entries' keys; of a stored entry's
  // key with a probe key (already in the index's key space); and of two
  // stored entries, row number last.
  int CompareKeys(const IndexDesc& desc, const IndexEntry& a, const IndexEntry& b) const;
  int CompareToProbe(const IndexDesc& desc, const IndexEntry& a, const IndexEntry& probe,
                     const Value& key) const;
  int CompareEntries(const IndexDesc& desc, const IndexEntry& a, const IndexEntry& b) const;
  // The first entry for which `before` is false; `before` must be true on a
  // prefix of the index order.
  template <typename Before>
  static IndexPos Seek(const Index& index, Before before);
  // The first entry whose key is >= `key` (LowerBound) or > `key`
  // (UpperBound).
  IndexPos LowerBound(size_t index_pos, const Value& key) const;
  IndexPos UpperBound(size_t index_pos, const Value& key) const;
  // Inserts `entry` at position `at` of a block with fewer than 256 entries;
  // a full buffer grows by at most 32 entries, not by doubling.
  static void InsertIntoBlock(std::vector<IndexEntry>* block, size_t at,
                              const IndexEntry& entry);
  void IndexInsert(size_t index_pos, size_t row_index);
  void IndexErase(size_t index_pos, size_t row_index);

  TableSchema schema_;
  size_t width_;      // cells per row
  size_t page_rows_;  // rows per page
  std::vector<std::unique_ptr<Value[]>> pages_;
  std::vector<uint8_t> live_;  // one byte per slot: 1 live, 0 tombstoned
  std::vector<Index> indexes_;
  std::vector<IndexDesc> descs_;  // descs_[i] describes indexes_[i]
  size_t live_count_ = 0;
  // Mutation counters are bumped by writers; the access-path counters are
  // bumped by const reads, hence mutable (and atomic — see TableStats).
  mutable TableStats stats_;
  std::function<int64_t()> now_;
};

}  // namespace moira

#endif  // MOIRA_SRC_DB_TABLE_H_
