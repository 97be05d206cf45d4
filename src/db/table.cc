#include "src/db/table.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "src/common/strutil.h"
#include "src/db/exec.h"

namespace moira {
namespace {

bool ConditionHolds(const Condition& cond, const Row& row) {
  const Value& cell = row[cond.column];
  switch (cond.op) {
    case Condition::Op::kEq:
      return cell == cond.operand;
    case Condition::Op::kEqNoCase:
      // Case only exists for strings; against anything else (an int uid
      // probed case-insensitively, say) this is plain equality.
      if (!cell.is_string() || !cond.operand.is_string()) {
        return cell == cond.operand;
      }
      return EqualsIgnoreCase(cell.AsString(), cond.operand.AsString());
    case Condition::Op::kWild:
      return WildcardMatch(cond.operand.ToString(), cell.ToString());
    case Condition::Op::kWildNoCase:
      return WildcardMatch(cond.operand.ToString(), cell.ToString(), /*case_insensitive=*/true);
    case Condition::Op::kLt:
      return cell < cond.operand;
    case Condition::Op::kLe:
      return !(cond.operand < cell);
    case Condition::Op::kGt:
      return cond.operand < cell;
    case Condition::Op::kGe:
      return !(cell < cond.operand);
    case Condition::Op::kBetween:
      return !(cell < cond.operand) && !(cond.operand2 < cell);
    case Condition::Op::kNe:
      return cell != cond.operand;
    case Condition::Op::kAnyBits:
      // Flag-mask membership; only meaningful between ints.
      return cell.is_int() && cond.operand.is_int() &&
             (cell.AsInt() & cond.operand.AsInt()) != 0;
    case Condition::Op::kIn:
      // operand_set is sorted (Selector::WhereIn enforces it).
      return std::binary_search(cond.operand_set.begin(), cond.operand_set.end(),
                                cell);
  }
  return false;
}

// True if an entry next to `it` carries the same key, i.e. `it` is not the
// key's only entry.
template <typename Set>
bool KeyHasTwin(const Set& entries, typename Set::const_iterator it) {
  return (it != entries.begin() && !(std::prev(it)->first < it->first)) ||
         (std::next(it) != entries.end() && !(it->first < std::next(it)->first));
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {}

int Table::ColumnIndex(std::string_view column) const {
  for (size_t i = 0; i < schema_.columns.size(); ++i) {
    if (schema_.columns[i].name == column) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Table::CreateIndex(std::string_view column) {
  int col = ColumnIndex(column);
  assert(col >= 0);
  BuildIndex(col, /*folded=*/false);
}

void Table::CreateFoldedIndex(std::string_view column) {
  int col = ColumnIndex(column);
  assert(col >= 0);
  BuildIndex(col, /*folded=*/true);
}

void Table::BuildIndex(int column, bool folded) {
  for (const Index& index : indexes_) {
    if (index.column == column && index.folded == folded) {
      return;
    }
  }
  Index& index = indexes_.emplace_back();
  index.column = column;
  index.folded = folded;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) {
      IndexInsert(&index, i);
    }
  }
}

std::vector<IndexDesc> Table::IndexDescs() const {
  std::vector<IndexDesc> out;
  out.reserve(indexes_.size());
  for (const Index& index : indexes_) {
    out.push_back(IndexDesc{index.column, index.folded, index.distinct_keys,
                            index.entries.size()});
  }
  return out;
}

size_t Table::Append(Row row) {
  assert(row.size() == schema_.columns.size());
  slots_.push_back(Slot{std::move(row), /*live=*/true});
  size_t row_index = slots_.size() - 1;
  ++live_count_;
  for (Index& index : indexes_) {
    IndexInsert(&index, row_index);
  }
  Touch(&stats_.appends);
  return row_index;
}

void Table::Update(size_t row_index, int column, Value value) {
  Write(row_index, column, std::move(value));
  Touch(&stats_.updates);
}

void Table::UpdateNoStats(size_t row_index, int column, Value value) {
  Write(row_index, column, std::move(value));
}

void Table::Write(size_t row_index, int column, Value value) {
  assert(IsLive(row_index));
  for (Index& index : indexes_) {
    if (index.column == column) {
      IndexErase(&index, row_index);
    }
  }
  slots_[row_index].row[column] = std::move(value);
  for (Index& index : indexes_) {
    if (index.column == column) {
      IndexInsert(&index, row_index);
    }
  }
}

void Table::Delete(size_t row_index) {
  assert(IsLive(row_index));
  for (Index& index : indexes_) {
    IndexErase(&index, row_index);
  }
  slots_[row_index].live = false;
  slots_[row_index].row.clear();
  --live_count_;
  Touch(&stats_.deletes);
}

std::vector<size_t> Table::Match(const std::vector<Condition>& conditions) const {
  return ExecutePath(PlanAccess(*this, conditions), conditions);
}

std::vector<size_t> Table::Match(const std::vector<Condition>& conditions,
                                 const AccessPath& path) const {
  return ExecutePath(path, conditions);
}

std::vector<size_t> Table::ExecutePath(const AccessPath& path,
                                       const std::vector<Condition>& conditions) const {
  std::vector<size_t> out;
  // planned_away[c] is true when the access path itself already guarantees
  // condition `c`, so the residual pass must not re-evaluate it.  Computed
  // once up front: the per-row loop is the hot path.
  std::vector<bool> planned_away(conditions.size(), false);
  if ((path.kind == AccessPath::Kind::kIndexEq ||
       path.kind == AccessPath::Kind::kIndexIn) &&
      path.skip_cond) {
    planned_away[path.cond_pos] = true;
  } else if (path.kind == AccessPath::Kind::kIndexRange) {
    for (size_t c : path.range_conds) {
      planned_away[c] = true;
    }
  }
  auto satisfies = [&](size_t row_index) {
    ++stats_.rows_examined;
    const Row& row = slots_[row_index].row;
    for (size_t c = 0; c < conditions.size(); ++c) {
      if (planned_away[c]) {
        continue;  // fully satisfied by the index probe or range window
      }
      if (!ConditionHolds(conditions[c], row)) {
        return false;
      }
    }
    return true;
  };
  // Appends the live rows of an index run [it, end) that pass the residual
  // predicates.
  auto collect = [&](auto it, auto end) {
    for (; it != end; ++it) {
      if (slots_[it->second].live && satisfies(it->second)) {
        out.push_back(it->second);
      }
    }
  };
  switch (path.kind) {
    case AccessPath::Kind::kIndexEq: {
      ++stats_.index_hits;
      // One key's run is ordered by row index: already storage order.
      auto [begin, end] = indexes_[path.index_pos].entries.equal_range(path.eq_key);
      collect(begin, end);
      break;
    }
    case AccessPath::Kind::kIndexIn: {
      ++stats_.set_probes;
      const Index& index = indexes_[path.index_pos];
      for (const Value& key : path.in_keys) {
        auto [begin, end] = index.entries.equal_range(key);
        collect(begin, end);
      }
      // Per-key probes arrive key-ordered, not storage-ordered; this is the
      // union's merge step (keys are distinct, so runs are disjoint).
      std::sort(out.begin(), out.end());
      break;
    }
    case AccessPath::Kind::kIndexRange: {
      ++stats_.range_scans;
      const AccessPath::Bound& lo = path.range_lower;
      const AccessPath::Bound& hi = path.range_upper;
      // A contradictory window (lower above upper, or a touching pair with
      // an exclusive end) is empty; skip before deriving iterators, where an
      // inverted pair would walk off the set.
      bool empty = lo.present && hi.present &&
                   (hi.key < lo.key ||
                    (!(lo.key < hi.key) && !(lo.inclusive && hi.inclusive)));
      if (!empty) {
        const auto& entries = indexes_[path.index_pos].entries;
        auto begin = !lo.present    ? entries.begin()
                     : lo.inclusive ? entries.lower_bound(lo.key)
                                    : entries.upper_bound(lo.key);
        auto end = !hi.present    ? entries.end()
                   : hi.inclusive ? entries.upper_bound(hi.key)
                                  : entries.lower_bound(hi.key);
        collect(begin, end);
        // Key order -> storage order.
        std::sort(out.begin(), out.end());
      }
      break;
    }
    case AccessPath::Kind::kIndexPrefix: {
      ++stats_.prefix_scans;
      const auto& entries = indexes_[path.index_pos].entries;
      auto begin = entries.lower_bound(Value(path.lower));
      auto end = path.upper.empty() ? entries.end() : entries.lower_bound(Value(path.upper));
      collect(begin, end);
      std::sort(out.begin(), out.end());
      break;
    }
    case AccessPath::Kind::kFullScan: {
      ++stats_.full_scans;
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].live && satisfies(i)) {
          out.push_back(i);
        }
      }
      break;
    }
  }
  stats_.rows_emitted += static_cast<int64_t>(out.size());
  // THE merge point: every path above — equality run, kIn union, sorted
  // range or prefix run, full scan — must deliver ascending storage order
  // here, so results never depend on the plan.  Downstream consumers
  // (Selector::Rows and the query handlers) rely on this instead of
  // re-sorting.
  assert(std::is_sorted(out.begin(), out.end()));
  return out;
}

void Table::Scan(const std::function<bool(size_t, const Row&)>& visit) const {
  ++stats_.full_scans;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) {
      ++stats_.rows_examined;
      // A raw sweep has no predicate: every visited row reaches the caller,
      // so it counts as emitted too, keeping the examined/emitted selectivity
      // ratio meaningful for scan-heavy callers.
      ++stats_.rows_emitted;
      if (!visit(i, slots_[i].row)) {
        return;
      }
    }
  }
}

void Table::Touch(int64_t* counter) {
  ++*counter;
  stats_.modtime = now_ ? now_() : 0;
}

Value Table::IndexKey(const Index& index, size_t row_index) const {
  const Value& cell = slots_[row_index].row[index.column];
  return index.folded ? FoldCaseKey(cell) : cell;
}

void Table::IndexInsert(Index* index, size_t row_index) {
  auto it = index->entries.emplace(IndexKey(*index, row_index), row_index).first;
  if (!KeyHasTwin(index->entries, it)) {
    ++index->distinct_keys;
  }
}

void Table::IndexErase(Index* index, size_t row_index) {
  auto it = index->entries.find(IndexEntry{IndexKey(*index, row_index), row_index});
  assert(it != index->entries.end());
  if (!KeyHasTwin(index->entries, it)) {
    --index->distinct_keys;
  }
  index->entries.erase(it);
}

}  // namespace moira
