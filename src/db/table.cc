#include "src/db/table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/common/strutil.h"
#include "src/db/exec.h"

namespace moira {
namespace {

bool ConditionHolds(const Condition& cond, const Value* row) {
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

constexpr size_t kBlockEntries = 256;
// A block's buffer grows by at most this many entries at a time, so it stays
// within kBlockSlack entries of the block's size instead of up to doubling it.
constexpr size_t kBlockSlack = 32;
constexpr size_t kPrefixBytes = 16;
constexpr uint8_t kIntTag = 0;
constexpr uint8_t kLongTag = 1 + kPrefixBytes + 1;  // a string longer than the prefix

// FoldCaseKey's fold of one byte, as the unsigned byte that orders it.
unsigned char FoldByte(unsigned char c) {
  return static_cast<unsigned char>(FoldLower(static_cast<char>(c)));
}

uint64_t LoadBigEndian(const unsigned char* bytes) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | bytes[i];
  }
  return v;
}

// Three-way byte comparison of two keys past their prefixes, folding each
// side whose flag is set; a proper prefix sorts first.
int CompareTails(std::string_view a, bool fold_a, std::string_view b, bool fold_b) {
  if (!fold_a && !fold_b) {
    const int c = a.compare(b);
    return (c > 0) - (c < 0);
  }
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    unsigned char x = static_cast<unsigned char>(a[i]);
    unsigned char y = static_cast<unsigned char>(b[i]);
    x = fold_a ? FoldByte(x) : x;
    y = fold_b ? FoldByte(y) : y;
    if (x != y) {
      return x < y ? -1 : 1;
    }
  }
  return (a.size() > b.size()) - (a.size() < b.size());
}

}  // namespace

Table::Table(TableSchema schema)
    : schema_(std::move(schema)),
      width_(schema_.columns.size()),
      page_rows_(std::max<size_t>(1, kPageBytes / (sizeof(Value) * std::max<size_t>(1, width_)))) {}

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
  for (const IndexDesc& desc : descs_) {
    if (desc.column == column && desc.folded == folded) {
      return;
    }
  }
  descs_.push_back(IndexDesc{column, folded});
  indexes_.emplace_back();
  ForEachLive([&](size_t row, const Value*) {
    IndexInsert(indexes_.size() - 1, row);
    return true;
  });
}

size_t Table::Append(std::vector<Value> row) {
  if (row.size() != width_) {
    // A page slot holds exactly width_ cells.
    std::fprintf(stderr, "moira: table '%s' takes rows of %zu cells, not %zu\n",
                 name().c_str(), width_, row.size());
    std::abort();
  }
  const size_t row_index = live_.size();
  if (row_index >= std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr, "moira: table '%s' is full: index entries hold 32-bit row numbers\n",
                 name().c_str());
    std::abort();
  }
  if (row_index % page_rows_ == 0) {
    pages_.push_back(std::make_unique<Value[]>(page_rows_ * width_));
  }
  std::move(row.begin(), row.end(), RowCells(row_index));
  live_.push_back(1);
  ++live_count_;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    IndexInsert(i, row_index);
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
  for (size_t i = 0; i < descs_.size(); ++i) {
    if (descs_[i].column == column) {
      IndexErase(i, row_index);
    }
  }
  RowCells(row_index)[column] = std::move(value);
  for (size_t i = 0; i < descs_.size(); ++i) {
    if (descs_[i].column == column) {
      IndexInsert(i, row_index);
    }
  }
}

void Table::Delete(size_t row_index) {
  assert(IsLive(row_index));
  for (size_t i = 0; i < indexes_.size(); ++i) {
    IndexErase(i, row_index);
  }
  live_[row_index] = 0;
  Value* cells = RowCells(row_index);
  std::fill(cells, cells + width_, Value());
  --live_count_;
  Touch(&stats_.deletes);
}

void Table::Clear() {
  if (live_count_ > 0) {
    stats_.deletes += static_cast<int64_t>(live_count_);
    stats_.modtime = now_ ? now_() : 0;
  }
  pages_.clear();  // frees every cell, and so every heap string
  live_ = std::vector<uint8_t>();
  live_count_ = 0;
  for (Index& index : indexes_) {
    index = Index{};
  }
  for (IndexDesc& desc : descs_) {
    desc.distinct_keys = 0;
    desc.entries = 0;
  }
}

std::vector<size_t> Table::Match(const std::vector<Condition>& conditions) const {
  const AccessPath path = PlanAccess(*this, conditions);
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
  auto satisfies = [&](const Value* row) {
    ++stats_.rows_examined;
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
  // Appends the live rows of the entries [begin, end) of an index that pass
  // the residual predicates.
  auto collect = [&](const Index& index, IndexPos begin, IndexPos end) {
    for (size_t b = begin.block; b < index.blocks.size() && b <= end.block; ++b) {
      const std::vector<IndexEntry>& block = index.blocks[b];
      const size_t last = b == end.block ? end.entry : block.size();
      for (size_t e = b == begin.block ? begin.entry : 0; e < last; ++e) {
        const size_t row = block[e].row;
        if (live_[row] != 0 && satisfies(RowCells(row))) {
          out.push_back(row);
        }
      }
    }
  };
  switch (path.kind) {
    case AccessPath::Kind::kIndexEq: {
      ++stats_.index_hits;
      // One key's run is ordered by row index: already storage order.
      collect(indexes_[path.index_pos], LowerBound(path.index_pos, path.eq_key),
              UpperBound(path.index_pos, path.eq_key));
      break;
    }
    case AccessPath::Kind::kIndexIn: {
      ++stats_.set_probes;
      const Index& index = indexes_[path.index_pos];
      for (const Value& key : path.in_keys) {
        collect(index, LowerBound(path.index_pos, key), UpperBound(path.index_pos, key));
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
      // an exclusive end) is empty; skip before seeking its ends.
      bool empty = lo.present && hi.present &&
                   (hi.key < lo.key ||
                    (!(lo.key < hi.key) && !(lo.inclusive && hi.inclusive)));
      if (!empty) {
        const Index& index = indexes_[path.index_pos];
        const IndexPos index_end{index.blocks.size(), 0};
        IndexPos begin = !lo.present    ? IndexPos{}
                         : lo.inclusive ? LowerBound(path.index_pos, lo.key)
                                        : UpperBound(path.index_pos, lo.key);
        IndexPos end = !hi.present    ? index_end
                       : hi.inclusive ? UpperBound(path.index_pos, hi.key)
                                      : LowerBound(path.index_pos, hi.key);
        collect(index, begin, end);
        // Key order -> storage order.
        std::sort(out.begin(), out.end());
      }
      break;
    }
    case AccessPath::Kind::kIndexPrefix: {
      ++stats_.prefix_scans;
      const Index& index = indexes_[path.index_pos];
      // The pattern also runs on an int cell's decimal rendering, so the int
      // keys, which sort before every string, are visited too.
      collect(index, IndexPos{}, LowerBound(path.index_pos, Value("")));
      IndexPos begin = LowerBound(path.index_pos, Value(path.lower));
      IndexPos end = path.upper.empty() ? IndexPos{index.blocks.size(), 0}
                                        : LowerBound(path.index_pos, Value(path.upper));
      collect(index, begin, end);
      std::sort(out.begin(), out.end());
      break;
    }
    case AccessPath::Kind::kFullScan: {
      ++stats_.full_scans;
      ForEachLive([&](size_t row, const Value* cells) {
        if (satisfies(cells)) {
          out.push_back(row);
        }
        return true;
      });
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
  ForEachLive([&](size_t row, const Value* cells) {
    ++stats_.rows_examined;
    // A raw sweep has no predicate: every visited row reaches the caller, so
    // it counts as emitted too, keeping the examined/emitted selectivity
    // ratio meaningful for scan-heavy callers.
    ++stats_.rows_emitted;
    return visit(row, Row(cells, width_));
  });
}

void Table::Touch(int64_t* counter) {
  ++*counter;
  stats_.modtime = now_ ? now_() : 0;
}

int Table::IndexEntry::ComparePrefix(const IndexEntry& other) const {
  if ((tag == kIntTag) != (other.tag == kIntTag)) {
    return tag == kIntTag ? -1 : 1;  // ints before strings, as in Value
  }
  if (hi != other.hi) {
    return hi < other.hi ? -1 : 1;
  }
  if (lo != other.lo) {
    return lo < other.lo ? -1 : 1;
  }
  return (tag > other.tag) - (tag < other.tag);
}

Table::IndexEntry Table::EncodeKey(const Value& key, bool fold) {
  static_assert(sizeof(IndexEntry) == 24, "an index entry is 24 bytes");
  IndexEntry entry;
  if (key.is_int()) {
    entry.hi = static_cast<uint64_t>(key.AsInt()) ^ (uint64_t{1} << 63);
    entry.tag = kIntTag;
    return entry;
  }
  const std::string_view s = key.AsString();
  unsigned char prefix[kPrefixBytes] = {};
  const size_t n = std::min(s.size(), kPrefixBytes);
  for (size_t i = 0; i < n; ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    prefix[i] = fold ? FoldByte(c) : c;
  }
  entry.hi = LoadBigEndian(prefix);
  entry.lo = LoadBigEndian(prefix + 8);
  entry.tag = static_cast<uint8_t>(1 + std::min(s.size(), kPrefixBytes + 1));
  return entry;
}

int Table::CompareKeys(const IndexDesc& desc, const IndexEntry& a, const IndexEntry& b) const {
  const int c = a.ComparePrefix(b);
  if (c != 0 || a.tag != kLongTag) {
    return c;
  }
  auto tail = [&](const IndexEntry& e) {
    return Cell(e.row, desc.column).AsString().substr(kPrefixBytes);
  };
  return CompareTails(tail(a), desc.folded, tail(b), desc.folded);
}

int Table::CompareToProbe(const IndexDesc& desc, const IndexEntry& a, const IndexEntry& probe,
                          const Value& key) const {
  const int c = a.ComparePrefix(probe);
  if (c != 0 || a.tag != kLongTag) {
    return c;
  }
  return CompareTails(Cell(a.row, desc.column).AsString().substr(kPrefixBytes), desc.folded,
                      key.AsString().substr(kPrefixBytes), /*fold_b=*/false);
}

int Table::CompareEntries(const IndexDesc& desc, const IndexEntry& a,
                          const IndexEntry& b) const {
  const int c = CompareKeys(desc, a, b);
  return c != 0 ? c : (a.row > b.row) - (a.row < b.row);
}

template <typename Before>
Table::IndexPos Table::Seek(const Index& index, Before before) {
  const size_t b = static_cast<size_t>(
      std::partition_point(index.fences.begin(), index.fences.end(), before) -
      index.fences.begin());
  if (b == index.blocks.size()) {
    return IndexPos{b, 0};
  }
  // The fence, block b's last entry, fails `before`, so the point is inside.
  const std::vector<IndexEntry>& block = index.blocks[b];
  return IndexPos{b, static_cast<size_t>(
                         std::partition_point(block.begin(), block.end(), before) -
                         block.begin())};
}

Table::IndexPos Table::LowerBound(size_t index_pos, const Value& key) const {
  const IndexDesc& desc = descs_[index_pos];
  const IndexEntry probe = EncodeKey(key, /*fold=*/false);
  return Seek(indexes_[index_pos], [&](const IndexEntry& e) {
    return CompareToProbe(desc, e, probe, key) < 0;
  });
}

Table::IndexPos Table::UpperBound(size_t index_pos, const Value& key) const {
  const IndexDesc& desc = descs_[index_pos];
  const IndexEntry probe = EncodeKey(key, /*fold=*/false);
  return Seek(indexes_[index_pos], [&](const IndexEntry& e) {
    return CompareToProbe(desc, e, probe, key) <= 0;
  });
}

void Table::InsertIntoBlock(std::vector<IndexEntry>* block, size_t at, const IndexEntry& entry) {
  if (block->size() == block->capacity()) {
    block->reserve(std::min(kBlockEntries, block->size() + kBlockSlack));
  }
  block->insert(block->begin() + static_cast<ptrdiff_t>(at), entry);
}

void Table::IndexInsert(size_t index_pos, size_t row_index) {
  Index& index = indexes_[index_pos];
  IndexDesc& desc = descs_[index_pos];
  std::vector<std::vector<IndexEntry>>& blocks = index.blocks;
  IndexEntry entry = EncodeKey(Cell(row_index, desc.column), desc.folded);
  entry.row = static_cast<uint32_t>(row_index);
  const IndexPos pos = Seek(index, [&](const IndexEntry& e) {
    return CompareEntries(desc, e, entry) < 0;
  });

  // The key is new unless an entry beside its place carries it.
  const IndexEntry* prev = pos.entry > 0   ? &blocks[pos.block][pos.entry - 1]
                           : pos.block > 0 ? &index.fences[pos.block - 1]
                                           : nullptr;
  const IndexEntry* next = pos.block < blocks.size() ? &blocks[pos.block][pos.entry] : nullptr;
  if ((prev == nullptr || CompareKeys(desc, *prev, entry) != 0) &&
      (next == nullptr || CompareKeys(desc, *next, entry) != 0)) {
    ++desc.distinct_keys;
  }
  ++desc.entries;

  if (pos.entry == 0) {
    // Between blocks pos.block - 1 and pos.block, either of which may not
    // exist: the earlier one with room takes it at its end, else the later
    // one at its front, else a new block.
    if (pos.block > 0 && blocks[pos.block - 1].size() < kBlockEntries) {
      InsertIntoBlock(&blocks[pos.block - 1], blocks[pos.block - 1].size(), entry);
      index.fences[pos.block - 1] = entry;
    } else if (pos.block < blocks.size() && blocks[pos.block].size() < kBlockEntries) {
      InsertIntoBlock(&blocks[pos.block], 0, entry);
    } else {
      blocks.insert(blocks.begin() + static_cast<ptrdiff_t>(pos.block),
                    std::vector<IndexEntry>{entry});
      index.fences.insert(index.fences.begin() + static_cast<ptrdiff_t>(pos.block), entry);
    }
    return;
  }
  // Inside a block, so its fence stays; a full block halves first, into two
  // buffers of 128 (a half left behind by a run growing inside the index
  // would otherwise keep all 256 slots).
  size_t b = pos.block;
  size_t at = pos.entry;
  if (blocks[b].size() == kBlockEntries) {
    constexpr size_t kHalf = kBlockEntries / 2;
    std::vector<IndexEntry> upper(blocks[b].begin() + kHalf, blocks[b].end());
    blocks[b].resize(kHalf);
    blocks[b].shrink_to_fit();
    index.fences.insert(index.fences.begin() + static_cast<ptrdiff_t>(b), blocks[b].back());
    blocks.insert(blocks.begin() + static_cast<ptrdiff_t>(b + 1), std::move(upper));
    if (at >= kHalf) {
      ++b;
      at -= kHalf;
    }
  }
  InsertIntoBlock(&blocks[b], at, entry);
}

void Table::IndexErase(size_t index_pos, size_t row_index) {
  Index& index = indexes_[index_pos];
  IndexDesc& desc = descs_[index_pos];
  std::vector<std::vector<IndexEntry>>& blocks = index.blocks;
  IndexEntry entry = EncodeKey(Cell(row_index, desc.column), desc.folded);
  entry.row = static_cast<uint32_t>(row_index);
  const IndexPos pos = Seek(index, [&](const IndexEntry& e) {
    return CompareEntries(desc, e, entry) < 0;
  });
  assert(pos.block < blocks.size() && blocks[pos.block][pos.entry].row == row_index);
  std::vector<IndexEntry>& block = blocks[pos.block];

  // The key goes unless an entry beside this one carries it too.
  const IndexEntry* prev = pos.entry > 0   ? &block[pos.entry - 1]
                           : pos.block > 0 ? &index.fences[pos.block - 1]
                                           : nullptr;
  const IndexEntry* next = pos.entry + 1 < block.size()      ? &block[pos.entry + 1]
                           : pos.block + 1 < blocks.size() ? &blocks[pos.block + 1].front()
                                                             : nullptr;
  if ((prev == nullptr || CompareKeys(desc, *prev, entry) != 0) &&
      (next == nullptr || CompareKeys(desc, *next, entry) != 0)) {
    --desc.distinct_keys;
  }
  --desc.entries;

  block.erase(block.begin() + static_cast<ptrdiff_t>(pos.entry));
  if (block.empty()) {
    blocks.erase(blocks.begin() + static_cast<ptrdiff_t>(pos.block));
    index.fences.erase(index.fences.begin() + static_cast<ptrdiff_t>(pos.block));
  } else if (pos.entry == block.size()) {
    index.fences[pos.block] = block.back();
  }
}

}  // namespace moira
