#include "src/db/exec.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "src/common/strutil.h"

namespace moira {
namespace {

// Literal prefix of a wildcard pattern: the characters before the first
// metacharacter.  "mit-*" -> "mit-"; "*x" -> ""; "abc" -> "abc".
std::string_view LiteralPrefix(std::string_view pattern) {
  size_t pos = pattern.find_first_of("*?");
  return pos == std::string_view::npos ? pattern : pattern.substr(0, pos);
}

// Smallest string greater than every string with prefix `prefix`, or "" when
// no such bound exists (prefix is all 0xff): the range is [prefix, upper).
std::string PrefixUpperBound(std::string_view prefix) {
  std::string upper(prefix);
  while (!upper.empty()) {
    unsigned char last = static_cast<unsigned char>(upper.back());
    if (last < 0xff) {
      upper.back() = static_cast<char>(last + 1);
      return upper;
    }
    upper.pop_back();
  }
  return upper;
}

bool IsStringColumn(const Table& table, int column) {
  const auto& cols = table.schema().columns;
  return column >= 0 && static_cast<size_t>(column) < cols.size() &&
         cols[column].type == ColumnType::kString;
}

bool IsRangeOp(Condition::Op op) {
  return op == Condition::Op::kLt || op == Condition::Op::kLe ||
         op == Condition::Op::kGt || op == Condition::Op::kGe ||
         op == Condition::Op::kBetween;
}

// Tightens `bound` with a new candidate endpoint; `is_lower` picks the
// direction.  A lower bound tightens upward, an upper bound downward; on
// equal keys the exclusive endpoint is the tighter one.
void Tighten(AccessPath::Bound* bound, const Value& key, bool inclusive, bool is_lower) {
  if (!bound->present) {
    *bound = AccessPath::Bound{true, inclusive, key};
    return;
  }
  bool tighter = is_lower ? bound->key < key : key < bound->key;
  if (tighter) {
    // A strictly tighter key replaces the old endpoint entirely; the old
    // bound's inclusivity is irrelevant once its key no longer binds.
    *bound = AccessPath::Bound{true, inclusive, key};
  } else if (!(key < bound->key) && !(bound->key < key)) {
    // Equal keys: exclusive wins (x > 5 AND x >= 5 is x > 5).
    bound->inclusive = bound->inclusive && inclusive;
  }
}

// Column positions a Selector resolved by name must exist: a silently
// dropped predicate or join key would return rows the caller asked to
// exclude, so this aborts in every build mode (not just with asserts on).
int MustResolveColumn(const Table* table, std::string_view column, const char* what) {
  int col = table->ColumnIndex(column);
  if (col < 0) {
    std::fprintf(stderr, "moira: Selector::%s: no column '%.*s' in table '%s'\n", what,
                 static_cast<int>(column.size()), column.data(), table->name().c_str());
    std::abort();
  }
  return col;
}

}  // namespace

Value FoldCaseKey(const Value& v) {
  return v.is_string() ? Value(ToLowerCopy(v.AsString())) : v;
}

double EstimateMatchRows(const Table& table, const std::vector<Condition>& conditions) {
  const double live = static_cast<double>(table.LiveCount());
  const AccessPath path = PlanAccess(table, conditions);
  switch (path.kind) {
    case AccessPath::Kind::kIndexEq: {
      const IndexDesc desc = table.IndexDescs()[path.index_pos];
      return desc.distinct_keys > 0
                 ? static_cast<double>(desc.entries) / static_cast<double>(desc.distinct_keys)
                 : 0.0;
    }
    case AccessPath::Kind::kIndexIn: {
      const IndexDesc desc = table.IndexDescs()[path.index_pos];
      const double per_key =
          desc.distinct_keys > 0
              ? static_cast<double>(desc.entries) / static_cast<double>(desc.distinct_keys)
              : 0.0;
      return std::min(live, per_key * static_cast<double>(path.in_keys.size()));
    }
    case AccessPath::Kind::kIndexRange:
      return path.range_lower.present && path.range_upper.present ? live / 4.0 : live / 2.0;
    case AccessPath::Kind::kIndexPrefix:
      return live / 4.0;
    case AccessPath::Kind::kFullScan:
      // Residual predicates discard some rows; how many is unknowable for
      // opaque conditions, so charge a flat factor that still ranks a
      // filtered scan below an unfiltered one.
      return conditions.empty() ? live : live / 2.0;
  }
  return live;
}

AccessPath PlanAccess(const Table& table, const std::vector<Condition>& conditions) {
  const std::vector<IndexDesc> indexes = table.IndexDescs();
  AccessPath path;

  // 1. Equality probes, most selective index first.  An exact index answers
  // kEq outright; a folded index answers kEqNoCase outright and kEq as a
  // superset needing a residual check.  Rank candidates by cardinality
  // (more distinct keys => fewer expected rows per key), preferring a
  // residual-free probe on ties.
  size_t best_keys = 0;
  bool best_skip = false;
  for (size_t c = 0; c < conditions.size(); ++c) {
    const Condition& cond = conditions[c];
    if (cond.op != Condition::Op::kEq && cond.op != Condition::Op::kEqNoCase) {
      continue;
    }
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (indexes[i].column != cond.column) {
        continue;
      }
      bool skip;
      if (cond.op == Condition::Op::kEq) {
        skip = !indexes[i].folded;  // folded probe is a superset of exact
      } else if (indexes[i].folded) {
        skip = true;  // folded keys equal iff strings equal ignoring case
      } else {
        continue;  // exact index cannot answer kEqNoCase
      }
      if (path.kind == AccessPath::Kind::kIndexEq &&
          (indexes[i].distinct_keys < best_keys ||
           (indexes[i].distinct_keys == best_keys && (best_skip || !skip)))) {
        continue;
      }
      path.kind = AccessPath::Kind::kIndexEq;
      path.index_pos = i;
      path.cond_pos = c;
      path.skip_cond = skip;
      path.eq_key = indexes[i].folded ? FoldCaseKey(cond.operand) : cond.operand;
      best_keys = indexes[i].distinct_keys;
      best_skip = skip;
    }
  }
  if (path.kind == AccessPath::Kind::kIndexEq) {
    return path;
  }

  // 1b. Membership sets.  A kIn over an exact index runs as a union of
  // equality probes — one small probe per key — which beats any scan as long
  // as the set is a sliver of the table.  The probes answer the condition
  // exactly, so it runs no residual.  Rank by cardinality like step 1.
  size_t best_in_keys = 0;
  for (size_t c = 0; c < conditions.size(); ++c) {
    const Condition& cond = conditions[c];
    if (cond.op != Condition::Op::kIn) {
      continue;
    }
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (indexes[i].column != cond.column || indexes[i].folded) {
        continue;  // folded keys would need per-key folding + residual; skip
      }
      if (path.kind == AccessPath::Kind::kIndexIn &&
          indexes[i].distinct_keys <= best_in_keys) {
        continue;
      }
      path.kind = AccessPath::Kind::kIndexIn;
      path.index_pos = i;
      path.cond_pos = c;
      path.skip_cond = true;
      path.in_keys = cond.operand_set;  // sorted + deduped (Condition contract)
      best_in_keys = indexes[i].distinct_keys;
    }
  }
  if (path.kind == AccessPath::Kind::kIndexIn) {
    return path;
  }

  // 2. Ordered-range scans.  All range conditions on one indexed column are
  // a single interval (the conjunction of intervals is their intersection),
  // so intersect them into the tightest [lower, upper] window and scan that
  // slice of the index.  The window expresses the absorbed conditions
  // exactly — index keys are the unfolded cell values — so they run no
  // residual check.  Folded indexes are skipped for string columns (their
  // keys are lowercased, which breaks the ordering the operands assume).
  size_t best_range_keys = 0;
  bool best_two_sided = false;
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (indexes[i].folded && IsStringColumn(table, indexes[i].column)) {
      continue;
    }
    AccessPath::Bound lower;
    AccessPath::Bound upper;
    std::vector<size_t> absorbed;
    for (size_t c = 0; c < conditions.size(); ++c) {
      const Condition& cond = conditions[c];
      if (cond.column != indexes[i].column || !IsRangeOp(cond.op)) {
        continue;
      }
      switch (cond.op) {
        case Condition::Op::kLt:
          Tighten(&upper, cond.operand, /*inclusive=*/false, /*is_lower=*/false);
          break;
        case Condition::Op::kLe:
          Tighten(&upper, cond.operand, /*inclusive=*/true, /*is_lower=*/false);
          break;
        case Condition::Op::kGt:
          Tighten(&lower, cond.operand, /*inclusive=*/false, /*is_lower=*/true);
          break;
        case Condition::Op::kGe:
          Tighten(&lower, cond.operand, /*inclusive=*/true, /*is_lower=*/true);
          break;
        case Condition::Op::kBetween:
          Tighten(&lower, cond.operand, /*inclusive=*/true, /*is_lower=*/true);
          Tighten(&upper, cond.operand2, /*inclusive=*/true, /*is_lower=*/false);
          break;
        default:
          break;
      }
      absorbed.push_back(c);
    }
    if (absorbed.empty()) {
      continue;
    }
    bool two_sided = lower.present && upper.present;
    if (path.kind == AccessPath::Kind::kIndexRange &&
        (best_two_sided > two_sided ||
         (best_two_sided == two_sided && indexes[i].distinct_keys <= best_range_keys))) {
      continue;
    }
    path.kind = AccessPath::Kind::kIndexRange;
    path.index_pos = i;
    path.range_lower = std::move(lower);
    path.range_upper = std::move(upper);
    path.range_conds = std::move(absorbed);
    best_range_keys = indexes[i].distinct_keys;
    best_two_sided = two_sided;
  }
  if (path.kind == AccessPath::Kind::kIndexRange) {
    return path;
  }

  // 3. Literal-prefix pruning for wildcard patterns over an ordered index on
  // a string column.  A kWild range needs the index keys unfolded; a
  // kWildNoCase range needs them folded; a folded index can also prune a
  // kWild pattern (superset range).  Prefer the longest prefix.
  size_t best_prefix = 0;
  for (size_t c = 0; c < conditions.size(); ++c) {
    const Condition& cond = conditions[c];
    if (cond.op != Condition::Op::kWild && cond.op != Condition::Op::kWildNoCase) {
      continue;
    }
    if (!cond.operand.is_string() || !IsStringColumn(table, cond.column)) {
      continue;
    }
    std::string_view prefix = LiteralPrefix(cond.operand.AsString());
    if (prefix.empty() || prefix.size() <= best_prefix) {
      continue;
    }
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (indexes[i].column != cond.column) {
        continue;
      }
      if (cond.op == Condition::Op::kWildNoCase && !indexes[i].folded) {
        continue;  // unfolded keys are not ordered case-insensitively
      }
      path.kind = AccessPath::Kind::kIndexPrefix;
      path.index_pos = i;
      path.cond_pos = c;
      path.skip_cond = false;  // the range only prunes; the pattern still runs
      path.lower = indexes[i].folded ? ToLowerCopy(prefix) : std::string(prefix);
      path.upper = PrefixUpperBound(path.lower);
      best_prefix = prefix.size();
      break;
    }
  }
  return path;
}

// --- Selector ---

Selector::Selector(const Table* table) {
  assert(table != nullptr);
  Stage stage;
  stage.table = table;
  stages_.push_back(std::move(stage));
}

Selector& Selector::Where(Condition cond) {
  stages_.back().conds.push_back(std::move(cond));
  return *this;
}

Selector& Selector::Where(std::string_view column, Condition::Op op, Value operand) {
  if (op == Condition::Op::kBetween) {
    // This overload has no second operand; letting kBetween through would
    // quietly build the window [operand, 0].
    std::fprintf(stderr, "moira: Selector::Where: kBetween needs two operands; use WhereBetween\n");
    std::abort();
  }
  int col = MustResolveColumn(stages_.back().table, column, "Where");
  return Where(Condition{col, op, std::move(operand), Value()});
}

Selector& Selector::WhereEq(std::string_view column, Value operand) {
  return Where(column, Condition::Op::kEq, std::move(operand));
}

Selector& Selector::WhereLt(std::string_view column, Value operand) {
  return Where(column, Condition::Op::kLt, std::move(operand));
}

Selector& Selector::WhereLe(std::string_view column, Value operand) {
  return Where(column, Condition::Op::kLe, std::move(operand));
}

Selector& Selector::WhereGt(std::string_view column, Value operand) {
  return Where(column, Condition::Op::kGt, std::move(operand));
}

Selector& Selector::WhereGe(std::string_view column, Value operand) {
  return Where(column, Condition::Op::kGe, std::move(operand));
}

Selector& Selector::WhereBetween(std::string_view column, Value lower, Value upper) {
  int col = MustResolveColumn(stages_.back().table, column, "WhereBetween");
  return Where(Condition{col, Condition::Op::kBetween, std::move(lower), std::move(upper)});
}

Selector& Selector::WhereWild(std::string_view column, std::string_view pattern,
                              bool case_insensitive) {
  Condition::Op op;
  if (HasWildcard(pattern)) {
    op = case_insensitive ? Condition::Op::kWildNoCase : Condition::Op::kWild;
  } else {
    op = case_insensitive ? Condition::Op::kEqNoCase : Condition::Op::kEq;
  }
  return Where(column, op, Value(pattern));
}

Selector& Selector::WhereNe(std::string_view column, Value operand) {
  return Where(column, Condition::Op::kNe, std::move(operand));
}

Selector& Selector::WhereAnyBits(std::string_view column, int64_t mask) {
  return Where(column, Condition::Op::kAnyBits, Value(mask));
}

Selector& Selector::WhereIn(std::string_view column, std::vector<Value> set) {
  int col = MustResolveColumn(stages_.back().table, column, "WhereIn");
  // Sorted + deduplicated is the Condition::kIn contract: evaluation
  // binary-searches the set, and the planner turns it into one index probe
  // per distinct key.
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  Condition cond;
  cond.column = col;
  cond.op = Condition::Op::kIn;
  cond.operand_set = std::move(set);
  return Where(std::move(cond));
}

Selector& Selector::Filter(std::function<bool(const Table&, size_t)> pred) {
  stages_.back().filters.push_back(std::move(pred));
  return *this;
}

Selector& Selector::Join(const Table* other, std::string_view left_col,
                         std::string_view right_col) {
  assert(other != nullptr);
  Stage stage;
  stage.table = other;
  stage.left_col = MustResolveColumn(stages_.back().table, left_col, "Join");
  stage.right_col = MustResolveColumn(other, right_col, "Join");
  stages_.push_back(std::move(stage));
  return *this;
}

Selector& Selector::ForceNaiveJoin() {
  naive_join_ = true;
  return *this;
}

std::vector<size_t> Selector::PlannedJoinOrder() const {
  const size_t n = stages_.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  if (naive_join_ || n < 2) {
    return order;
  }
  std::vector<double> est(n);
  for (size_t i = 0; i < n; ++i) {
    est[i] = EstimateMatchRows(*stages_[i].table, stages_[i].conds);
  }
  // Start from the most selective stage (ties keep the leftmost, so an
  // unambiguous pipeline stays in declared order), then walk the join chain
  // outward, always extending toward the cheaper unbound neighbour.
  size_t start = 0;
  for (size_t i = 1; i < n; ++i) {
    if (est[i] < est[start]) {
      start = i;
    }
  }
  order.clear();
  order.push_back(start);
  size_t lo = start;
  size_t hi = start;
  while (order.size() < n) {
    const bool has_lo = lo > 0;
    const bool has_hi = hi + 1 < n;
    size_t next;
    if (has_lo && has_hi) {
      next = est[lo - 1] <= est[hi + 1] ? lo - 1 : hi + 1;
    } else {
      next = has_lo ? lo - 1 : hi + 1;
    }
    (next < lo ? lo : hi) = next;
    order.push_back(next);
  }
  return order;
}

// Cost-based multi-stage execution: bind stages in planner order, carrying a
// flat tuple buffer (ntuples x nstages row indices); each new stage groups
// the live tuples by join key, probes once per distinct key, and expands the
// buffer with the matches.  Tuples are emitted in the order the naive
// left-to-right nested loop would have produced (lexicographic by per-stage
// row index — every Match reports storage order), so callers cannot observe
// which plan ran.
bool Selector::ExecuteJoin(
    const std::function<bool(const std::vector<size_t>&)>& visit) const {
  const size_t n = stages_.size();
  const std::vector<size_t> order = PlannedJoinOrder();
  if (order[0] != 0) {
    stages_[0].table->NoteJoinReorder();
  }

  std::vector<size_t> tuples;  // flat: tuples[t * n + i] = stage i's row in tuple t
  {
    const Stage& first = stages_[order[0]];
    for (size_t row : first.table->Match(first.conds)) {
      if (!PassesFilters(first, row)) {
        continue;
      }
      tuples.resize(tuples.size() + n, 0);
      tuples[tuples.size() - n + order[0]] = row;
    }
  }

  std::vector<bool> bound(n, false);
  bound[order[0]] = true;
  std::vector<size_t> next_tuples;
  std::vector<size_t> tuple_order;
  for (size_t k = 1; k < n && !tuples.empty(); ++k) {
    const size_t t = order[k];
    // The already-bound neighbour supplies the join key.  Binding t after
    // t-1 is the declared (forward) direction; binding it after t+1 runs the
    // same equality edge in reverse.
    size_t outer;
    int outer_col;
    int inner_col;
    if (t > 0 && bound[t - 1]) {
      outer = t - 1;
      outer_col = stages_[t].left_col;
      inner_col = stages_[t].right_col;
    } else {
      outer = t + 1;
      outer_col = stages_[t + 1].right_col;
      inner_col = stages_[t + 1].left_col;
    }
    bound[t] = true;
    const Stage& stage = stages_[t];
    const Table* outer_table = stages_[outer].table;

    // Stage-invariant hoisting: the condition list (with one slot reserved
    // for the join key) and the access plan are built once per stage; each
    // distinct key only overwrites the operand (and the plan's probe key).
    std::vector<Condition> conds = stage.conds;
    conds.push_back(Condition{inner_col, Condition::Op::kEq, Value(), Value()});
    const size_t key_slot = conds.size() - 1;

    const size_t ntuples = tuples.size() / n;
    auto key_of = [&](size_t ti) -> const Value& {
      return outer_table->Cell(tuples[ti * n + outer], outer_col);
    };
    // Sort/group the outer tuples by join key so duplicates probe once.
    tuple_order.resize(ntuples);
    std::iota(tuple_order.begin(), tuple_order.end(), size_t{0});
    std::sort(tuple_order.begin(), tuple_order.end(),
              [&](size_t a, size_t b) { return key_of(a) < key_of(b); });

    // Walk the sorted tuples one distinct key at a time: one probe per key,
    // with the duplicates of that key served from its result (counted as
    // probe_cache_hits, the batched distinct-key cache).  The plan is made
    // for the first key and reused for the rest: PlanAccess ranks candidates
    // by index statistics and ops alone, never by operand value.
    AccessPath plan;
    bool plan_probes_key = false;
    bool plan_key_folded = false;
    std::vector<size_t> matches;
    next_tuples.clear();
    for (size_t i = 0; i < ntuples;) {
      const Value& key = key_of(tuple_order[i]);
      size_t j = i + 1;
      while (j < ntuples) {
        const Value& next = key_of(tuple_order[j]);
        if (key < next || next < key) {
          break;
        }
        ++j;
      }
      conds[key_slot].operand = key;
      if (i == 0) {
        plan = PlanAccess(*stage.table, conds);
        plan_probes_key =
            plan.kind == AccessPath::Kind::kIndexEq && plan.cond_pos == key_slot;
        if (plan_probes_key) {
          plan_key_folded = stage.table->IndexDescs()[plan.index_pos].folded;
        }
      } else if (plan_probes_key) {
        plan.eq_key = plan_key_folded ? FoldCaseKey(key) : key;
      }
      matches.clear();
      for (size_t row : stage.table->Match(conds, plan)) {
        if (PassesFilters(stage, row)) {
          matches.push_back(row);
        }
      }
      if (j - i > 1) {
        stage.table->NoteProbeCacheHits(static_cast<int64_t>(j - i - 1));
      }
      for (; i < j; ++i) {
        const size_t ti = tuple_order[i];
        for (size_t row : matches) {
          next_tuples.insert(next_tuples.end(), tuples.begin() + ti * n,
                             tuples.begin() + (ti + 1) * n);
          next_tuples[next_tuples.size() - n + t] = row;
        }
      }
    }
    tuples.swap(next_tuples);
  }

  const size_t ntuples = tuples.size() / n;
  std::vector<size_t> emit_order(ntuples);
  std::iota(emit_order.begin(), emit_order.end(), size_t{0});
  std::sort(emit_order.begin(), emit_order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(tuples.begin() + a * n, tuples.begin() + (a + 1) * n,
                                        tuples.begin() + b * n, tuples.begin() + (b + 1) * n);
  });
  std::vector<size_t> rows(n);
  for (size_t ti : emit_order) {
    std::copy(tuples.begin() + ti * n, tuples.begin() + (ti + 1) * n, rows.begin());
    if (!visit(rows)) {
      return false;
    }
  }
  return true;
}

bool Selector::PassesFilters(const Stage& stage, size_t row) const {
  for (const auto& pred : stage.filters) {
    if (!pred(*stage.table, row)) {
      return false;
    }
  }
  return true;
}

bool Selector::RunStage(size_t stage_pos, std::vector<size_t>* rows,
                        const std::function<bool(const std::vector<size_t>&)>& visit) const {
  const Stage& stage = stages_[stage_pos];
  std::vector<Condition> conds = stage.conds;
  if (stage_pos > 0) {
    const Stage& prev_stage = stages_[stage_pos - 1];
    const Value& key = prev_stage.table->Cell((*rows)[stage_pos - 1], stage.left_col);
    conds.push_back(Condition{stage.right_col, Condition::Op::kEq, key, Value()});
  }
  for (size_t row : stage.table->Match(conds)) {
    if (!PassesFilters(stage, row)) {
      continue;
    }
    (*rows)[stage_pos] = row;
    if (stage_pos + 1 < stages_.size()) {
      if (!RunStage(stage_pos + 1, rows, visit)) {
        return false;
      }
    } else if (!visit(*rows)) {
      return false;
    }
  }
  return true;
}

void Selector::ForEach(const std::function<bool(const std::vector<size_t>&)>& visit) const {
  // Single-stage pipelines keep the lazy per-row loop (Any/One on one table
  // must not materialize); joins go through the cost-based executor unless
  // the caller pinned the naive order.
  if (stages_.size() == 1 || naive_join_) {
    std::vector<size_t> rows(stages_.size(), 0);
    RunStage(0, &rows, visit);
    return;
  }
  ExecuteJoin(visit);
}

void Selector::Emit(const std::function<void(const std::vector<size_t>&)>& visit) const {
  ForEach([&](const std::vector<size_t>& rows) {
    visit(rows);
    return true;
  });
}

std::vector<size_t> Selector::Rows() const {
  std::vector<size_t> out;
  ForEach([&](const std::vector<size_t>& rows) {
    out.push_back(rows[0]);
    return true;
  });
  if (stages_.size() == 1) {
    // Single stage: Match's merge point already guarantees ascending, unique
    // storage order (every access path merges there), so re-sorting would
    // only hide a breach of that contract.  Assert instead.
    assert(std::is_sorted(out.begin(), out.end()));
    assert(std::adjacent_find(out.begin(), out.end()) == out.end());
    return out;
  }
  // Joined pipelines may revisit base rows in any pattern (a reordered join
  // does not emit base rows adjacently), so sort + dedup to storage order.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<size_t> Selector::One() const {
  std::optional<size_t> found;
  bool unique = true;
  ForEach([&](const std::vector<size_t>& rows) {
    if (found.has_value() && *found != rows[0]) {
      unique = false;
      return false;
    }
    found = rows[0];
    return true;
  });
  return unique ? found : std::nullopt;
}

size_t Selector::Count() const {
  size_t n = 0;
  ForEach([&](const std::vector<size_t>&) {
    ++n;
    return true;
  });
  return n;
}

bool Selector::Any() const {
  bool any = false;
  ForEach([&](const std::vector<size_t>&) {
    any = true;
    return false;
  });
  return any;
}

Selector From(const Table* table) { return Selector(table); }
Selector From(const Table& table) { return Selector(&table); }

}  // namespace moira
