#include "src/core/context.h"

#include <cassert>
#include <set>

#include "src/common/strutil.h"
#include "src/db/exec.h"

namespace moira {

RowRef MoiraContext::ExactOne(Table* table, const char* column, const Value& key,
                              int32_t missing_code) const {
  std::vector<size_t> rows = From(table).WhereEq(column, key).Rows();
  if (rows.empty()) {
    return RowRef{missing_code, 0};
  }
  if (rows.size() > 1) {
    return RowRef{MR_NOT_UNIQUE, 0};
  }
  return RowRef{MR_SUCCESS, rows[0]};
}

RowRef MoiraContext::UserByLogin(std::string_view login) {
  return ExactOne(users(), "login", Value(login), MR_USER);
}

RowRef MoiraContext::UserByUid(int64_t uid) {
  return ExactOne(users(), "uid", Value(uid), MR_USER);
}

RowRef MoiraContext::MachineByName(std::string_view name) {
  return ExactOne(machine(), "name", Value(CanonicalizeHostname(name)), MR_MACHINE);
}

RowRef MoiraContext::ClusterByName(std::string_view name) {
  return ExactOne(cluster(), "name", Value(name), MR_CLUSTER);
}

RowRef MoiraContext::ListByName(std::string_view name) {
  return ExactOne(list(), "name", Value(name), MR_LIST);
}

RowRef MoiraContext::ListById(int64_t list_id) {
  return ExactOne(list(), "list_id", Value(list_id), MR_LIST);
}

RowRef MoiraContext::FilesysByLabel(std::string_view label) {
  return ExactOne(filesys(), "label", Value(label), MR_FILESYS);
}

RowRef MoiraContext::ServiceByName(std::string_view name) {
  return ExactOne(servers(), "name", Value(ToUpperCopy(name)), MR_SERVICE);
}

int32_t MoiraContext::AllocateId(const char* counter, Table* unique_in, const char* column,
                                 int64_t* out) {
  int64_t hint = 0;
  if (GetValue(counter, &hint) != MR_SUCCESS) {
    return MR_NO_ID;
  }
  // The hint is the next id to try; advance past collisions (ids may have
  // been assigned explicitly).
  constexpr int kMaxProbes = 1 << 20;
  for (int probe = 0; probe < kMaxProbes; ++probe) {
    int64_t candidate = hint + probe;
    if (!From(unique_in).WhereEq(column, Value(candidate)).Any()) {
      SetValue(counter, candidate + 1);
      *out = candidate;
      return MR_SUCCESS;
    }
  }
  return MR_NO_ID;
}

int32_t MoiraContext::GetValue(std::string_view name, int64_t* out) const {
  const Table* table = db_->GetTable(kValuesTable);
  RowRef ref = ExactOne(const_cast<Table*>(table), "name", Value(name), MR_NO_MATCH);
  if (ref.code != MR_SUCCESS) {
    return ref.code;
  }
  *out = IntCell(table, ref.row, "value");
  return MR_SUCCESS;
}

int32_t MoiraContext::SetValue(std::string_view name, int64_t value) {
  Table* table = values();
  RowRef ref = ExactOne(table, "name", Value(name), MR_NO_MATCH);
  if (ref.code != MR_SUCCESS) {
    return ref.code;
  }
  SetCell(table, ref.row, "value", Value(value));
  return MR_SUCCESS;
}

int64_t MoiraContext::InternString(std::string_view s) {
  if (std::optional<int64_t> existing = LookupString(s); existing.has_value()) {
    return *existing;
  }
  int64_t id = 0;
  if (AllocateId("string_id", strings(), "string_id", &id) != MR_SUCCESS) {
    return -1;
  }
  strings()->Append({id, Value(s)});
  return id;
}

std::optional<int64_t> MoiraContext::LookupString(std::string_view s) const {
  const Table* table = db_->GetTable(kStringsTable);
  std::optional<size_t> row = From(table).WhereEq("string", Value(s)).One();
  if (!row.has_value()) {
    return std::nullopt;
  }
  return IntCell(table, *row, "string_id");
}

std::string MoiraContext::StringById(int64_t string_id) const {
  const Table* table = db_->GetTable(kStringsTable);
  std::optional<size_t> row = From(table).WhereEq("string_id", Value(string_id)).One();
  return row.has_value() ? StrCell(table, *row, "string") : std::string();
}

bool MoiraContext::IsLegalType(std::string_view type_name, std::string_view value) const {
  return From(db_->GetTable(kAliasTable))
      .WhereEq("name", Value(type_name))
      .WhereEq("type", Value("TYPE"))
      .WhereEq("trans", Value(value))
      .Any();
}

int64_t MoiraContext::MembersVersion() const {
  const TableStats& s = db_->GetTable(kMembersTable)->stats();
  return s.appends + s.updates + s.deletes;
}

const std::vector<int64_t>& MoiraContext::ContainingListClosure(std::string_view type,
                                                                int64_t id) {
  const int64_t version = MembersVersion();
  if (version != closure_version_) {
    if (!closures_.empty()) {
      ++closure_stats_.invalidations;
      closures_.clear();
    }
    closure_version_ = version;
  }
  auto key = std::make_pair(std::string(type), id);
  if (auto it = closures_.find(key); it != closures_.end()) {
    ++closure_stats_.hits;
    return it->second;
  }
  ++closure_stats_.misses;
  // Fixed point over the members relation: probe the containing lists of
  // every newly discovered list (indexed member_id lookups, not sweeps).
  Table* members_table = members();
  int list_col = members_table->ColumnIndex("list_id");
  std::set<int64_t> closure;
  std::vector<int64_t> fresh;
  auto containing_lists = [&](std::string_view member_type, int64_t member_id) {
    From(members_table)
        .WhereEq("member_type", Value(member_type))
        .WhereEq("member_id", Value(member_id))
        .Emit([&](const std::vector<size_t>& rows) {
          int64_t parent = members_table->Cell(rows[0], list_col).AsInt();
          if (closure.insert(parent).second) {
            fresh.push_back(parent);
          }
        });
  };
  containing_lists(type, id);
  while (!fresh.empty()) {
    int64_t next = fresh.back();
    fresh.pop_back();
    containing_lists("LIST", next);
  }
  return closures_
      .emplace(std::move(key), std::vector<int64_t>(closure.begin(), closure.end()))
      .first->second;
}

int32_t MoiraContext::ResolveAce(std::string_view ace_type, std::string_view ace_name,
                                 int64_t* ace_id) {
  if (ace_type == "NONE") {
    *ace_id = 0;
    return MR_SUCCESS;
  }
  if (ace_type == "USER") {
    RowRef ref = UserByLogin(ace_name);
    if (ref.code != MR_SUCCESS) {
      return MR_ACE;
    }
    *ace_id = IntCell(users(), ref.row, "users_id");
    return MR_SUCCESS;
  }
  if (ace_type == "LIST") {
    RowRef ref = ListByName(ace_name);
    if (ref.code != MR_SUCCESS) {
      return MR_ACE;
    }
    *ace_id = IntCell(list(), ref.row, "list_id");
    return MR_SUCCESS;
  }
  return MR_ACE;
}

std::string MoiraContext::AceName(std::string_view ace_type, int64_t ace_id) {
  if (ace_type == "USER") {
    RowRef ref = ExactOne(users(), "users_id", Value(ace_id), MR_USER);
    return ref.code == MR_SUCCESS ? StrCell(users(), ref.row, "login") : "???";
  }
  if (ace_type == "LIST") {
    RowRef ref = ListById(ace_id);
    return ref.code == MR_SUCCESS ? StrCell(list(), ref.row, "name") : "???";
  }
  return "NONE";
}

void MoiraContext::Stamp(Table* table, size_t row, std::string_view who,
                         std::string_view with, const char* prefix) {
  std::string p(prefix);
  SetCell(table, row, (p + "modtime").c_str(), Value(Now()));
  SetCell(table, row, (p + "modby").c_str(), Value(who));
  SetCell(table, row, (p + "modwith").c_str(), Value(with));
}

int64_t MoiraContext::IntCell(const Table* table, size_t row, const char* column) {
  int col = table->ColumnIndex(column);
  assert(col >= 0);
  return table->Cell(row, col).AsInt();
}

const std::string& MoiraContext::StrCell(const Table* table, size_t row, const char* column) {
  int col = table->ColumnIndex(column);
  assert(col >= 0);
  return table->Cell(row, col).AsString();
}

void MoiraContext::SetCell(Table* table, size_t row, const char* column, Value v) {
  int col = table->ColumnIndex(column);
  assert(col >= 0);
  table->Update(row, col, std::move(v));
}

void MoiraContext::SetCellInternal(Table* table, size_t row, const char* column, Value v) {
  int col = table->ColumnIndex(column);
  assert(col >= 0);
  table->UpdateNoStats(row, col, std::move(v));
}

}  // namespace moira
