#include "src/backup/backup.h"

#include <fstream>

#include "src/common/strutil.h"
#include "src/core/registry.h"
#include "src/server/journal.h"

namespace moira {

std::string BackupManager::RowToLine(const Row& row) {
  std::string line;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) {
      line += ':';
    }
    line += JournalEscape(row[i].ToString());
  }
  line += '\n';
  return line;
}

bool BackupManager::LineToRow(const std::string& line, const TableSchema& schema,
                              std::vector<Value>* row) {
  std::string_view view(line);
  while (!view.empty() && (view.back() == '\n' || view.back() == '\r')) {
    view.remove_suffix(1);
  }
  std::vector<std::string> fields = SplitEscaped(view);
  if (fields.size() != schema.columns.size()) {
    return false;
  }
  row->clear();
  row->reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    if (schema.columns[i].type == ColumnType::kInt) {
      std::optional<int64_t> v = ParseInt(fields[i]);
      if (!v.has_value()) {
        return false;
      }
      row->emplace_back(*v);
    } else {
      row->emplace_back(std::move(fields[i]));
    }
  }
  return true;
}

int64_t BackupManager::Dump(const Database& db, const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return -1;
  }
  int64_t total = 0;
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.GetTable(name);
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    if (!out) {
      return -1;
    }
    table->Scan([&](size_t, const Row& row) {
      std::string line = RowToLine(row);
      out << line;
      total += static_cast<int64_t>(line.size());
      return true;
    });
  }
  return total;
}

int32_t BackupManager::Restore(Database* db, const std::filesystem::path& dir) {
  for (const std::string& name : db->TableNames()) {
    Table* table = db->GetTable(name);
    if (table->LiveCount() != 0) {
      return MR_INTERNAL;  // restore requires an initialized empty database
    }
    std::ifstream in(dir / name, std::ios::binary);
    if (!in) {
      continue;  // a missing file restores as an empty relation
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      std::vector<Value> row;
      if (!LineToRow(line, table->schema(), &row)) {
        return MR_INTERNAL;
      }
      table->Append(std::move(row));
    }
  }
  return MR_SUCCESS;
}

int64_t BackupManager::RotateAndDump(const Database& db,
                                     const std::filesystem::path& root) {
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  std::filesystem::remove_all(root / "backup_3", ec);
  if (std::filesystem::exists(root / "backup_2")) {
    std::filesystem::rename(root / "backup_2", root / "backup_3", ec);
  }
  if (std::filesystem::exists(root / "backup_1")) {
    std::filesystem::rename(root / "backup_1", root / "backup_2", ec);
  }
  return Dump(db, root / "backup_1");
}

int32_t BackupManager::ReplayEntry(MoiraContext* mc, const JournalEntry& entry,
                                   SimulatedClock* replay_clock) {
  if (replay_clock != nullptr) {
    replay_clock->Set(entry.when);
  }
  const std::string& principal = entry.principal.empty() ? "root" : entry.principal;
  const std::string& client = entry.client.empty() ? "journal-replay" : entry.client;
  return QueryRegistry::Instance().Execute(*mc, principal, client, entry.query, entry.args,
                                           [](Tuple) {});
}

int BackupManager::ReplayJournal(MoiraContext* mc, const std::vector<JournalEntry>& entries,
                                 SimulatedClock* replay_clock) {
  int replayed = 0;
  for (const JournalEntry& entry : entries) {
    if (ReplayEntry(mc, entry, replay_clock) == MR_SUCCESS) {
      ++replayed;
    }
  }
  return replayed;
}

std::string BackupManager::DumpToString(const Database& db) {
  std::string out;
  for (const std::string& name : db.TableNames()) {
    out += "table ";
    out += name;
    out += '\n';
    db.GetTable(name)->Scan([&](size_t, const Row& row) {
      out += RowToLine(row);
      return true;
    });
  }
  return out;
}

}  // namespace moira
