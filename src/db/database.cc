#include "src/db/database.h"

#include <algorithm>

namespace moira {

Database::Database(const Clock* clock) : clock_(clock) {}

Table* Database::CreateTable(TableSchema schema) {
  if (tables_.contains(schema.name)) {
    return nullptr;
  }
  std::string name = schema.name;
  auto table = std::make_unique<Table>(std::move(schema));
  table->set_time_source([this] { return clock_->Now(); });
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  table_order_.push_back(name);
  return raw;
}

Table* Database::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  return it != tables_.end() ? it->second.get() : nullptr;
}

const Table* Database::GetTable(std::string_view name) const {
  auto it = tables_.find(name);
  return it != tables_.end() ? it->second.get() : nullptr;
}

std::vector<std::string> Database::TableNames() const { return table_order_; }

UnixTime Database::LastModified() const {
  UnixTime latest = 0;
  for (const auto& [name, table] : tables_) {
    latest = std::max(latest, table->stats().modtime);
  }
  return latest;
}

void Database::ClearAllRows() {
  for (auto& [name, table] : tables_) {
    std::vector<size_t> live;
    table->Scan([&](size_t index, const Row&) {
      live.push_back(index);
      return true;
    });
    for (size_t index : live) {
      table->Delete(index);
    }
  }
}

}  // namespace moira
