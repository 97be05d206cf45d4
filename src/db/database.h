// The Moira database engine (paper section 5.2).
//
// A small embedded relational store substituting for RTI INGRES.  Moira is
// explicitly designed not to depend on any special DBMS feature; the only
// interface the rest of the system sees is tables, rows, and predicates, and
// everything above this layer goes through named query handles.
#ifndef MOIRA_SRC_DB_DATABASE_H_
#define MOIRA_SRC_DB_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/db/table.h"

namespace moira {

class Database {
 public:
  // The clock stamps TBLSTATS modtimes; it must outlive the database.
  explicit Database(const Clock* clock);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Creates a table; returns nullptr if one with that name already exists.
  Table* CreateTable(TableSchema schema);

  // Looks up a table; nullptr if absent.
  Table* GetTable(std::string_view name);
  const Table* GetTable(std::string_view name) const;

  // Names of all tables, in creation order.
  std::vector<std::string> TableNames() const;

  // Unix time of the most recent mutation to any table, 0 if none.
  UnixTime LastModified() const;

  // Drops all rows from every table, preserving schemas and indexes; each
  // table frees its pages and starts over at row 0 (Table::Clear).
  void ClearAllRows();

  const Clock& clock() const { return *clock_; }

 private:
  const Clock* clock_;
  std::vector<std::string> table_order_;
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_;
};

}  // namespace moira

#endif  // MOIRA_SRC_DB_DATABASE_H_
