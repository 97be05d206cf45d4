// mrbackup / mrrestore (paper section 5.2.2).
//
// mrbackup copies each relation into an ASCII file: one line per row, colon
// separated fields, with ':' and '\' escaped as \: and \\ and non-printing
// characters as \nnn octal.  nightly.sh keeps the last three backups on line
// (backup_1 newest).  mrrestore rebuilds an empty database from the files;
// journal replay re-executes changes made after the dump, bounding loss to
// well under a day of transactions.
#ifndef MOIRA_SRC_BACKUP_BACKUP_H_
#define MOIRA_SRC_BACKUP_BACKUP_H_

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/server/journal.h"

namespace moira {

class BackupManager {
 public:
  // Dumps every relation of `db` into dir/<table>.  Returns total bytes
  // written, or -1 on I/O failure.  The directory is created if needed.
  static int64_t Dump(const Database& db, const std::filesystem::path& dir);

  // Restores relations from dir into `db`, whose schema must already exist
  // and whose tables must be empty (the paper's "smstemp" convention).
  // Returns MR_SUCCESS, or MR_INTERNAL on malformed input / arity mismatch.
  static int32_t Restore(Database* db, const std::filesystem::path& dir);

  // nightly.sh: rotates root/backup_3 <- backup_2 <- backup_1 and dumps into
  // a fresh root/backup_1.  Returns bytes written or -1.
  static int64_t RotateAndDump(const Database& db, const std::filesystem::path& root);

  // Re-executes one journalled change through the query registry with the
  // entry's original principal and client name (falling back to root /
  // "journal-replay" for pre-upgrade entries without them), so modby/modwith
  // stamps come out identical to the original run.  When `replay_clock` is
  // given it is Set to the entry's recorded time before executing, so
  // modtime stamps also come out identical (the caller restores the clock
  // afterwards).  Returns the query's status.  Restore replay and replica
  // apply both run every entry through here.
  static int32_t ReplayEntry(MoiraContext* mc, const JournalEntry& entry,
                             SimulatedClock* replay_clock = nullptr);
  // ReplayEntry over `entries` in order; returns how many replayed
  // successfully.
  static int ReplayJournal(MoiraContext* mc, const std::vector<JournalEntry>& entries,
                           SimulatedClock* replay_clock = nullptr);

  // The full dump as one in-memory string ("table <name>" header followed by
  // that relation's backup lines).  Two databases in the same state produce
  // byte-identical dumps — the replication layer's convergence check.
  static std::string DumpToString(const Database& db);

  // Serializes one row / parses one line (exposed for tests).
  static std::string RowToLine(const Row& row);
  static bool LineToRow(const std::string& line, const TableSchema& schema,
                        std::vector<Value>* row);
};

}  // namespace moira

#endif  // MOIRA_SRC_BACKUP_BACKUP_H_
