// The Moira server journal (paper section 5.2.2): "the journal file kept by
// the Moira server daemon contains a listing of all successful changes to the
// database", improving on the nightly backup by bounding transaction loss.
//
// Entries are kept in memory and, once attached to a data directory,
// appended to its changelog, one escaped line per change; mrrestore can
// replay entries newer than a backup.
//
// The journal doubles as the replication log (src/repl): every committed
// entry carries a monotone sequence number assigned at append time, replicas
// resume streaming from `applied_seq + 1`, and TruncateThrough lets the
// primary drop already-backed-up prefixes (a replica asking for a truncated
// range falls back to a snapshot transfer).
//
// On disk the journal follows the MooseFS master's metadata discipline
// (DESIGN.md "Checkpoint & changelog lifecycle"): a data directory holds the
// live changelog file `journal` plus sealed, numbered segments
// `journal.<first_seq>-<last_seq>` produced by Rotate().  TruncateThrough
// retires whole sealed segments from disk, so the retained on-disk bytes
// always equal the retained in-memory entries, and AttachDirectory recovers
// the tail (and base_seq_/last_seq_) after a restart.  Periodic checkpoints
// of the full database are written next to the segments by the backup layer
// (src/backup/checkpoint.h) as `checkpoint.<seq>` directories; the naming
// helpers live here so the server can stream a checkpoint for replica
// bootstrap without depending on the backup library.
#ifndef MOIRA_SRC_SERVER_JOURNAL_H_
#define MOIRA_SRC_SERVER_JOURNAL_H_

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"

namespace moira {

struct JournalEntry {
  // Monotone sequence number; 0 means "not yet assigned" (Journal::Append
  // assigns the next one).
  uint64_t seq = 0;
  UnixTime when = 0;
  std::string principal;
  // Application name the change was made with (recorded in modwith).  Kept in
  // the journal so replicas replay with the original identity and produce
  // byte-identical modby/modwith stamps.
  std::string client;
  std::string query;
  std::vector<std::string> args;
  // Replication epoch the entry was written under; 0 means "not yet
  // stamped" (Journal::Append stamps the journal's current epoch).  Carried
  // in the line format so replicas can refuse entries from a fenced primary.
  // Kept at the end of the struct (with `tag`) so existing aggregate
  // initializers stay valid.
  uint64_t epoch = 0;
  // Client-supplied idempotency tag ("" = untagged).  Replicas record applied
  // tags so a replayed mutation is acknowledged with its original seq instead
  // of re-executing — even after a failover.  Initialized, like `epoch`, so
  // an aggregate that stops at `args` leaves it empty without a warning.
  std::string tag{};

  // Line format: seq:epoch:time:principal:client:tag:query:arg... with ':'
  // and '\' escaped, ending in a newline.  Identical escaping to the backup
  // files (section 5.2.2).
  std::string ToLine() const;
  static std::optional<JournalEntry> FromLine(std::string_view line);
};

// One sealed changelog segment: <dir>/journal.<first_seq>-<last_seq>,
// covering exactly that inclusive sequence range.
struct JournalSegment {
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  std::string path;
};

class Journal {
 public:
  Journal() = default;

  // Attaches the journal to a data directory and recovers it from what is on
  // disk: sealed segments and the live file are scanned in order, every entry
  // with seq > after_seq is loaded into memory (entries at or below
  // after_seq are covered by a checkpoint), base_seq_/last_seq_ are restored
  // (base_seq_ = after_seq, or the first retained seq - 1 when older entries
  // were already retired), and the live file is opened for appending.  The
  // directory is created if missing, so a fresh primary and a restarted one
  // use the same call.  Returns the number of entries loaded, or -1 if the
  // directory cannot be created or read.
  int AttachDirectory(const std::string& dir, uint64_t after_seq = 0);

  // Directory-mode root ("" when memory-only).
  const std::string& directory() const { return dir_; }

  // Seals the live file into journal.<first>-<last> and reopens an empty
  // live file.  Returns false (and does nothing) when not in directory mode
  // or the live file holds no entries.
  bool Rotate();

  // Auto-rotation: in directory mode, Append seals the live file once it
  // holds this many entries (0 disables, the default).
  void set_rotate_threshold(size_t n) { rotate_threshold_ = n; }

  // Sealed segments currently on disk, ascending by first_seq.
  const std::vector<JournalSegment>& segments() const { return segments_; }

  // Offline scan of a journal directory: every entry on disk with
  // after_seq < seq <= through_seq, in order (sealed segments, then the live
  // file).  Corrupt lines are skipped.  Returns nullopt if the directory
  // cannot be read.  Used by mrrestore-style point-in-time replay and by
  // tests asserting disk contents.
  static std::optional<std::vector<JournalEntry>> ReadRange(
      const std::string& dir, uint64_t after_seq = 0,
      uint64_t through_seq = UINT64_MAX);

  // Records one entry.  Assigns the next sequence number when entry.seq is 0
  // (entries carrying a seq — e.g. reloaded from disk — keep it and advance
  // the counter past it).  In directory mode the line is written to the live
  // file and the stream flushed before this returns; nothing syncs it to
  // disk and the stream state goes unchecked, so an acknowledged entry can
  // still be lost to a crash or a failed write (ROADMAP "Real durability").
  // Returns the entry's sequence number.
  uint64_t Append(JournalEntry entry);

  const std::vector<JournalEntry>& entries() const { return entries_; }

  // Up to `max` retained entries with seq >= from_seq, in order.
  std::vector<JournalEntry> EntriesFromSeq(uint64_t from_seq,
                                           size_t max = SIZE_MAX) const;

  // The log window both replication doors ship (a kReplFetch reply and a
  // quorum push): up to `max` retained entries with after_seq < seq <=
  // through_seq, read in place (valid until the journal next changes), and
  // the epoch of entry after_seq (0 when it is not held), against which the
  // receiver checks its applied prefix.
  struct Window {
    std::span<const JournalEntry> entries;
    uint64_t prev_epoch = 0;
  };
  Window WindowAfter(uint64_t after_seq, size_t max = SIZE_MAX,
                     uint64_t through_seq = UINT64_MAX) const;

  // Sequence number of the oldest retained entry; with nothing retained,
  // base_seq() + 1 (the seq the next retained entry would get).
  uint64_t first_seq() const;
  // Sequence number of the newest entry ever appended (0 if none).
  uint64_t last_seq() const { return last_seq_; }
  // Highest truncated sequence number: entries 1..base_seq() are gone.
  uint64_t base_seq() const { return base_seq_; }

  // Drops retained entries with seq <= through (journal pruning after a
  // checkpoint); replicas behind the cut must fall back to a snapshot.
  // In directory mode the truncation is at segment granularity: sealed
  // segments whose whole range is <= through are deleted from disk (the live
  // file is sealed first when `through` covers it entirely), a segment
  // straddling `through` is kept in full both on disk and in memory, and
  // base_seq advances only to the highest retired segment boundary — so the
  // on-disk bytes always equal the retained entries.  Returns the number of
  // entries dropped from memory.
  size_t TruncateThrough(uint64_t through);

  // Hard reset for a demoted-and-re-promoted embedded journal: drops every
  // retained entry and restarts numbering at `next_seq`, treating entries
  // 1..next_seq-1 as cluster history this server does not hold (base_seq
  // moves to next_seq - 1).  The counter may move BACKWARD, discarding a
  // dead reign's unreplicated suffix.  Only supported for memory-only
  // journals (replica-embedded); directory mode is not rebased.
  void RebaseTo(uint64_t next_seq);

  // Replication epoch stamped onto appended entries.  Starts at 1; a
  // promoted replica installs its election epoch with set_epoch, and loading
  // entries from disk restores the highest epoch seen (so a restarted
  // primary keeps its fencing position).
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { if (epoch > epoch_) epoch_ = epoch; }

  // Unparsable lines AttachDirectory skipped — e.g. a torn final line from a
  // crash mid-append.
  int corrupt_lines_skipped() const { return corrupt_lines_skipped_; }

 private:
  std::string LivePath() const;
  // Opens the live file for appending (creating it if needed).
  void OpenLive();

  std::vector<JournalEntry> entries_;
  std::ofstream file_;
  uint64_t last_seq_ = 0;
  uint64_t base_seq_ = 0;  // entries 1..base_seq_ have been truncated
  uint64_t epoch_ = 1;     // current replication epoch (monotone)
  int corrupt_lines_skipped_ = 0;

  // Directory mode (empty dir_ = memory-only).
  std::string dir_;
  std::vector<JournalSegment> segments_;
  uint64_t live_first_seq_ = 0;  // 0 = live file holds no entries
  uint64_t live_last_seq_ = 0;
  size_t live_count_ = 0;
  size_t rotate_threshold_ = 0;
};

// Escapes one field: ':' -> "\:", '\' -> "\\", non-printing -> \nnn octal.
std::string JournalEscape(std::string_view field);
// Inverse of JournalEscape.  A backslash sequence JournalEscape never emits
// (fewer than three octal digits, a non-octal digit in the triple, a lone
// trailing backslash) is copied literally rather than decoded as garbage.
std::string JournalUnescape(std::string_view field);
// Splits a line on unescaped colons.
std::vector<std::string> SplitEscaped(std::string_view line);

// --- Checkpoint directory naming --------------------------------------------
// Checkpoints live next to the changelog segments as `checkpoint.<seq>`
// directories of backup-format table files plus a SEQ stamp file written
// last; the writer (src/backup/checkpoint.h) builds them under
// `checkpoint.tmp` and renames, so a directory without a matching stamp is a
// crashed write and is ignored here.  The naming lives in moira_server so
// the wire server can stream a checkpoint for replica bootstrap without a
// dependency cycle onto the backup library.

inline constexpr char kCheckpointTempName[] = "checkpoint.tmp";
inline constexpr char kCheckpointStampName[] = "SEQ";

struct CheckpointRef {
  uint64_t seq = 0;
  std::string path;
};

// "checkpoint.<seq>" (the directory's basename).
std::string CheckpointDirName(uint64_t seq);

// Complete checkpoints under root, ascending by seq.  checkpoint.tmp,
// malformed names, and directories whose SEQ stamp is missing or disagrees
// with the name are skipped.  An unreadable/missing root lists as empty.
std::vector<CheckpointRef> ListCheckpoints(const std::string& root);

}  // namespace moira

#endif  // MOIRA_SRC_SERVER_JOURNAL_H_
