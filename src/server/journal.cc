#include "src/server/journal.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "src/common/strutil.h"

namespace moira {

namespace fs = std::filesystem;

namespace {

constexpr char kLiveName[] = "journal";
constexpr char kSegmentPrefix[] = "journal.";

bool IsOctalDigit(char c) { return c >= '0' && c <= '7'; }

// Parses "journal.<first>-<last>" into a segment record; nullopt for the
// live file or any other name.
std::optional<JournalSegment> ParseSegmentName(const fs::path& path) {
  const std::string name = path.filename().string();
  const size_t prefix_len = sizeof(kSegmentPrefix) - 1;
  if (name.size() <= prefix_len || name.compare(0, prefix_len, kSegmentPrefix) != 0) {
    return std::nullopt;
  }
  const size_t dash = name.find('-', prefix_len);
  if (dash == std::string::npos) {
    return std::nullopt;
  }
  std::optional<int64_t> first = ParseInt(name.substr(prefix_len, dash - prefix_len));
  std::optional<int64_t> last = ParseInt(name.substr(dash + 1));
  if (!first.has_value() || !last.has_value() || *first < 1 || *last < *first) {
    return std::nullopt;
  }
  JournalSegment segment;
  segment.first_seq = static_cast<uint64_t>(*first);
  segment.last_seq = static_cast<uint64_t>(*last);
  segment.path = path.string();
  return segment;
}

// Sealed segments under dir, ascending by first_seq.
std::vector<JournalSegment> ScanSegments(const std::string& dir) {
  std::vector<JournalSegment> segments;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (std::optional<JournalSegment> segment = ParseSegmentName(entry.path())) {
      segments.push_back(std::move(*segment));
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const JournalSegment& a, const JournalSegment& b) {
              return a.first_seq < b.first_seq;
            });
  return segments;
}

// Reads one changelog file, handing each parsed entry to `visit` in file
// order.  Returns the number of unparsable lines — a torn write (crash
// mid-append or mid-rotation) leaves a short final line — or -1 if the file
// cannot be opened.
template <typename Visit>
int ReadChangelog(const std::string& path, Visit visit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return -1;
  }
  int corrupt = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (std::optional<JournalEntry> entry = JournalEntry::FromLine(line)) {
      visit(std::move(*entry));
    } else {
      ++corrupt;
    }
  }
  return corrupt;
}

}  // namespace

std::string JournalEscape(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (char c : field) {
    auto uc = static_cast<unsigned char>(c);
    if (c == ':') {
      out += "\\:";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (uc < 0x20 || uc >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\%03o", uc);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JournalUnescape(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\') {
      out += field[i];
      continue;
    }
    if (i + 1 < field.size() && (field[i + 1] == ':' || field[i + 1] == '\\')) {
      out += field[i + 1];
      ++i;
      continue;
    }
    if (i + 3 < field.size() && IsOctalDigit(field[i + 1]) && IsOctalDigit(field[i + 2]) &&
        IsOctalDigit(field[i + 3])) {
      int v = (field[i + 1] - '0') * 64 + (field[i + 2] - '0') * 8 + (field[i + 3] - '0');
      out += static_cast<char>(v);
      i += 3;
      continue;
    }
    // Not a sequence JournalEscape emits (short or non-octal \nnn, a lone
    // trailing backslash): keep the backslash literally instead of decoding
    // garbage or dropping it asymmetrically.
    out += '\\';
  }
  return out;
}

std::vector<std::string> SplitEscaped(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      current += line[i];
      current += line[i + 1];
      ++i;
    } else if (line[i] == ':') {
      fields.push_back(JournalUnescape(current));
      current.clear();
    } else {
      current += line[i];
    }
  }
  fields.push_back(JournalUnescape(current));
  return fields;
}

std::string JournalEntry::ToLine() const {
  std::string line = std::to_string(seq);
  line += ':';
  line += std::to_string(epoch);
  line += ':';
  line += std::to_string(when);
  line += ':';
  line += JournalEscape(principal);
  line += ':';
  line += JournalEscape(client);
  line += ':';
  line += JournalEscape(tag);
  line += ':';
  line += JournalEscape(query);
  for (const std::string& arg : args) {
    line += ':';
    line += JournalEscape(arg);
  }
  line += '\n';
  return line;
}

std::optional<JournalEntry> JournalEntry::FromLine(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  std::vector<std::string> fields = SplitEscaped(line);
  if (fields.size() < 7) {
    return std::nullopt;
  }
  std::optional<int64_t> seq = ParseInt(fields[0]);
  std::optional<int64_t> epoch = ParseInt(fields[1]);
  std::optional<int64_t> when = ParseInt(fields[2]);
  if (!seq.has_value() || *seq < 0 || !epoch.has_value() || *epoch < 0 ||
      !when.has_value()) {
    return std::nullopt;
  }
  JournalEntry entry;
  entry.seq = static_cast<uint64_t>(*seq);
  entry.epoch = static_cast<uint64_t>(*epoch);
  entry.when = *when;
  entry.principal = fields[3];
  entry.client = fields[4];
  entry.tag = fields[5];
  entry.query = fields[6];
  entry.args.assign(fields.begin() + 7, fields.end());
  return entry;
}

std::string Journal::LivePath() const { return (fs::path(dir_) / kLiveName).string(); }

void Journal::OpenLive() {
  file_.close();
  file_.clear();
  file_.open(LivePath(), std::ios::app | std::ios::binary);
}

int Journal::AttachDirectory(const std::string& dir, uint64_t after_seq) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return -1;
  }
  dir_ = dir;
  segments_ = ScanSegments(dir);
  live_first_seq_ = live_last_seq_ = 0;
  live_count_ = 0;
  // A checkpoint at after_seq proves entries 1..after_seq once existed, even
  // if every changelog file is gone.
  if (after_seq > last_seq_) {
    last_seq_ = after_seq;
  }
  if (after_seq > base_seq_) {
    base_seq_ = after_seq;
  }
  int loaded = 0;
  // Keeps every entry past the checkpoint; the live file also sets the
  // live-file state.  A file that cannot be opened loads nothing.
  auto load = [&](const std::string& path, bool live) {
    const int corrupt = ReadChangelog(path, [&](JournalEntry entry) {
      if (live) {
        if (live_first_seq_ == 0) {
          live_first_seq_ = entry.seq;
        }
        live_last_seq_ = entry.seq;
        ++live_count_;
      }
      last_seq_ = std::max(last_seq_, entry.seq);
      epoch_ = std::max(epoch_, entry.epoch);
      if (entry.seq > after_seq) {
        entries_.push_back(std::move(entry));
        ++loaded;
      }
    });
    // Counted rather than silently dropped, so operators can see data loss.
    corrupt_lines_skipped_ += std::max(corrupt, 0);
  };
  for (const JournalSegment& segment : segments_) {
    // A segment the checkpoint fully covers is retired at the next truncate.
    if (segment.last_seq > after_seq) {
      load(segment.path, /*live=*/false);
    }
  }
  // The live file may be absent (fresh directory, or a crash between the
  // rotation rename and the reopen); Append recreates it.
  if (fs::exists(LivePath(), ec)) {
    load(LivePath(), /*live=*/true);
  }
  // Retained entries run (base_seq_, last_seq_]; when disk starts later than
  // the checkpoint (segments retired after the checkpoint was cut), the cut
  // is wherever the first retained entry begins.
  if (!entries_.empty() && entries_.front().seq - 1 > base_seq_) {
    base_seq_ = entries_.front().seq - 1;
  }
  OpenLive();
  return loaded;
}

bool Journal::Rotate() {
  if (dir_.empty() || live_first_seq_ == 0) {
    return false;
  }
  file_.close();
  file_.clear();
  JournalSegment segment;
  segment.first_seq = live_first_seq_;
  segment.last_seq = live_last_seq_;
  segment.path =
      (fs::path(dir_) / (std::string(kSegmentPrefix) + std::to_string(live_first_seq_) +
                         "-" + std::to_string(live_last_seq_)))
          .string();
  std::error_code ec;
  fs::rename(LivePath(), segment.path, ec);
  if (ec) {
    OpenLive();
    return false;
  }
  segments_.push_back(std::move(segment));
  live_first_seq_ = live_last_seq_ = 0;
  live_count_ = 0;
  OpenLive();
  return true;
}

std::optional<std::vector<JournalEntry>> Journal::ReadRange(const std::string& dir,
                                                            uint64_t after_seq,
                                                            uint64_t through_seq) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return std::nullopt;
  }
  std::vector<std::string> files;
  for (const JournalSegment& segment : ScanSegments(dir)) {
    if (segment.last_seq > after_seq && segment.first_seq <= through_seq) {
      files.push_back(segment.path);
    }
  }
  if (fs::exists(fs::path(dir) / kLiveName, ec)) {
    files.push_back((fs::path(dir) / kLiveName).string());
  }
  std::vector<JournalEntry> out;
  for (const std::string& path : files) {
    const int corrupt = ReadChangelog(path, [&](JournalEntry entry) {
      if (entry.seq > after_seq && entry.seq <= through_seq) {
        out.push_back(std::move(entry));
      }
    });
    if (corrupt < 0) {
      return std::nullopt;
    }
  }
  return out;
}

uint64_t Journal::Append(JournalEntry entry) {
  if (!dir_.empty() && rotate_threshold_ > 0 && live_count_ >= rotate_threshold_) {
    Rotate();
  }
  if (entry.seq == 0) {
    entry.seq = last_seq_ + 1;
  }
  if (entry.seq > last_seq_) {
    last_seq_ = entry.seq;
  }
  // Stamp the current epoch; an entry reloaded from a newer epoch advances
  // the journal's fencing position instead.
  if (entry.epoch == 0) {
    entry.epoch = epoch_;
  } else if (entry.epoch > epoch_) {
    epoch_ = entry.epoch;
  }
  if (file_.is_open()) {
    // Written and flushed before the append is acknowledged: a replica that
    // saw this sequence number can always re-fetch it after a primary
    // restart.
    file_ << entry.ToLine();
    file_.flush();
    if (live_first_seq_ == 0) {
      live_first_seq_ = entry.seq;
    }
    live_last_seq_ = entry.seq;
    ++live_count_;
  }
  uint64_t seq = entry.seq;
  entries_.push_back(std::move(entry));
  return seq;
}

std::vector<JournalEntry> Journal::EntriesFromSeq(uint64_t from_seq, size_t max) const {
  std::span<const JournalEntry> window =
      WindowAfter(from_seq > 0 ? from_seq - 1 : 0, max).entries;
  return std::vector<JournalEntry>(window.begin(), window.end());
}

Journal::Window Journal::WindowAfter(uint64_t after_seq, size_t max,
                                     uint64_t through_seq) const {
  // entries_ ascends by seq: Append numbers past last_seq_, and
  // AttachDirectory loads the segments and then the live file in order.
  auto first = std::partition_point(
      entries_.begin(), entries_.end(),
      [after_seq](const JournalEntry& entry) { return entry.seq <= after_seq; });
  auto last = std::partition_point(
      first, entries_.end(),
      [through_seq](const JournalEntry& entry) { return entry.seq <= through_seq; });
  Window window;
  window.entries = std::span<const JournalEntry>(
      first, std::min(max, static_cast<size_t>(last - first)));
  if (first != entries_.begin() && std::prev(first)->seq == after_seq) {
    window.prev_epoch = std::prev(first)->epoch;
  }
  return window;
}

uint64_t Journal::first_seq() const {
  return entries_.empty() ? base_seq_ + 1 : entries_.front().seq;
}

size_t Journal::TruncateThrough(uint64_t through) {
  if (!dir_.empty()) {
    // Disk-backed truncation at segment granularity: seal the live file when
    // the cut covers all of it, delete fully-covered sealed segments, and
    // prune memory only to the highest retired boundary so the on-disk bytes
    // always equal the retained entries.
    if (live_first_seq_ != 0 && through >= live_last_seq_) {
      Rotate();
    }
    uint64_t effective = base_seq_;
    auto it = segments_.begin();
    while (it != segments_.end() && it->last_seq <= through) {
      std::error_code ec;
      fs::remove(it->path, ec);
      effective = std::max(effective, it->last_seq);
      it = segments_.erase(it);
    }
    auto keep_from = entries_.begin();
    while (keep_from != entries_.end() && keep_from->seq <= effective) {
      ++keep_from;
    }
    size_t dropped = static_cast<size_t>(keep_from - entries_.begin());
    entries_.erase(entries_.begin(), keep_from);
    if (effective > base_seq_) {
      base_seq_ = effective;
    }
    return dropped;
  }
  size_t dropped = 0;
  while (!entries_.empty() && entries_.front().seq <= through) {
    ++dropped;
    if (entries_.front().seq > base_seq_) {
      base_seq_ = entries_.front().seq;
    }
    entries_.erase(entries_.begin());
  }
  if (through > base_seq_ && through <= last_seq_) {
    base_seq_ = through;
  }
  return dropped;
}

void Journal::RebaseTo(uint64_t next_seq) {
  if (!dir_.empty()) {
    return;  // directory-mode journals are never rebased
  }
  entries_.clear();
  last_seq_ = next_seq > 0 ? next_seq - 1 : 0;
  base_seq_ = last_seq_;
}

// --- Checkpoint directory naming --------------------------------------------

namespace {
constexpr char kCheckpointPrefix[] = "checkpoint.";
}  // namespace

std::string CheckpointDirName(uint64_t seq) {
  return std::string(kCheckpointPrefix) + std::to_string(seq);
}

std::vector<CheckpointRef> ListCheckpoints(const std::string& root) {
  std::vector<CheckpointRef> out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    const size_t prefix_len = sizeof(kCheckpointPrefix) - 1;
    if (name.size() <= prefix_len || name.compare(0, prefix_len, kCheckpointPrefix) != 0) {
      continue;
    }
    std::optional<int64_t> seq = ParseInt(name.substr(prefix_len));
    if (!seq.has_value() || *seq < 0) {
      continue;  // checkpoint.tmp and other non-numeric names
    }
    // The SEQ stamp is written last before the rename; a directory without a
    // matching stamp is a crashed or tampered write.
    std::ifstream stamp(entry.path() / kCheckpointStampName);
    std::string stamped;
    if (!stamp || !std::getline(stamp, stamped) ||
        ParseInt(stamped) != std::optional<int64_t>(*seq)) {
      continue;
    }
    out.push_back(CheckpointRef{static_cast<uint64_t>(*seq), entry.path().string()});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointRef& a, const CheckpointRef& b) { return a.seq < b.seq; });
  return out;
}

}  // namespace moira
