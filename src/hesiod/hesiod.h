// The Hesiod name server (paper section 5.8.2).
//
// Hesiod serves BIND HS-class records loaded from the .db files Moira
// generates: UNSPECA records carrying quoted string data, and CNAME records
// aliasing one name to another.  The real server loads the files into memory
// at startup and is restarted by the Moira install script after an update;
// this implementation does the same via Reload().  Records live in one
// vector sorted by key, built in bulk per load and binary-searched by
// Resolve(); their keys and payloads share one text buffer.
#ifndef MOIRA_SRC_HESIOD_HESIOD_H_
#define MOIRA_SRC_HESIOD_HESIOD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace moira {

class HesiodServer {
 public:
  // Parses one .db file's text and merges its records.  Returns the number of
  // records loaded, or -1 on a malformed line.  Lines starting with ';' are
  // comments.  Keys ("name.type") are case-insensitive.
  int LoadDb(std::string_view text);

  // Drops all records (used before re-loading after a Moira update).
  void Clear();

  // Resolves name.type: returns every UNSPECA data string, following CNAME
  // chains (bounded depth to survive cycles).  Empty if no match.
  std::vector<std::string> Resolve(std::string_view name, std::string_view type) const;

  size_t record_count() const { return records_.size(); }
  int reload_count() const { return reload_count_; }

  // Install-script entry point: clears and reloads from the given file texts,
  // bumping reload_count (the "kill and restart the server" of the paper).
  int Reload(const std::vector<std::string>& db_texts);

 private:
  // One record: spans of text_ holding its lowercase "name.type" key and its
  // payload (the quoted UNSPECA data, or the lowercase CNAME target key).
  // The spans are 32-bit, so text_ holds at most 2^32 - 1 bytes; loading
  // past that aborts.
  struct Record {
    uint32_t key_pos = 0;
    uint32_t key_len = 0;
    uint32_t data_pos = 0;
    uint32_t data_len = 0;
    bool cname = false;
  };

  std::string_view KeyOf(const Record& record) const {
    return std::string_view(text_).substr(record.key_pos, record.key_len);
  }
  std::string_view DataOf(const Record& record) const {
    return std::string_view(text_).substr(record.data_pos, record.data_len);
  }

  // Parses one file's records onto the end of records_, unsorted; returns
  // the number appended, or -1 at a malformed line.
  int AppendDb(std::string_view text);
  // Restores key order after appends.  Stable, so records sharing a key keep
  // the order they were loaded in (file order, then load order).
  void SortRecords();

  std::string text_;
  std::vector<Record> records_;  // ascending by key
  int reload_count_ = 0;
};

}  // namespace moira

#endif  // MOIRA_SRC_HESIOD_HESIOD_H_
