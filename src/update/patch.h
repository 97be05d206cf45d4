// Keyed-file patches for incremental DCM propagation (paper section 5.1.E:
// files "will only be generated and propagated if the data has changed").
//
// Every server file the DCM patches incrementally is a *keyed text file*: a
// sequence of blocks, each owned by one record key (a Hesiod name, a login,
// a uid), preceded by an optional comment prologue.  The full generators
// write it through KeyedFile (prologue verbatim, blocks sorted by key), and
// the patch appliers (SpliceKeyedOps) edit that canonical form in place, so
// "apply this patch to the old file" and "regenerate the file from the
// database" produce byte-identical output whenever they agree on block
// contents.
//
// An ArchivePatch is the wire form: per installed file, the expected base
// CRC, a list of keyed upsert/delete ops (or a whole-file replacement for
// unkeyed files), and the expected result CRC.  A host whose installed file
// does not match the base CRC — it missed a pass, or tore a write — refuses
// the patch, and the DCM falls back to shipping the full archive.
#ifndef MOIRA_SRC_UPDATE_PATCH_H_
#define MOIRA_SRC_UPDATE_PATCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace moira {

// How a line's owning key is derived.
enum class KeyRule : uint8_t {
  // Key is the first whitespace-delimited token ("login.passwd HS ...",
  // "lockername uid gid type", "uid quota").
  kFirstToken = 0,
  // Key is everything before the first ':' ("login:*:uid:...",
  // "listname: member, member").  Needed where later fields contain spaces.
  kUpToColon = 1,
};

// Canonical keyed text file: comment prologue + key-sorted blocks.  The
// generators build files through it; Parse, SetBlock and DeleteBlock are the
// reference model SpliceKeyedOps is tested against.
//
// The text lives in one buffer: each appended line (or set block) is a span
// of it with its key's span, and Serialize stable-sorts the spans by key once,
// so a key's block is its spans in the order they were added.  SetBlock and
// DeleteBlock drop a key's spans and leave their bytes behind in the buffer.
// Offsets are 32-bit; a buffer that would pass 2^32 - 1 bytes aborts.
class KeyedFile {
 public:
  explicit KeyedFile(KeyRule rule = KeyRule::kFirstToken) : rule_(rule) {}

  // Parses text into prologue + blocks.  Leading lines starting with ';' or
  // '#' form the prologue; every following line is appended to the block of
  // its derived key (consecutive or not — blocks are keyed, not positional).
  static KeyedFile Parse(std::string_view text, KeyRule rule);

  // Appends one line (newline added if missing) to its key's block.  An
  // empty line has the empty key and adds a newline only while that key's
  // block is empty.
  void AppendLine(std::string_view line);
  // Appends a raw prologue line (kept verbatim, before all blocks).
  void AppendPrologue(std::string_view line);

  // Replaces the key's block (newline added to a non-empty block if
  // missing); DeleteBlock drops it.
  void SetBlock(std::string_view key, std::string_view block);
  void DeleteBlock(std::string_view key);

  // Prologue, then blocks in ascending key order.
  std::string Serialize() const;

 private:
  // A key and the text it owns, as offsets into text_.
  struct Span {
    uint32_t key_offset = 0;
    uint32_t key_size = 0;
    uint32_t text_offset = 0;
    uint32_t text_size = 0;
  };

  std::string_view SpanKey(const Span& span) const {
    return std::string_view(text_).substr(span.key_offset, span.key_size);
  }
  // Appends `bytes` to text_ and returns their offset.
  uint32_t Store(std::string_view bytes);

  KeyRule rule_;
  std::string prologue_;
  std::string text_;
  std::vector<Span> spans_;  // in the order added
};

// One keyed edit inside a file.
struct PatchOp {
  enum Kind : uint8_t { kUpsert = 0, kDelete = 1 };
  Kind kind = kUpsert;
  std::string key;
  std::string block;  // empty for kDelete

  bool operator==(const PatchOp&) const = default;
};

// Edits for one installed file.
struct FilePatch {
  std::string member;    // archive member name (e.g. "passwd.db")
  std::string path;      // installed path on the host
  KeyRule key_rule = KeyRule::kFirstToken;
  uint32_t base_crc = 0;    // CRC of the file the ops apply to
  uint32_t result_crc = 0;  // CRC the patched file must hash to
  bool replace = false;     // whole-file replacement (unkeyed files)
  std::string contents;     // replacement contents when replace is set
  std::vector<PatchOp> ops;
};

// The shippable unit: patches for every file a pass changed on one host.
class ArchivePatch {
 public:
  void Add(FilePatch patch);
  const FilePatch* Find(std::string_view member) const;

  const std::vector<FilePatch>& files() const { return files_; }
  bool empty() const { return files_.empty(); }
  size_t size() const { return files_.size(); }

  // Same framing discipline as Archive: magic, counted fields, trailing CRC.
  std::string Serialize() const;
  static std::optional<ArchivePatch> Parse(std::string_view bytes);

 private:
  std::vector<FilePatch> files_;
};

// Applies keyed upserts and deletes to `text` in one pass over its lines,
// copying unchanged spans.  The last op on a key wins; an upsert writes its
// block (newline added if missing) in the key's sorted place, replacing any
// block the key had, and a delete drops it.  `text` must be in the canonical
// form KeyedFile::Serialize writes: the Parse prologue, then non-empty,
// newline-terminated lines whose keys never decrease (so each key is one
// contiguous block).  On such input the result equals Parse, then
// SetBlock/DeleteBlock per op, then Serialize, byte for byte; any other
// input returns nullopt.
std::optional<std::string> SpliceKeyedOps(std::string_view text, KeyRule rule,
                                          const std::vector<PatchOp>& ops);

// Applies one file's patch to its base bytes.  Returns the patched contents,
// or nullopt if the base does not hash to base_crc, is not canonical, or the
// result does not hash to result_crc (the caller falls back to a full ship).
std::optional<std::string> ApplyFilePatch(std::string_view base,
                                          const FilePatch& patch);

}  // namespace moira

#endif  // MOIRA_SRC_UPDATE_PATCH_H_
