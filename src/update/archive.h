// A tar-style archive container (paper sections 5.8.2, 5.9): the DCM ships a
// single data file per update; for multi-file services (Hesiod's 11 .db
// files, Zephyr's acl set) that file is an archive of members which the
// install script extracts one at a time.
#ifndef MOIRA_SRC_UPDATE_ARCHIVE_H_
#define MOIRA_SRC_UPDATE_ARCHIVE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace moira {

// A file's bytes, immutable once made.  They are allocated once, where they
// are produced (a generator, a splice, a received transfer, an install), and
// every holder on the same side of the wire keeps a reference instead of a
// copy: the DCM's staged archives share one buffer for a file every host of a
// service receives, and a host's installed file, its backup and the daemon
// that loaded it share theirs.  Nothing is shared between the DCM and a host.
using FileBytes = std::shared_ptr<const std::string>;

inline FileBytes MakeFileBytes(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

// One member of a serialized archive, as views into the parsed bytes.
struct ArchiveMemberView {
  std::string_view name;
  std::string_view contents;
};

class Archive {
 public:
  Archive() = default;

  // Adds a member; names must be unique (later adds replace earlier ones).
  // The string overload puts `contents` in a new buffer; the FileBytes
  // overload shares `contents`, which must not be null.
  void Add(std::string name, std::string contents);
  void Add(std::string name, FileBytes contents);

  // Returns a member's contents, or nullptr.
  const std::string* Find(std::string_view name) const;
  // Returns a member's buffer, or null.
  FileBytes Share(std::string_view name) const;

  const std::vector<std::pair<std::string, FileBytes>>& members() const { return members_; }

  bool empty() const { return members_.empty(); }
  size_t size() const { return members_.size(); }

  // Total bytes of member contents (the paper's per-file "Size" column).
  size_t ContentBytes() const;

  // Serializes with a magic header and per-member counted strings plus a
  // trailing CRC so truncation and corruption are detectable.
  std::string Serialize() const;
  // Checks the CRC and framing of `bytes` and returns its members as views
  // into `bytes`, which must outlive them; a later member of a name replaces
  // an earlier one, as Add does.
  static std::optional<std::vector<ArchiveMemberView>> ParseViews(std::string_view bytes);
  // ParseViews, copying each member once into its own buffer.
  static std::optional<Archive> Parse(std::string_view bytes);

 private:
  // The named member's buffer handle, or nullptr.
  const FileBytes* Slot(std::string_view name) const;

  std::vector<std::pair<std::string, FileBytes>> members_;
};

}  // namespace moira

#endif  // MOIRA_SRC_UPDATE_ARCHIVE_H_
