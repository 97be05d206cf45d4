// A tar-style archive container (paper sections 5.8.2, 5.9): the DCM ships a
// single data file per update; for multi-file services (Hesiod's 11 .db
// files, Zephyr's acl set) that file is an archive of members which the
// install script extracts one at a time.
#ifndef MOIRA_SRC_UPDATE_ARCHIVE_H_
#define MOIRA_SRC_UPDATE_ARCHIVE_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace moira {

// One member of a serialized archive, as views into the parsed bytes.
struct ArchiveMemberView {
  std::string_view name;
  std::string_view contents;
};

class Archive {
 public:
  Archive() = default;

  // Adds a member; names must be unique (later adds replace earlier ones).
  void Add(std::string name, std::string contents);

  // Returns a member's contents, or nullptr.
  const std::string* Find(std::string_view name) const;

  const std::vector<std::pair<std::string, std::string>>& members() const {
    return members_;
  }

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
  // ParseViews, copying each member once.
  static std::optional<Archive> Parse(std::string_view bytes);

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

}  // namespace moira

#endif  // MOIRA_SRC_UPDATE_ARCHIVE_H_
