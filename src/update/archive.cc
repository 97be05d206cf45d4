#include "src/update/archive.h"

#include <algorithm>
#include <cstring>

#include "src/common/checksum.h"

namespace moira {
namespace {

constexpr char kMagic[4] = {'M', 'T', 'A', 'R'};

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < sizeof(*v)) {
    return false;
  }
  std::memcpy(v, in->data(), sizeof(*v));
  in->remove_prefix(sizeof(*v));
  return true;
}

void PutCounted(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool GetCounted(std::string_view* in, std::string_view* s) {
  uint32_t len = 0;
  if (!GetU32(in, &len) || in->size() < len) {
    return false;
  }
  *s = in->substr(0, len);
  in->remove_prefix(len);
  return true;
}

}  // namespace

void Archive::Add(std::string name, std::string contents) {
  Add(std::move(name), MakeFileBytes(std::move(contents)));
}

void Archive::Add(std::string name, FileBytes contents) {
  for (auto& [existing_name, existing_contents] : members_) {
    if (existing_name == name) {
      existing_contents = std::move(contents);
      return;
    }
  }
  members_.emplace_back(std::move(name), std::move(contents));
}

const FileBytes* Archive::Slot(std::string_view name) const {
  for (const auto& [member_name, contents] : members_) {
    if (member_name == name) {
      return &contents;
    }
  }
  return nullptr;
}

const std::string* Archive::Find(std::string_view name) const {
  const FileBytes* slot = Slot(name);
  return slot != nullptr ? slot->get() : nullptr;
}

FileBytes Archive::Share(std::string_view name) const {
  const FileBytes* slot = Slot(name);
  return slot != nullptr ? *slot : nullptr;
}

size_t Archive::ContentBytes() const {
  size_t total = 0;
  for (const auto& [name, contents] : members_) {
    total += contents->size();
  }
  return total;
}

std::string Archive::Serialize() const {
  size_t size = sizeof(kMagic) + 2 * sizeof(uint32_t);  // magic, count, CRC
  for (const auto& [name, contents] : members_) {
    size += 2 * sizeof(uint32_t) + name.size() + contents->size();
  }
  std::string out;
  out.reserve(size);
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, static_cast<uint32_t>(members_.size()));
  for (const auto& [name, contents] : members_) {
    PutCounted(&out, name);
    PutCounted(&out, *contents);
  }
  PutU32(&out, Crc32(out));
  return out;
}

std::optional<std::vector<ArchiveMemberView>> Archive::ParseViews(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + 2 * sizeof(uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::string_view body = bytes.substr(0, bytes.size() - sizeof(uint32_t));
  std::string_view crc_view = bytes.substr(bytes.size() - sizeof(uint32_t));
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, crc_view.data(), sizeof(stored_crc));
  if (stored_crc != Crc32(body)) {
    return std::nullopt;
  }
  std::string_view in = body.substr(sizeof(kMagic));
  uint32_t count = 0;
  if (!GetU32(&in, &count)) {
    return std::nullopt;
  }
  std::vector<ArchiveMemberView> members;
  for (uint32_t i = 0; i < count; ++i) {
    ArchiveMemberView member;
    if (!GetCounted(&in, &member.name) || !GetCounted(&in, &member.contents)) {
      return std::nullopt;
    }
    auto same = std::find_if(members.begin(), members.end(), [&](const ArchiveMemberView& m) {
      return m.name == member.name;
    });
    if (same != members.end()) {
      same->contents = member.contents;
    } else {
      members.push_back(member);
    }
  }
  if (!in.empty()) {
    return std::nullopt;
  }
  return members;
}

std::optional<Archive> Archive::Parse(std::string_view bytes) {
  std::optional<std::vector<ArchiveMemberView>> views = ParseViews(bytes);
  if (!views.has_value()) {
    return std::nullopt;
  }
  Archive archive;
  archive.members_.reserve(views->size());
  for (const ArchiveMemberView& member : *views) {
    archive.members_.emplace_back(member.name, MakeFileBytes(std::string(member.contents)));
  }
  return archive;
}

}  // namespace moira
