#include "src/update/patch.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/common/checksum.h"

namespace moira {
namespace {

constexpr char kPatchMagic[4] = {'M', 'P', 'A', 'T'};

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

bool GetCounted(std::string_view* in, std::string* s) {
  uint32_t len = 0;
  if (!GetU32(in, &len) || in->size() < len) {
    return false;
  }
  s->assign(in->data(), len);
  in->remove_prefix(len);
  return true;
}

// The key a line belongs to under a rule.
std::string_view KeyOf(std::string_view line, KeyRule rule) {
  if (rule == KeyRule::kUpToColon) {
    return line.substr(0, line.find(':'));
  }
  size_t start = 0;
  while (start < line.size() && (line[start] == ' ' || line[start] == '\t')) {
    ++start;
  }
  size_t end = start;
  while (end < line.size() && line[end] != ' ' && line[end] != '\t') {
    ++end;
  }
  return line.substr(start, end - start);
}

bool IsPrologueLine(std::string_view line) {
  return !line.empty() && (line[0] == ';' || line[0] == '#');
}

// Appends an upsert's block as SetBlock stores it (a delete appends nothing).
void AppendOp(const PatchOp& op, std::string* out) {
  if (op.kind == PatchOp::kUpsert && !op.block.empty()) {
    out->append(op.block);
    if (op.block.back() != '\n') {
      out->push_back('\n');
    }
  }
}

}  // namespace

KeyedFile KeyedFile::Parse(std::string_view text, KeyRule rule) {
  KeyedFile file(rule);
  bool in_prologue = true;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    if (in_prologue && IsPrologueLine(line)) {
      file.AppendPrologue(line);
      continue;
    }
    in_prologue = false;
    if (!line.empty()) {
      file.AppendLine(line);
    }
  }
  return file;
}

uint32_t KeyedFile::Store(std::string_view bytes) {
  if (bytes.size() > std::numeric_limits<uint32_t>::max() - text_.size()) {
    std::fprintf(stderr, "moira: a keyed file passes 2^32 - 1 bytes: its spans are 32-bit\n");
    std::abort();
  }
  const auto offset = static_cast<uint32_t>(text_.size());
  text_.append(bytes);
  return offset;
}

void KeyedFile::AppendLine(std::string_view line) {
  if (line.empty()) {
    for (const Span& span : spans_) {
      if (span.key_size == 0 && span.text_size > 0) {
        return;
      }
    }
    const uint32_t offset = Store("\n");
    spans_.push_back(Span{offset, 0, offset, 1});
    return;
  }
  const uint32_t offset = Store(line);
  if (line.back() != '\n') {
    Store("\n");
  }
  const std::string_view key = KeyOf(std::string_view(text_).substr(offset, line.size()), rule_);
  spans_.push_back(Span{static_cast<uint32_t>(key.data() - text_.data()),
                        static_cast<uint32_t>(key.size()), offset,
                        static_cast<uint32_t>(text_.size() - offset)});
}

void KeyedFile::AppendPrologue(std::string_view line) {
  prologue_.append(line);
  if (prologue_.empty() || prologue_.back() != '\n') {
    prologue_.push_back('\n');
  }
}

void KeyedFile::SetBlock(std::string_view key, std::string_view block) {
  DeleteBlock(key);
  const uint32_t key_offset = Store(key);
  const uint32_t offset = Store(block);
  if (!block.empty() && block.back() != '\n') {
    Store("\n");
  }
  spans_.push_back(Span{key_offset, static_cast<uint32_t>(key.size()), offset,
                        static_cast<uint32_t>(text_.size() - offset)});
}

void KeyedFile::DeleteBlock(std::string_view key) {
  std::erase_if(spans_, [&](const Span& span) { return SpanKey(span) == key; });
}

std::string KeyedFile::Serialize() const {
  std::vector<Span> sorted = spans_;
  std::stable_sort(sorted.begin(), sorted.end(), [this](const Span& a, const Span& b) {
    return SpanKey(a) < SpanKey(b);
  });
  size_t size = prologue_.size();
  for (const Span& span : sorted) {
    size += span.text_size;
  }
  std::string out;
  out.reserve(size);
  out.append(prologue_);
  for (const Span& span : sorted) {
    out.append(text_, span.text_offset, span.text_size);
  }
  return out;
}

void ArchivePatch::Add(FilePatch patch) {
  for (FilePatch& existing : files_) {
    if (existing.member == patch.member) {
      existing = std::move(patch);
      return;
    }
  }
  files_.push_back(std::move(patch));
}

const FilePatch* ArchivePatch::Find(std::string_view member) const {
  for (const FilePatch& patch : files_) {
    if (patch.member == member) {
      return &patch;
    }
  }
  return nullptr;
}

std::string ArchivePatch::Serialize() const {
  std::string out(kPatchMagic, sizeof(kPatchMagic));
  PutU32(&out, static_cast<uint32_t>(files_.size()));
  for (const FilePatch& file : files_) {
    PutCounted(&out, file.member);
    PutCounted(&out, file.path);
    PutU32(&out, static_cast<uint32_t>(file.key_rule));
    PutU32(&out, file.base_crc);
    PutU32(&out, file.result_crc);
    PutU32(&out, file.replace ? 1 : 0);
    PutCounted(&out, file.contents);
    PutU32(&out, static_cast<uint32_t>(file.ops.size()));
    for (const PatchOp& op : file.ops) {
      PutU32(&out, static_cast<uint32_t>(op.kind));
      PutCounted(&out, op.key);
      PutCounted(&out, op.block);
    }
  }
  PutU32(&out, Crc32(out));
  return out;
}

std::optional<ArchivePatch> ArchivePatch::Parse(std::string_view bytes) {
  if (bytes.size() < sizeof(kPatchMagic) + 2 * sizeof(uint32_t) ||
      std::memcmp(bytes.data(), kPatchMagic, sizeof(kPatchMagic)) != 0) {
    return std::nullopt;
  }
  std::string_view body = bytes.substr(0, bytes.size() - sizeof(uint32_t));
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body.size(), sizeof(stored_crc));
  if (stored_crc != Crc32(body)) {
    return std::nullopt;
  }
  std::string_view in = body.substr(sizeof(kPatchMagic));
  uint32_t count = 0;
  if (!GetU32(&in, &count)) {
    return std::nullopt;
  }
  ArchivePatch patch;
  for (uint32_t i = 0; i < count; ++i) {
    FilePatch file;
    uint32_t rule = 0;
    uint32_t replace = 0;
    uint32_t op_count = 0;
    if (!GetCounted(&in, &file.member) || !GetCounted(&in, &file.path) ||
        !GetU32(&in, &rule) || !GetU32(&in, &file.base_crc) ||
        !GetU32(&in, &file.result_crc) || !GetU32(&in, &replace) ||
        !GetCounted(&in, &file.contents) || !GetU32(&in, &op_count)) {
      return std::nullopt;
    }
    if (rule > static_cast<uint32_t>(KeyRule::kUpToColon)) {
      return std::nullopt;
    }
    file.key_rule = static_cast<KeyRule>(rule);
    file.replace = replace != 0;
    for (uint32_t j = 0; j < op_count; ++j) {
      PatchOp op;
      uint32_t kind = 0;
      if (!GetU32(&in, &kind) || kind > PatchOp::kDelete ||
          !GetCounted(&in, &op.key) || !GetCounted(&in, &op.block)) {
        return std::nullopt;
      }
      op.kind = static_cast<PatchOp::Kind>(kind);
      file.ops.push_back(std::move(op));
    }
    patch.Add(std::move(file));
  }
  if (!in.empty()) {
    return std::nullopt;
  }
  return patch;
}

std::optional<std::string> SpliceKeyedOps(std::string_view text, KeyRule rule,
                                          const std::vector<PatchOp>& ops) {
  // The last op on each key, in ascending key order.
  std::vector<const PatchOp*> pending;
  pending.reserve(ops.size());
  size_t added = 0;
  for (const PatchOp& op : ops) {
    pending.push_back(&op);
    added += op.block.size() + 1;
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PatchOp* a, const PatchOp* b) { return a->key < b->key; });
  size_t kept = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    if (i + 1 == pending.size() || pending[i + 1]->key != pending[i]->key) {
      pending[kept++] = pending[i];
    }
  }
  pending.resize(kept);

  std::string out;
  out.reserve(text.size() + added);
  size_t pos = 0;
  while (pos < text.size() && IsPrologueLine(text.substr(pos))) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      return std::nullopt;  // Serialize ends every line with a newline
    }
    pos = nl + 1;
  }
  // text[0, copied) is in `out` or was dropped with a replaced block.
  size_t copied = 0;
  auto flush = [&](size_t upto) {
    out.append(text.substr(copied, upto - copied));
    copied = upto;
  };
  auto next = pending.begin();
  std::string_view block_key;
  bool in_block = false;
  bool replacing = false;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos || nl == pos) {
      return std::nullopt;  // a missing final newline or an empty line
    }
    std::string_view key = KeyOf(text.substr(pos, nl - pos), rule);
    if (!in_block || key != block_key) {
      if (in_block && key < block_key) {
        return std::nullopt;  // blocks out of order, or a key in two runs
      }
      // A block starts here: new keys sorting before it go first, and an op
      // on its own key replaces it.
      for (; next != pending.end() && (*next)->key < key; ++next) {
        flush(pos);
        AppendOp(**next, &out);
      }
      replacing = next != pending.end() && (*next)->key == key;
      if (replacing) {
        flush(pos);
        AppendOp(**next, &out);
        ++next;
      }
      block_key = key;
      in_block = true;
    }
    pos = nl + 1;
    if (replacing) {
      copied = pos;
    }
  }
  flush(text.size());
  for (; next != pending.end(); ++next) {
    AppendOp(**next, &out);
  }
  return out;
}

std::optional<std::string> ApplyFilePatch(std::string_view base,
                                          const FilePatch& patch) {
  if (Crc32(base) != patch.base_crc) {
    return std::nullopt;
  }
  std::optional<std::string> result =
      patch.replace ? std::optional<std::string>(patch.contents)
                    : SpliceKeyedOps(base, patch.key_rule, patch.ops);
  if (!result.has_value() || Crc32(*result) != patch.result_crc) {
    return std::nullopt;
  }
  return result;
}

}  // namespace moira
