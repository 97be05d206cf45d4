// Typed cell values for the Moira database engine.
//
// The Moira schema (paper section 6) uses exactly two column types: integers
// (ids, uids, flags, unix-format times) and strings (names, descriptions).
//
// A Value is a 16-byte tagged cell.  Byte 15 is the tag; bytes 0-14 hold
//   - an int64_t in bytes 0-7 (tag kIntTag);
//   - a string of at most 15 bytes, inline (tag = its length, 0-15);
//   - a longer string in an exact-size heap buffer the cell owns: the
//     buffer's address in bytes 0-7, its 32-bit length in bytes 8-11 (tag
//     kHeapTag).  A string of 2^32 bytes or more aborts in every build.
// Bytes a kind does not use are zero, so two cells that hold no heap string
// are equal exactly when their 16 bytes are.  Values order ints before
// strings, ints numerically and strings by unsigned bytes (std::string's
// order), so every index encoding built on that order is unaffected by the
// layout.
//
// AsString() is a view into the cell, and for an inline string into the
// Value object itself: it lives only as long as the cell holds that string
// where it is.  A write to the cell, moving it (a std::vector<Value> that
// reallocates) or destroying it (a temporary that ends) leaves the view
// dangling; copy it into a std::string to keep it.  A table's cells never
// move (src/db/table.h).
#ifndef MOIRA_SRC_DB_VALUE_H_
#define MOIRA_SRC_DB_VALUE_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

namespace moira {

enum class ColumnType { kInt, kString };

class Value {
 public:
  Value() noexcept : Value(int64_t{0}) {}
  Value(int64_t i) noexcept {  // NOLINT(google-explicit-constructor)
    std::memset(bytes_, 0, sizeof bytes_);
    std::memcpy(bytes_, &i, sizeof i);
    bytes_[kTagByte] = kIntTag;
  }
  Value(int i) noexcept : Value(static_cast<int64_t>(i)) {}    // NOLINT(google-explicit-constructor)
  Value(std::string_view s) { InitString(s); }                 // NOLINT(google-explicit-constructor)
  Value(const std::string& s) : Value(std::string_view(s)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* s) : Value(std::string_view(s)) {}         // NOLINT(google-explicit-constructor)

  Value(const Value& other) {
    if (other.is_heap()) {
      InitString(other.AsString());
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof bytes_);
    }
  }
  // A moved-from Value that held a heap string is left the empty string.
  Value(Value&& other) noexcept { Steal(&other); }
  Value& operator=(const Value& other) {
    if (this != &other) {
      *this = Value(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(&other);
    }
    return *this;
  }
  ~Value() { Release(); }

  bool is_int() const { return bytes_[kTagByte] == kIntTag; }
  bool is_string() const { return !is_int(); }
  ColumnType type() const { return is_int() ? ColumnType::kInt : ColumnType::kString; }

  int64_t AsInt() const {
    int64_t i = 0;
    if (is_int()) {
      std::memcpy(&i, bytes_, sizeof i);
    }
    return i;
  }
  // The string, or an empty view for an int; see the header comment for how
  // long the view lives.
  std::string_view AsString() const {
    const unsigned char tag = bytes_[kTagByte];
    if (tag <= kInlineMax) {
      return std::string_view(reinterpret_cast<const char*>(bytes_), tag);
    }
    return tag == kHeapTag ? std::string_view(HeapData(), HeapSize()) : std::string_view();
  }

  // Renders the value as the string used in wire tuples and generated files.
  std::string ToString() const {
    return is_int() ? std::to_string(AsInt()) : std::string(AsString());
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.is_heap() || b.is_heap()) {
      return a.is_heap() && b.is_heap() && a.AsString() == b.AsString();
    }
    return std::memcmp(a.bytes_, b.bytes_, sizeof a.bytes_) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    if (a.is_int() || b.is_int()) {
      return a.is_int() && b.is_int() ? a.AsInt() < b.AsInt() : a.is_int();
    }
    return a.AsString() < b.AsString();
  }

 private:
  static constexpr size_t kTagByte = 15;
  static constexpr unsigned char kInlineMax = 15;
  static constexpr unsigned char kHeapTag = 16;
  static constexpr unsigned char kIntTag = 17;

  bool is_heap() const { return bytes_[kTagByte] == kHeapTag; }
  char* HeapData() const {
    char* data = nullptr;
    std::memcpy(&data, bytes_, sizeof data);
    return data;
  }
  uint32_t HeapSize() const {
    uint32_t size = 0;
    std::memcpy(&size, bytes_ + 8, sizeof size);
    return size;
  }

  void InitString(std::string_view s) {
    std::memset(bytes_, 0, sizeof bytes_);
    if (s.size() <= kInlineMax) {
      if (!s.empty()) {
        std::memcpy(bytes_, s.data(), s.size());
      }
      bytes_[kTagByte] = static_cast<unsigned char>(s.size());
      return;
    }
    if (s.size() > std::numeric_limits<uint32_t>::max()) {
      std::fprintf(stderr, "moira: a %zu-byte string does not fit a cell's 32-bit length\n",
                   s.size());
      std::abort();
    }
    char* data = new char[s.size()];
    std::memcpy(data, s.data(), s.size());
    const auto size = static_cast<uint32_t>(s.size());
    std::memcpy(bytes_, &data, sizeof data);
    std::memcpy(bytes_ + 8, &size, sizeof size);
    bytes_[kTagByte] = kHeapTag;
  }
  // Takes over `other`'s contents, leaving it the empty string if it owned a
  // buffer.  The caller has released this cell's own buffer, if any.
  void Steal(Value* other) noexcept {
    std::memcpy(bytes_, other->bytes_, sizeof bytes_);
    if (other->is_heap()) {
      std::memset(other->bytes_, 0, sizeof other->bytes_);
    }
  }
  void Release() noexcept {
    if (is_heap()) {
      delete[] HeapData();
    }
  }

  alignas(8) unsigned char bytes_[16];
};

static_assert(sizeof(Value) == 16, "a cell is 16 bytes");

}  // namespace moira

#endif  // MOIRA_SRC_DB_VALUE_H_
