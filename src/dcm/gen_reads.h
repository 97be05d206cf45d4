// One-scan reads and record fields shared by the generators (private to
// src/dcm).
//
// A full build reads each table it needs once per run.  IdRows keeps a
// table's live rows and finds a row by an integer id column; ListMembers
// keeps every list's direct members.  References resolve through them with
// ExactOne's rules: an id held by no row, or by several (MR_NOT_UNIQUE),
// finds nothing, and the build writes what a failed probe writes ("???",
// uid or gid 0, no line).  The patch builders probe instead: they recompute
// a few dirty records against the live tables.

#ifndef MOIRA_SRC_DCM_GEN_READS_H_
#define MOIRA_SRC_DCM_GEN_READS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/db/table.h"
#include "src/dcm/generators.h"

namespace moira {

class IdRows {
 public:
  IdRows(const Table* table, std::string_view id_column);

  const Table* table() const { return table_; }
  // Every live row, in storage order.
  const std::vector<size_t>& rows() const { return rows_; }
  // The one row holding `id`; nullopt when no row or several do.
  std::optional<size_t> Find(int64_t id) const;
  // Column `column` of that row, or `missing` when there is no one row.
  std::string_view StrOf(int64_t id, int column, std::string_view missing) const;
  int64_t IntOf(int64_t id, int column, int64_t missing) const;

 private:
  const Table* table_;
  std::vector<size_t> rows_;
  std::vector<std::pair<int64_t, size_t>> by_id_;  // ascending (id, row)
};

class ListMembers {
 public:
  // member_type: USER, LIST, STRING, or anything else.
  enum class Type : uint8_t { kUser, kList, kString, kOther };
  struct Member {
    int64_t id = 0;  // member_id
    Type type = Type::kOther;
  };

  explicit ListMembers(const Table* members);

  // The direct members of `list_id`, in storage order.
  std::span<const Member> Of(int64_t list_id) const;

  // Calls visit(member) on every member reached from `list_id` through LIST
  // members.  Each list is walked once, so a membership cycle ends.
  template <typename Visit>
  void Walk(int64_t list_id, Visit&& visit) {
    ++walk_;
    Enter(list_id);
    while (!stack_.empty()) {
      const size_t slot = stack_.back();
      stack_.pop_back();
      for (uint32_t i = starts_[slot]; i < starts_[slot + 1]; ++i) {
        visit(members_[i]);
        if (members_[i].type == Type::kList) {
          Enter(members_[i].id);
        }
      }
    }
  }

 private:
  // The position of `list_id` in list_ids_, if it has members.
  std::optional<size_t> Slot(int64_t list_id) const;
  // Queues `list_id` for the current walk unless it was walked already.
  void Enter(int64_t list_id);

  std::vector<int64_t> list_ids_;  // every list with members, ascending
  std::vector<uint32_t> starts_;   // list_ids_[k] owns members_[starts_[k], starts_[k + 1])
  std::vector<Member> members_;
  std::vector<uint32_t> walked_;   // per slot: the last walk that entered it
  uint32_t walk_ = 0;
  std::vector<size_t> stack_;
};

// The users-relation fields the generators write, as views into one row's
// cells (valid until the row is written).
struct UserFields {
  std::string_view login;
  int64_t users_id = 0;
  int64_t uid = 0;
  int64_t status = 0;
  std::string_view shell;
  std::string_view fullname;
  std::string_view potype;
  int64_t pop_id = 0;
  int64_t box_id = 0;
};

// Reads UserFields with the column positions resolved once.
class UserReader {
 public:
  explicit UserReader(const Table* users);
  UserFields Read(size_t row) const;

 private:
  const Table* users_;
  int login_, users_id_, uid_, status_, shell_, fullname_, potype_, pop_id_, box_id_;
};

// The pairs of every active user (BuildUserGroupMap) from reads the caller
// already holds: one walk down the members of each active group list.
std::map<int64_t, std::vector<GroupMembership>> UserGroupMap(const IdRows& users,
                                                             const IdRows& lists,
                                                             ListMembers& members);

// A standard /etc/passwd line for a user (no newline).
std::string PasswdLine(const UserFields& user);

}  // namespace moira

#endif  // MOIRA_SRC_DCM_GEN_READS_H_
