// Helpers shared by the predefined-query implementations
// (src/core/queries_*.cc).  Internal to moira_core.
#ifndef MOIRA_SRC_CORE_QUERIES_COMMON_H_
#define MOIRA_SRC_CORE_QUERIES_COMMON_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/strutil.h"
#include "src/core/acl.h"
#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/db/exec.h"

namespace moira {

// Parses an integer argument; MR_INTEGER on failure.
inline int32_t RequireInt(std::string_view arg, int64_t* out) {
  std::optional<int64_t> v = ParseInt(arg);
  if (!v.has_value()) {
    return MR_INTEGER;
  }
  *out = *v;
  return MR_SUCCESS;
}

// Parses a boolean argument (0 = false, non-zero = true per the paper).
inline int32_t RequireBool(std::string_view arg, int64_t* out) {
  int64_t v = 0;
  if (int32_t code = RequireInt(arg, &v); code != MR_SUCCESS) {
    return code;
  }
  *out = v != 0 ? 1 : 0;
  return MR_SUCCESS;
}

// Tri-state flag for the qualified_get_* queries: TRUE, FALSE, or DONTCARE.
// Returns MR_TYPE for anything else; *out is 1 / 0 / -1.
inline int32_t RequireTriState(std::string_view arg, int* out) {
  if (arg == "TRUE") {
    *out = 1;
  } else if (arg == "FALSE") {
    *out = 0;
  } else if (arg == "DONTCARE") {
    *out = -1;
  } else {
    return MR_TYPE;
  }
  return MR_SUCCESS;
}

// Adds a tri-state flag test as a *planned* predicate: DONTCARE adds nothing,
// FALSE probes for 0, TRUE becomes the range predicate `cell >= 1`.  The
// range form is equivalent to `cell != 0` because every tri-state column is
// non-negative (RequireBool coerces flags to 0/1; MR error codes are
// positive), and unlike `!= 0` the planner can serve it from an ordered
// index.
inline void WhereTriState(Selector* sel, std::string_view column, int tri) {
  if (tri == 0) {
    sel->WhereEq(column, Value(int64_t{0}));
  } else if (tri == 1) {
    sel->WhereGe(column, Value(int64_t{1}));
  }
}

// Validates name-field characters; MR_BAD_CHAR on violation.
inline int32_t RequireLegalChars(std::string_view arg) {
  return IsLegalNameChars(arg) ? MR_SUCCESS : MR_BAD_CHAR;
}

// Common self-access hooks.
bool SelfIsArg0Login(MoiraContext& mc, std::string_view principal,
                     const std::vector<std::string>& args);
bool SelfOnListAce(MoiraContext& mc, std::string_view principal,
                   const std::vector<std::string>& args);
bool SelfOnServiceAce(MoiraContext& mc, std::string_view principal,
                      const std::vector<std::string>& args);

// Called before nfsquota row `quota_row` is deleted, so the accounting never
// dangles (queries_quota.cc).  Usage is kept per (user, partition): while the
// user holds another quota on the partition, the quotausage row stays and
// is accounted under the filesystem of the quota ReportQuotaUsage will pick;
// otherwise it is deleted.
void RemoveQuotaUsage(MoiraContext& mc, size_t quota_row);

// Renders an int64 cell as a decimal string.
inline std::string IntStr(const Table* table, size_t row, const char* column) {
  return std::to_string(MoiraContext::IntCell(table, row, column));
}

}  // namespace moira

#endif  // MOIRA_SRC_CORE_QUERIES_COMMON_H_
