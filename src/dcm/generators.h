// Server-specific file generators (paper sections 5.7, 5.8).
//
// Each generator is the sub-program the DCM runs to extract Moira data and
// convert it to one service's format: Hesiod's 11 BIND .db files, the NFS
// credentials/quotas/directories files, the sendmail aliases file plus the
// mailhub password file, and the Zephyr ACL files.  A generator produces an
// archive payload per target (a common one, plus per-host overrides for
// services like NFS whose files differ per server).
//
// The full builds of Hesiod, NFS and mail read each table they need once per
// run and resolve cross-table references from what that read found
// (src/dcm/gen_reads.h).  Their per-record lines come from formatting
// functions that take field values, not rows, and that the incremental patch
// builders share, so a patched file and a fresh regeneration agree byte for
// byte.  The Zephyr generator, which expands a few ACL lists, still probes.
#ifndef MOIRA_SRC_DCM_GENERATORS_H_
#define MOIRA_SRC_DCM_GENERATORS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/dcm/delta.h"
#include "src/update/archive.h"
#include "src/update/patch.h"

namespace moira {

struct GeneratorResult {
  // Payload shipped to every host of the service...
  Archive common;
  // ...unless the host has an override here (keyed by canonical machine
  // name).  NFS partition files and per-host credentials land here.
  std::map<std::string, Archive> per_host;

  // The archive that will be shipped to `host`.
  const Archive& ForHost(const std::string& host) const {
    auto it = per_host.find(host);
    return it != per_host.end() ? it->second : common;
  }
};

// Returns MR_SUCCESS and fills `out`, or an error code.  Generators do not
// decide MR_NO_CHANGE themselves; the DCM compares table modtimes first.
// Every call reads afresh: nothing is cached between calls or generators.
using GeneratorFn = std::function<int32_t(MoiraContext&, GeneratorResult*)>;

int32_t GenerateHesiod(MoiraContext& mc, GeneratorResult* out);
int32_t GenerateNfs(MoiraContext& mc, GeneratorResult* out);
int32_t GenerateMail(MoiraContext& mc, GeneratorResult* out);
int32_t GenerateZephyrAcls(MoiraContext& mc, GeneratorResult* out);

// --- incremental patch builders (DESIGN.md "Incremental propagation") ---

// Keyed edits for one archive member, before the DCM resolves them against
// the staged bytes (computes CRCs, drops no-op members, updates the staged
// archive).
struct MemberEdit {
  KeyRule rule = KeyRule::kFirstToken;
  bool replace = false;       // whole-file rebuild (unkeyed members)
  std::string replacement;    // contents when replace is set
  std::vector<PatchOp> ops;   // keyed edits otherwise

  bool operator==(const MemberEdit&) const = default;
};

// The edits a delta plan implies for one service: edits against the common
// archive plus per-host edits (keyed by canonical machine name, for services
// like NFS whose files differ per server).
struct ServicePatch {
  std::map<std::string, MemberEdit> common;
  std::map<std::string, std::map<std::string, MemberEdit>> per_host;

  bool empty() const { return common.empty() && per_host.empty(); }
};

// Recomputes the blocks of every dirty record in `plan` against the current
// database state, probing (ExactOne) for each one and formatting its lines
// with the full build's functions, and emits the implied edits; a dirty
// topology file is rebuilt whole with the full build's code.  Builders see
// the staged result only to know which per-host archives exist; the DCM
// diffs the edits against the staged bytes afterwards.  Any nonzero return
// escalates the service to a full regeneration.
using PatchBuilderFn = std::function<int32_t(
    MoiraContext&, const DeltaPlan&, const GeneratorResult&, ServicePatch*)>;

int32_t BuildHesiodPatch(MoiraContext& mc, const DeltaPlan& plan,
                         const GeneratorResult& staged, ServicePatch* out);
int32_t BuildNfsPatch(MoiraContext& mc, const DeltaPlan& plan,
                      const GeneratorResult& staged, ServicePatch* out);
int32_t BuildMailPatch(MoiraContext& mc, const DeltaPlan& plan,
                       const GeneratorResult& staged, ServicePatch* out);

// --- helpers shared by the generators (exposed for tests) ---

// Recursively expands a list to its USER member logins (active users only if
// `active_only`); STRING members are returned verbatim.  The Zephyr
// generator probes through it, since an ACL names its STRING members.
std::vector<std::string> ExpandListToLogins(MoiraContext& mc, int64_t list_id,
                                            bool active_only);

// The same expansion without STRING members: only the logins of users
// reached through USER members and LIST containment, so a STRING member that
// spells a login admits no one.  A value3-restricted NFS server's
// credentials (full build and patch path) and the delta plan's dirty-list
// expansion use it.
std::vector<std::string> ExpandListToUserLogins(MoiraContext& mc, int64_t list_id,
                                                bool active_only);

// The (group name, gid) pairs of every active group list a user belongs to,
// directly or through sub-lists, in ascending list id.  Only USER members
// and LIST containment count; a STRING member is no user.
struct GroupMembership {
  std::string group_name;
  int64_t gid = 0;
};
// The pairs of every active user, keyed by users_id, from one read each of
// the users, list and members relations and one walk down the members of
// each active group list.
std::map<int64_t, std::vector<GroupMembership>> BuildUserGroupMap(MoiraContext& mc);

// The same pairs for one user, recomputed from the containing-list closure.
// Matches BuildUserGroupMap's per-user vector exactly; the patch builders
// use it.
std::vector<GroupMembership> UserGroupsFor(MoiraContext& mc, int64_t users_id);

}  // namespace moira

#endif  // MOIRA_SRC_DCM_GENERATORS_H_
