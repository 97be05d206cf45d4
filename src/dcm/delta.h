// Journal-delta extraction for incremental DCM propagation.
//
// The journal's monotone sequence numbers name exactly which mutations
// happened since a service's last successful generation pass
// (servers.last_gen_seq).  ExtractDeltaPlan folds that entry range into the
// set of *records* whose generated blocks may have changed — dirty logins,
// dirty list names, dirty (filesystem, login) quota pairs, and dirty-file
// flags for the small rebuild-whole-file members — plus per-service (or
// global) full-regeneration escalations for the rare mutations whose reach
// cannot be bounded after the fact (renames, deletes with cascades, uid
// changes).  Unknown queries escalate to a full regeneration of everything:
// the plan is safe by default.
#ifndef MOIRA_SRC_DCM_DELTA_H_
#define MOIRA_SRC_DCM_DELTA_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/server/journal.h"

namespace moira {

struct DeltaPlan {
  // Every service must regenerate from scratch (rename/delete-class ops).
  bool full_all = false;
  // Specific services that must regenerate from scratch.
  std::set<std::string> full_services;

  // Logins whose per-user blocks must be recomputed (passwd/uid/pobox/
  // grplist entries, mail route + passwd line, credentials line).
  std::set<std::string> users;
  // List names whose per-list blocks must be recomputed (group/gid entries,
  // alias + owner-alias lines).
  std::set<std::string> lists;
  // (filesystem label, login) pairs whose quota blocks must be recomputed.
  std::set<std::pair<std::string, std::string>> quotas;

  // Small files rebuilt whole (and shipped as replacements) when dirty.
  bool clusters_dirty = false;   // hesiod cluster.db
  bool filsys_dirty = false;     // hesiod filsys.db
  bool printcaps_dirty = false;  // hesiod printcap.db
  bool services_dirty = false;   // hesiod service.db
  bool sloc_dirty = false;       // hesiod sloc.db
  // Zephyr ACLs are few and expansion-heavy: any relevant mutation triggers
  // a full ACL regeneration, diffed against the staged files for shipping.
  bool zephyr_dirty = false;
  // Quota accounting state (quotausage rows or nfsquota limits) changed
  // in this range.  No generated-file footprint of its own, but the quota
  // sweep uses it to skip idle passes (src/quota/quota.cc).
  bool quota_state_dirty = false;

  size_t entries = 0;  // journal entries folded into this plan

  bool FullFor(const std::string& service) const {
    return full_all || full_services.contains(service);
  }
};

// Folds a journal entry range into a DeltaPlan.  `mc` is only read (to
// resolve membership expansions and containing lists after the fact); pass
// the same context the patch builders will read from.
DeltaPlan ExtractDeltaPlan(MoiraContext& mc,
                           const std::vector<JournalEntry>& entries);

// Executes a mutation query through the registry and journals it on success,
// mirroring the Moira server's dispatch path (for benches and tests that
// drive churn without a wire server).  Returns the query's code.
int32_t ExecuteJournaled(MoiraContext& mc, Journal* journal,
                         std::string_view principal, std::string_view client,
                         std::string_view query,
                         const std::vector<std::string>& args,
                         const TupleSink& emit = [](Tuple) {});

}  // namespace moira

#endif  // MOIRA_SRC_DCM_DELTA_H_
