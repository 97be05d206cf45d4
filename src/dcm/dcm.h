// The Data Control Manager (paper section 5.7).
//
// Invoked regularly by cron (here: RunOnce()), the DCM scans the services
// table for services that are enabled, error-free, and due; generates their
// server files (skipping generation with MR_NO_CHANGE when no relevant table
// changed since dfgen); then scans the serverhosts table and pushes the
// generated files to every enabled, error-free host that has not been updated
// since the files were generated (or has override set), via the update
// protocol of section 5.9.  Hard errors raise a zephyrgram on class MOIRA
// instance DCM.
#ifndef MOIRA_SRC_DCM_DCM_H_
#define MOIRA_SRC_DCM_DCM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/dcm/generators.h"
#include "src/dcm/locks.h"
#include "src/server/journal.h"
#include "src/update/sim_host.h"
#include "src/update/update_client.h"
#include "src/zephyrd/zephyr_bus.h"

namespace moira {

// The principal the DCM authenticates as for host updates.
inline constexpr char kDcmPrincipal[] = "moira.dcm";

// serverhosts.breaker states, persisted across DCM passes (and rendered by
// the privileged get_server_host_health query).
inline constexpr int64_t kBreakerClosed = 0;
inline constexpr int64_t kBreakerOpen = 1;
inline constexpr int64_t kBreakerHalfOpen = 2;

struct DcmServiceConfig {
  GeneratorFn generator;
  // Tables whose modification invalidates this service's generated files.
  std::vector<std::string> relevant_tables;
  // The install instruction sequence shipped to the hosts (the "script"
  // column names it; the DCM owns the content, one per service).
  std::string script;
  // Incremental mode (journal attached): recomputes the blocks of the dirty
  // records in a delta plan.  Null: the service falls back to
  // regenerate-and-diff, still shipping patches but paying full-scan reads.
  PatchBuilderFn patch_builder;
  // Whether a delta plan touches this service at all; a pass whose plan does
  // not affect the service skips generation entirely (the seq high-water
  // mark still advances).  Null: any journal entry counts as relevant.
  std::function<bool(const DeltaPlan&)> delta_affected;
};

struct DcmRunSummary {
  bool ran = false;             // false if /etc/nodcm or dcm_enable=0
  int services_considered = 0;
  int services_generated = 0;   // generators that produced fresh files
  int services_no_change = 0;   // skipped via MR_NO_CHANGE
  int generation_hard_errors = 0;
  int hosts_updated = 0;
  int host_soft_failures = 0;
  int host_hard_failures = 0;
  int64_t bytes_propagated = 0;
  int files_generated = 0;      // total archive members across fresh payloads
  int propagations = 0;         // file deliveries: members x hosts reached
  // Resilience-layer counters (DESIGN.md).
  int host_retries = 0;         // in-pass retry attempts beyond the first
  int update_timeouts = 0;      // updates that ended on a phase deadline
  int breaker_opens = 0;        // hosts quarantined this pass
  int breaker_skips = 0;        // update attempts saved by open breakers
  int probe_successes = 0;      // half-open probes that closed the breaker
  int probe_failures = 0;       // half-open probes that re-opened it
  int directory_outages = 0;    // updates deferred because Hesiod was down
  // Incremental-propagation counters (journal mode; DESIGN.md).
  int services_patched = 0;       // passes that staged a keyed/diff patch
  int services_delta_skipped = 0; // journal showed no relevant mutations
  int full_regens = 0;            // journal-mode passes regenerated fully
  int truncation_fallbacks = 0;   // full regens forced by a truncated journal
  int patch_ships = 0;            // host updates delivered as patches
  int patch_fallbacks = 0;        // base-CRC refusals -> full archive reship
  int64_t journal_entries_examined = 0;
  int64_t generation_rows_primary = 0;  // generation reads on the primary
  int64_t generation_rows_replica = 0;  // generation reads on the replica
};

// Knobs for the DCM's resilience layer: the in-pass retry policy handed to
// the UpdateClient and the per-host circuit breaker.  Disabled reproduces the
// paper's one-attempt-per-pass behaviour exactly.
struct DcmResilienceConfig {
  bool enabled = true;
  // Consecutive soft failures (across passes) that open a host's breaker.
  int breaker_threshold = 3;
  // How long an open breaker quarantines its host before a half-open probe.
  UnixTime breaker_cooldown = kSecondsPerHour;
  RetryPolicy retry;            // default: one attempt, no in-pass retries
  UpdateDeadlines deadlines;    // default: unbounded phases
};

class Dcm {
 public:
  Dcm(MoiraContext* mc, KerberosRealm* realm, ZephyrBus* zephyr, HostDirectory* hosts);

  // Registers the generator, incremental-check table list, and install
  // script for a service name (uppercase, matching the servers relation).
  void ConfigureService(const std::string& service, DcmServiceConfig config);

  // The /etc/nodcm disable file (paper section 5.7.1).
  void set_nodcm(bool nodcm) { nodcm_ = nodcm; }

  // Installs the resilience configuration (retry policy, phase deadlines,
  // breaker thresholds).  May be called between runs to reconfigure.
  void set_resilience(const DcmResilienceConfig& config);
  const DcmResilienceConfig& resilience() const { return resilience_; }

  // Access to the update client, e.g. to install a sleep hook that advances
  // a simulated clock during retry backoffs.
  UpdateClient& update_client() { return update_client_; }

  // Attaches the server journal: generation switches from table-modtime
  // checks to journal-delta extraction (servers.last_gen_seq records each
  // service's consumed prefix), and host updates ship keyed patches with a
  // full-archive fallback (DESIGN.md "Incremental propagation").  Null
  // detaches and restores the legacy behaviour.
  void AttachJournal(const Journal* journal) { journal_ = journal; }

  // Routes generation reads through a replica context.  At the start of each
  // pass `catch_up` is invoked with the pass's high-water journal seq and
  // must return true once the replica has applied at least that much; on
  // false the pass falls back to reading the primary.  Null detaches.
  void SetReadSource(MoiraContext* replica,
                     std::function<bool(uint64_t)> catch_up);

  // One cron-invoked DCM pass over all services and hosts.
  DcmRunSummary RunOnce();

  // The generated payload currently staged for a service (empty name -> the
  // common archive).  Exposed for tests and benches.
  const GeneratorResult* StagedPayload(const std::string& service) const;

  LockManager& locks() { return locks_; }

 private:
  struct ServiceRow;

  // One host's shippable patch bytes plus its file count (for propagation
  // accounting).
  struct HostPatch {
    std::string bytes;
    int files = 0;
  };
  // The patch staged by the last generating pass of a service.  Hosts whose
  // lts matches base_dfgen (they installed the previous payload) take the
  // patch; everyone else gets the full archive.
  struct PatchState {
    UnixTime base_dfgen = 0;
    std::string script;  // applypatch + the service script's exec tail
    // Keyed by machine name; "" holds the common-archive patch.  A machine
    // present in the staged per-host map but untouched by the pass maps to
    // an empty (bump-only) patch.
    std::map<std::string, HostPatch> per_host;
  };

  bool GenerationDue(const ServiceRow& service) const;
  bool TablesChangedSince(const DcmServiceConfig& config, UnixTime since) const;
  void GeneratePhase(const ServiceRow& service, DcmRunSummary* summary);
  // Journal-mode generation: delta extraction, patch build, fallbacks.
  void JournalGenerate(const ServiceRow& service, const DcmServiceConfig& config,
                       UnixTime now, DcmRunSummary* summary);
  void HostScanPhase(const ServiceRow& service, DcmRunSummary* summary);
  void ReportHardError(const std::string& where, const std::string& message);

  // The context generation reads go through (the replica when a read source
  // is attached and caught up, the primary otherwise).
  MoiraContext& GenContext();
  // Adds the rows examined in `gen`'s database since `rows_before` to the
  // matching generation-read counter.
  void ChargeGenerationRows(MoiraContext& gen, int64_t rows_before,
                            DcmRunSummary* summary);

  // Applies keyed/replace edits to `archive` in place and appends a
  // FilePatch per member whose bytes changed.  Returns false when a keyed
  // edit references a missing member or one not in canonical keyed form
  // (caller escalates to a full regeneration).  Each distinct pair of base
  // buffer (matched by identity) and edit (matched by value) is resolved
  // once per pass: a repeat in `memo` shares the first result's buffer and
  // FilePatch, and a recorded no-op stays a no-op.
  struct ResolvedEdit;
  using EditMemo = std::multimap<const std::string*, ResolvedEdit>;  // by base
  bool ResolveEdits(const std::map<std::string, MemberEdit>& edits,
                    const std::string& script, Archive* archive,
                    ArchivePatch* out, EditMemo* memo);

  MoiraContext* mc_;
  ZephyrBus* zephyr_;
  HostDirectory* hosts_;
  UpdateClient update_client_;
  LockManager locks_;
  std::map<std::string, DcmServiceConfig> configs_;
  std::map<std::string, GeneratorResult> staged_;
  std::map<std::string, PatchState> patch_state_;
  DcmResilienceConfig resilience_;
  bool nodcm_ = false;

  const Journal* journal_ = nullptr;
  MoiraContext* read_mc_ = nullptr;
  std::function<bool(uint64_t)> catch_up_;
  bool read_source_ok_ = false;   // this pass: replica caught up to high water
  uint64_t pass_high_seq_ = 0;    // journal last_seq at pass start
};

// Installs the four standard Athena services' generators and scripts
// (HESIOD, NFS, SMTP, ZEPHYR) with the relevant-table lists used for
// incremental generation.
void ConfigureStandardServices(Dcm* dcm);

}  // namespace moira

#endif  // MOIRA_SRC_DCM_DCM_H_
