// The quota engine's service layer (DESIGN.md "Quota engine").
//
// The core queries (src/core/queries_quota.cc) do the accounting; this layer
// closes the loop around them: IngestUsageReports ships a fileserver's
// drained usage deltas through the journalled report_quota_usage path,
// RunQuotaSweep executes the journalled process_quota_sweep pass and turns
// its emitted crossing tuples into Zephyr notices (class MOIRA instance
// QUOTA), ScheduleQuotaSweep puts the sweep on the DCM cron, and
// QuotaTelemetryDriver drives a fleet of NfsServerSims through seeded
// churn/report rounds with at-least-once fault injection — the workload
// generator for bench_quota and the fault-oracle tests.
#ifndef MOIRA_SRC_QUOTA_QUOTA_H_
#define MOIRA_SRC_QUOTA_QUOTA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/fault_schedule.h"
#include "src/common/random.h"
#include "src/core/context.h"
#include "src/dcm/cron.h"
#include "src/nfsd/nfs_server.h"
#include "src/server/journal.h"
#include "src/zephyrd/zephyr_bus.h"

namespace moira {

// Zephyr addressing for hard-limit notices (alongside MOIRA/DCM).
inline constexpr char kQuotaZephyrClass[] = "MOIRA";
inline constexpr char kQuotaZephyrInstance[] = "QUOTA";
inline constexpr char kQuotaSender[] = "moira.quota";

struct QuotaIngestStats {
  int applied = 0;   // reports that changed the accounting
  int deduped = 0;   // stale/duplicate sequences dropped (MR_EXISTS)
  int rejected = 0;  // malformed or unresolvable reports
};

// Ships one fileserver's report lines into the journalled
// report_quota_usage path, in order.  Duplicate deliveries are absorbed by
// the per-machine sequence check and counted in `deduped`.
QuotaIngestStats IngestUsageReports(MoiraContext& mc, Journal* journal,
                                    const std::string& machine,
                                    const std::vector<UsageReportLine>& lines,
                                    std::string_view principal = "root");

struct QuotaSweepSummary {
  bool ran = false;          // false: skipped (no quota-relevant journal traffic)
  int64_t flagged = 0;       // grace expiries flagged this pass
  int64_t notices = 0;       // Zephyr notices fired this pass
  int64_t deduped = 0;       // hard-over rows suppressed by the notice bit
  uint64_t through_seq = 0;  // journal position the sweep covered
};

// Runs one quota sweep as the journalled process_quota_sweep query and sends
// one Zephyr notice per emitted hard-limit crossing.  With `last_swept_seq`
// given, the pass is skipped (ran=false) when the journal entries since that
// sequence carry no quota-relevant mutations — the DeltaPlan dirty bit —
// AND no grace window is currently running (values counter
// quota_grace_pending; grace expiry is driven by time, not by journal
// traffic).  The marker is advanced either way.  A truncation below the
// marker sweeps unconditionally (the safe default, as incremental DCM does).
QuotaSweepSummary RunQuotaSweep(MoiraContext& mc, Journal* journal, ZephyrBus* zephyr,
                                uint64_t* last_swept_seq = nullptr);

// Registers the sweep as cron job "quota_sweep" firing every `interval`
// seconds (alongside "dcm" and "checkpoint").  The first firing always
// sweeps; later firings use the dirty-bit skip.  When `last` is non-null the
// most recent firing's summary is stored there.
void ScheduleQuotaSweep(CronScheduler* cron, MoiraContext* mc, Journal* journal,
                        ZephyrBus* zephyr, UnixTime interval,
                        QuotaSweepSummary* last = nullptr);

// Fault dimensions for one telemetry round (at-least-once transport).
struct QuotaFaultPlan {
  int duplicate_permille = 0;  // per server-round: redeliver just-shipped lines
  int defer_permille = 0;      // per server-round: hold this server's drain
};

// Drives attached NfsServerSims through seeded usage-churn rounds and ships
// their drained reports through IngestUsageReports.  Deterministic for a
// given seed, attach order, and fault plan; the servers' usage() maps remain
// the ground truth an oracle can compare the accounting tables against.
class QuotaTelemetryDriver {
 public:
  struct AttachedServer {
    std::string machine;
    NfsServerSim* server;
    std::vector<UsageReportLine> pending;  // drained but not yet shipped
  };

  // Churn draws from its own sequential stream; faults draw from a
  // FaultSchedule seeded ~seed, on the stream of (round, the server's attach
  // index).  So two runs differing only in their fault plan see
  // byte-identical churn (the oracle tests compare a faulty run against an
  // exactly-once run), and one server's draws never shift another's.
  QuotaTelemetryDriver(MoiraContext* mc, Journal* journal, uint64_t seed)
      : mc_(mc), journal_(journal), churn_rng_(seed), faults_(~seed) {}

  void AttachServer(std::string machine, NfsServerSim* server) {
    servers_.push_back(AttachedServer{std::move(machine), server, {}});
  }

  // One round: churn every server, then (unless deferred) drain and ship its
  // pending reports, occasionally redelivering a just-shipped suffix.
  QuotaIngestStats RunRound(const QuotaFaultPlan& plan = {});

  int rounds() const { return rounds_; }
  const std::vector<AttachedServer>& servers() const { return servers_; }

 private:
  MoiraContext* mc_;
  Journal* journal_;
  SplitMix64 churn_rng_;
  FaultSchedule faults_;
  std::vector<AttachedServer> servers_;
  int rounds_ = 0;
};

}  // namespace moira

#endif  // MOIRA_SRC_QUOTA_QUOTA_H_
