#include "src/quota/quota.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/dcm/delta.h"

namespace moira {
namespace {

int64_t CounterValue(MoiraContext& mc, const std::string& name) {
  int64_t v = 0;
  return mc.GetValue(name, &v) == MR_SUCCESS ? v : 0;
}

}  // namespace

QuotaIngestStats IngestUsageReports(MoiraContext& mc, Journal* journal,
                                    const std::string& machine,
                                    const std::vector<UsageReportLine>& lines,
                                    std::string_view principal) {
  QuotaIngestStats stats;
  for (const UsageReportLine& line : lines) {
    int32_t code = ExecuteJournaled(
        mc, journal, principal, "quota_ingest", "report_quota_usage",
        {machine, line.partition, std::to_string(line.uid), std::to_string(line.delta),
         std::to_string(line.seq)});
    if (code == MR_SUCCESS) {
      ++stats.applied;
    } else if (code == MR_EXISTS) {
      ++stats.deduped;
    } else {
      ++stats.rejected;
    }
  }
  return stats;
}

QuotaSweepSummary RunQuotaSweep(MoiraContext& mc, Journal* journal, ZephyrBus* zephyr,
                                uint64_t* last_swept_seq) {
  QuotaSweepSummary summary;
  if (last_swept_seq != nullptr && journal != nullptr &&
      *last_swept_seq >= journal->base_seq() &&
      CounterValue(mc, "quota_grace_pending") == 0) {
    // Skippable only when no grace window is running: grace expiry is the
    // one sweep transition driven by time alone, not by journal traffic.
    DeltaPlan plan = ExtractDeltaPlan(mc, journal->EntriesFromSeq(*last_swept_seq + 1));
    if (!plan.full_all && !plan.quota_state_dirty) {
      summary.through_seq = journal->last_seq();
      *last_swept_seq = summary.through_seq;
      return summary;  // idle: nothing quota-relevant landed since last pass
    }
  }
  int64_t flagged_before = CounterValue(mc, "quota_sweep_flagged");
  int64_t deduped_before = CounterValue(mc, "quota_sweep_deduped");
  std::vector<Tuple> crossings;
  int32_t code = ExecuteJournaled(mc, journal, "root", "quota_sweep",
                                  "process_quota_sweep", {},
                                  [&](Tuple t) { crossings.push_back(std::move(t)); });
  if (code != MR_SUCCESS) {
    return summary;
  }
  summary.ran = true;
  summary.notices = static_cast<int64_t>(crossings.size());
  summary.flagged = CounterValue(mc, "quota_sweep_flagged") - flagged_before;
  summary.deduped = CounterValue(mc, "quota_sweep_deduped") - deduped_before;
  if (zephyr != nullptr) {
    for (const Tuple& t : crossings) {
      // (login, filesys, usage, quota) — queries_quota.cc's emit order.
      zephyr->Send(kQuotaZephyrClass, kQuotaZephyrInstance, kQuotaSender,
                   t[0] + " over hard quota on " + t[1] + " (" + t[2] + "/" + t[3] +
                       " units)");
    }
  }
  summary.through_seq = journal != nullptr ? journal->last_seq() : 0;
  if (last_swept_seq != nullptr) {
    *last_swept_seq = summary.through_seq;
  }
  return summary;
}

void ScheduleQuotaSweep(CronScheduler* cron, MoiraContext* mc, Journal* journal,
                        ZephyrBus* zephyr, UnixTime interval, QuotaSweepSummary* last) {
  // The marker lives in the closure (like the DCM's per-service low-water
  // marks, it is primary-side scheduling state, not replicated data); the
  // first firing sweeps unconditionally to establish a baseline.
  auto state = std::make_shared<std::pair<bool, uint64_t>>(false, 0);
  cron->Schedule("quota_sweep", interval, [mc, journal, zephyr, last, state]() {
    QuotaSweepSummary summary =
        RunQuotaSweep(*mc, journal, zephyr, state->first ? &state->second : nullptr);
    state->first = true;
    state->second = summary.through_seq;
    if (last != nullptr) {
      *last = summary;
    }
  });
}

QuotaIngestStats QuotaTelemetryDriver::RunRound(const QuotaFaultPlan& plan) {
  const int round = rounds_++;
  QuotaIngestStats total;
  auto add = [&total](const QuotaIngestStats& s) {
    total.applied += s.applied;
    total.deduped += s.deduped;
    total.rejected += s.rejected;
  };
  for (size_t i = 0; i < servers_.size(); ++i) {
    AttachedServer& s = servers_[i];
    s.server->ChurnUsage(churn_rng_.Next());
    FaultDice dice = faults_.Dice(round, i);
    if (dice.Roll(plan.defer_permille)) {
      continue;  // transport outage: deltas keep accumulating on the server
    }
    std::vector<UsageReportLine> lines = s.server->DrainUsageReports();
    s.pending.insert(s.pending.end(), lines.begin(), lines.end());
    if (s.pending.empty()) {
      continue;
    }
    add(IngestUsageReports(*mc_, journal_, s.machine, s.pending));
    if (dice.Roll(plan.duplicate_permille)) {
      // At-least-once retry: the tail of what was just shipped arrives
      // again; the per-machine sequence check must absorb it.
      size_t n = 1 + dice.Below(std::min<uint64_t>(s.pending.size(), 5));
      add(IngestUsageReports(
          *mc_, journal_, s.machine,
          std::vector<UsageReportLine>(s.pending.end() - n, s.pending.end())));
    }
    s.pending.clear();
  }
  return total;
}

}  // namespace moira
