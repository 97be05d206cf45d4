// Quota-engine queries (DESIGN.md "Quota engine"): live usage accounting on
// top of the static nfsquota limits.
//
// report_quota_usage ingests per-uid/per-partition usage deltas shipped back
// from the fileservers into quotausage; get_quota_status sums those rows
// through the users_id/filsys_id indexes, never a scan.  set_quota_limits
// manages soft/hard limits; process_quota_sweep is the journalled
// MooseFS-style check_all_quotas pass: it flags grace-expired soft exceeders
// and emits one deduplicated hard-limit notice tuple per crossing (src/quota
// turns those into Zephyr sends).  All mutations run through the normal
// journalled query path, so replication, checkpoints, and incremental DCM
// see them for free.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/core/queries_common.h"

namespace moira {
namespace {

int64_t GetValueOr(MoiraContext& mc, const std::string& name, int64_t fallback) {
  int64_t v = fallback;
  return mc.GetValue(name, &v) == MR_SUCCESS ? v : fallback;
}

// SetValue refuses to create; the quota counters are created on first touch.
void SetOrAddValue(MoiraContext& mc, const std::string& name, int64_t v) {
  if (mc.SetValue(name, v) != MR_SUCCESS) {
    mc.values()->Append({Value(name), Value(v)});
  }
}

void BumpCounter(MoiraContext& mc, const std::string& name, int64_t delta) {
  if (delta != 0) {
    SetOrAddValue(mc, name, GetValueOr(mc, name, 0) + delta);
  }
}

// soft == 0 means "soft limit equals the hard quota" (schema.cc).
int64_t EffectiveSoft(const Table* quota, size_t row) {
  int64_t soft = MoiraContext::IntCell(quota, row, "soft");
  return soft > 0 ? soft : MoiraContext::IntCell(quota, row, "quota");
}

// Re-evaluates the soft-exceeded timestamp and sweep flags on a quota row
// after its usage or limits changed.  Crossing above soft stamps the grace
// clock; dropping to or below soft clears the stamp and both sweep bits
// (so the next hard crossing notices again).  Writes are guarded: an
// unchanged row stays untouched (nfsquota is an NFS-relevant table, and a
// spurious write would mark the service dirty every ingest pass).
//
// quota_grace_pending counts rows whose grace window is running but not yet
// flagged — the only sweep transition driven purely by time, so the sweep's
// idle-skip (src/quota/quota.cc) may only engage when it is zero.  The
// counter lives in the values relation and is maintained exclusively from
// journalled queries, so replicas agree on it.
void ReconcileSoftState(MoiraContext& mc, size_t qrow, int64_t used) {
  Table* quota = mc.nfsquota();
  int64_t sexceeded = MoiraContext::IntCell(quota, qrow, "sexceeded");
  int64_t qflags = MoiraContext::IntCell(quota, qrow, "qflags");
  if (used > EffectiveSoft(quota, qrow)) {
    if (sexceeded == 0) {
      MoiraContext::SetCell(quota, qrow, "sexceeded", Value(mc.Now()));
      BumpCounter(mc, "quota_grace_pending", 1);
    }
  } else {
    if (sexceeded != 0) {
      MoiraContext::SetCell(quota, qrow, "sexceeded", Value(int64_t{0}));
      if (!(qflags & kQuotaGraceExpired)) {
        BumpCounter(mc, "quota_grace_pending", -1);
      }
    }
    if (qflags != 0) {
      MoiraContext::SetCell(quota, qrow, "qflags", Value(int64_t{0}));
    }
  }
}

// report_quota_usage machine partition uid delta seq: applies one usage
// delta shipped back from a fileserver.  Reports are sequenced per machine;
// a stale or duplicate sequence returns MR_EXISTS without touching anything
// (at-least-once transport stays exactly-once in the accounting), and a
// rejected report is never journalled, so replicas replay only the applied
// ones.
int32_t ReportQuotaUsage(QueryCall& call) {
  MoiraContext& mc = call.mc;
  int64_t uid = 0;
  int64_t delta = 0;
  int64_t seq = 0;
  if (int32_t code = RequireInt(call.args[2], &uid); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[3], &delta); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[4], &seq); code != MR_SUCCESS) {
    return code;
  }
  RowRef mach = mc.MachineByName(call.args[0]);
  if (mach.code != MR_SUCCESS) {
    return mach.code;
  }
  const std::string& machine = MoiraContext::StrCell(mc.machine(), mach.row, "name");
  int64_t mach_id = MoiraContext::IntCell(mc.machine(), mach.row, "mach_id");
  const std::string seq_key = "quota_rseq_" + machine;
  if (seq <= GetValueOr(mc, seq_key, 0)) {
    return MR_EXISTS;
  }
  RowRef user = mc.UserByUid(uid);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
  // Resolve the report's partition stem against the machine's partitions
  // (indexed mach_id probe; a server has a handful of partitions).
  Table* phys = mc.nfsphys();
  int64_t phys_id = 0;
  for (size_t prow : From(phys).WhereEq("mach_id", Value(mach_id)).Rows()) {
    if (PartitionStem(MoiraContext::StrCell(phys, prow, "dir")) == call.args[1]) {
      phys_id = MoiraContext::IntCell(phys, prow, "nfsphys_id");
      break;
    }
  }
  if (phys_id == 0) {
    return MR_NFSPHYS;
  }
  Table* quota = mc.nfsquota();
  std::vector<size_t> qrows = From(quota)
                                  .WhereEq("users_id", Value(users_id))
                                  .WhereEq("phys_id", Value(phys_id))
                                  .Rows();
  if (qrows.empty()) {
    return MR_NO_QUOTA;
  }
  size_t qrow = qrows[0];
  int64_t filsys_id = MoiraContext::IntCell(quota, qrow, "filsys_id");

  // Upsert the live usage row; usage clamps at zero.
  Table* usage = mc.quotausage();
  std::vector<size_t> urows = From(usage)
                                  .WhereEq("users_id", Value(users_id))
                                  .WhereEq("phys_id", Value(phys_id))
                                  .Rows();
  int64_t old_usage = 0;
  size_t urow;
  if (urows.empty()) {
    urow = usage->Append({Value(users_id), Value(filsys_id), Value(phys_id),
                          Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{0})});
  } else {
    urow = urows[0];
    old_usage = MoiraContext::IntCell(usage, urow, "usage");
  }
  int64_t new_usage = std::max<int64_t>(0, old_usage + delta);
  MoiraContext::SetCell(usage, urow, "usage", Value(new_usage));
  MoiraContext::SetCell(usage, urow, "reports",
                        Value(MoiraContext::IntCell(usage, urow, "reports") + 1));
  MoiraContext::SetCell(usage, urow, "modtime", Value(mc.Now()));
  ReconcileSoftState(mc, qrow, new_usage);
  SetOrAddValue(mc, seq_key, seq);
  return MR_SUCCESS;
}

// set_quota_limits filesystem login soft hard: updates both limits at once
// (soft 0 = "same as hard"), keeps the partition allocation in step with the
// hard limit, and re-evaluates the grace state against the live usage.
int32_t SetQuotaLimits(QueryCall& call) {
  MoiraContext& mc = call.mc;
  int64_t soft = 0;
  int64_t hard = 0;
  if (int32_t code = RequireInt(call.args[2], &soft); code != MR_SUCCESS) {
    return code;
  }
  if (int32_t code = RequireInt(call.args[3], &hard); code != MR_SUCCESS) {
    return code;
  }
  if (hard <= 0 || soft < 0 || soft > hard) {
    return MR_QUOTA;
  }
  RowRef fs = mc.FilesysByLabel(call.args[0]);
  if (fs.code != MR_SUCCESS) {
    return fs.code;
  }
  RowRef user = mc.UserByLogin(call.args[1]);
  if (user.code != MR_SUCCESS) {
    return user.code;
  }
  int64_t filsys_id = MoiraContext::IntCell(mc.filesys(), fs.row, "filsys_id");
  int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
  Table* quota = mc.nfsquota();
  std::vector<size_t> qrows = From(quota)
                                  .WhereEq("filsys_id", Value(filsys_id))
                                  .WhereEq("users_id", Value(users_id))
                                  .Rows();
  if (qrows.empty()) {
    return MR_NO_QUOTA;
  }
  size_t qrow = qrows[0];
  int64_t old_hard = MoiraContext::IntCell(quota, qrow, "quota");
  MoiraContext::SetCell(quota, qrow, "quota", Value(hard));
  MoiraContext::SetCell(quota, qrow, "soft", Value(soft));
  mc.Stamp(quota, qrow, call.principal, call.client_name);
  // Keep nfsphys.allocated tracking the hard limits (as update_nfs_quota).
  int64_t phys_id = MoiraContext::IntCell(quota, qrow, "phys_id");
  RowRef phys = mc.ExactOne(mc.nfsphys(), "nfsphys_id", Value(phys_id), MR_NFSPHYS);
  if (phys.code == MR_SUCCESS && hard != old_hard) {
    MoiraContext::SetCell(
        mc.nfsphys(), phys.row, "allocated",
        Value(MoiraContext::IntCell(mc.nfsphys(), phys.row, "allocated") + hard - old_hard));
  }
  int64_t used = 0;
  for (size_t urow : From(mc.quotausage())
                         .WhereEq("users_id", Value(users_id))
                         .WhereEq("phys_id", Value(phys_id))
                         .Rows()) {
    used = MoiraContext::IntCell(mc.quotausage(), urow, "usage");
    break;
  }
  ReconcileSoftState(mc, qrow, used);
  return MR_SUCCESS;
}

struct QuotaAggregates {
  int64_t usage = 0;
  int64_t reports = 0;
  int64_t hard = 0;
  int64_t soft = 0;
  int64_t entries = 0;
  int64_t soft_exceeded = 0;
  int64_t grace_flagged = 0;
  int64_t hard_noticed = 0;
};

// Sums the quotausage rows whose `column` (users_id or filsys_id) is one of
// `ids`, through that column's index.
void AccumulateUsage(MoiraContext& mc, const char* column, std::vector<Value> ids,
                     QuotaAggregates* agg) {
  const Table* usage = mc.quotausage();
  From(usage).WhereIn(column, std::move(ids)).Emit([&](const std::vector<size_t>& rows) {
    agg->usage += MoiraContext::IntCell(usage, rows[0], "usage");
    agg->reports += MoiraContext::IntCell(usage, rows[0], "reports");
  });
}

void AccumulateLimits(MoiraContext& mc, const std::vector<size_t>& qrows,
                      QuotaAggregates* agg) {
  const Table* quota = mc.nfsquota();
  for (size_t row : qrows) {
    agg->hard += MoiraContext::IntCell(quota, row, "quota");
    agg->soft += EffectiveSoft(quota, row);
    agg->entries += 1;
    if (MoiraContext::IntCell(quota, row, "sexceeded") != 0) {
      agg->soft_exceeded += 1;
    }
    int64_t flags = MoiraContext::IntCell(quota, row, "qflags");
    if (flags & kQuotaGraceExpired) {
      agg->grace_flagged += 1;
    }
    if (flags & kQuotaHardNoticed) {
      agg->hard_noticed += 1;
    }
  }
}

// get_quota_status kind name: one aggregate tuple for a USER, LIST (direct
// user members, expanded at query time so membership churn is seen at
// once), or FILESYS.  Usage sums the quotausage rows and limits the nfsquota
// rows, both found by indexed probes — never a scan.
int32_t GetQuotaStatus(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const std::string& kind = call.args[0];
  QuotaAggregates agg;
  if (kind == "USER") {
    RowRef user = mc.UserByLogin(call.args[1]);
    if (user.code != MR_SUCCESS) {
      return user.code;
    }
    int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
    AccumulateUsage(mc, "users_id", {Value(users_id)}, &agg);
    AccumulateLimits(mc, From(mc.nfsquota()).WhereEq("users_id", Value(users_id)).Rows(),
                     &agg);
  } else if (kind == "LIST") {
    RowRef list = mc.ListByName(call.args[1]);
    if (list.code != MR_SUCCESS) {
      return list.code;
    }
    int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
    Table* members = mc.members();
    std::vector<Value> ids;
    From(members)
        .WhereEq("list_id", Value(list_id))
        .WhereEq("member_type", Value("USER"))
        .Emit([&](const std::vector<size_t>& rows) {
          ids.push_back(Value(MoiraContext::IntCell(members, rows[0], "member_id")));
        });
    if (!ids.empty()) {
      AccumulateUsage(mc, "users_id", ids, &agg);
      AccumulateLimits(mc, From(mc.nfsquota()).WhereIn("users_id", std::move(ids)).Rows(),
                       &agg);
    }
  } else if (kind == "FILESYS") {
    RowRef fs = mc.FilesysByLabel(call.args[1]);
    if (fs.code != MR_SUCCESS) {
      return fs.code;
    }
    int64_t filsys_id = MoiraContext::IntCell(mc.filesys(), fs.row, "filsys_id");
    AccumulateUsage(mc, "filsys_id", {Value(filsys_id)}, &agg);
    AccumulateLimits(mc, From(mc.nfsquota()).WhereEq("filsys_id", Value(filsys_id)).Rows(),
                     &agg);
  } else {
    return MR_TYPE;
  }
  call.emit({kind, call.args[1], std::to_string(agg.usage), std::to_string(agg.reports),
             std::to_string(agg.hard), std::to_string(agg.soft),
             std::to_string(agg.entries), std::to_string(agg.soft_exceeded),
             std::to_string(agg.grace_flagged), std::to_string(agg.hard_noticed)});
  return MR_SUCCESS;
}

// get_quota_sweep_stats: the sweep's lifetime counters (values relation),
// for operators — privileged via CAPACLS like every non-world query.
int32_t GetQuotaSweepStats(QueryCall& call) {
  MoiraContext& mc = call.mc;
  static constexpr const char* kCounters[] = {
      "quota_sweep_runs",      "quota_sweep_rows",    "quota_sweep_flagged",
      "quota_sweep_notices",   "quota_sweep_deduped", "quota_sweep_cleared",
      "quota_sweep_last",
  };
  for (const char* name : kCounters) {
    call.emit({name, std::to_string(GetValueOr(mc, name, 0))});
  }
  return MR_SUCCESS;
}

// process_quota_sweep: the journalled check_all_quotas pass.  Walks the live
// usage rows, stamps/flags grace expiry, and emits one tuple per *new*
// hard-limit crossing (login, filesys, usage, quota) — the kQuotaHardNoticed
// bit dedups repeats until usage drops back below soft.  Replicas replay the
// journalled sweep with the clock pinned to the entry's timestamp
// (replica.cc), so the resulting flag state is byte-identical.
int32_t ProcessQuotaSweep(QueryCall& call) {
  MoiraContext& mc = call.mc;
  const int64_t now = mc.Now();
  const int64_t grace = GetValueOr(mc, "quota_grace", 604800);
  Table* usage = mc.quotausage();
  Table* quota = mc.nfsquota();
  int64_t visited = 0;
  int64_t flagged = 0;
  int64_t notices = 0;
  int64_t deduped = 0;
  int64_t cleared = 0;
  for (size_t urow : From(usage).Rows()) {
    ++visited;
    int64_t users_id = MoiraContext::IntCell(usage, urow, "users_id");
    int64_t phys_id = MoiraContext::IntCell(usage, urow, "phys_id");
    int64_t used = MoiraContext::IntCell(usage, urow, "usage");
    std::vector<size_t> qrows = From(quota)
                                    .WhereEq("users_id", Value(users_id))
                                    .WhereEq("phys_id", Value(phys_id))
                                    .Rows();
    if (qrows.empty()) {
      continue;  // dangling usage; dbck's quota pass repairs these
    }
    size_t qrow = qrows[0];
    int64_t hard = MoiraContext::IntCell(quota, qrow, "quota");
    int64_t eff_soft = EffectiveSoft(quota, qrow);
    int64_t sexceeded = MoiraContext::IntCell(quota, qrow, "sexceeded");
    int64_t qflags = MoiraContext::IntCell(quota, qrow, "qflags");
    if (used <= eff_soft) {
      // Ingest clears these on the way down; self-heal if a repair or
      // direct edit left them stale.
      if (sexceeded != 0 || qflags != 0) {
        if (sexceeded != 0) {
          MoiraContext::SetCell(quota, qrow, "sexceeded", Value(int64_t{0}));
          if (!(qflags & kQuotaGraceExpired)) {
            BumpCounter(mc, "quota_grace_pending", -1);
          }
        }
        if (qflags != 0) {
          MoiraContext::SetCell(quota, qrow, "qflags", Value(int64_t{0}));
        }
        ++cleared;
      }
      continue;
    }
    if (sexceeded == 0) {
      // Ingest normally stamps the crossing; self-heal and let the grace
      // window run from this sweep.
      MoiraContext::SetCell(quota, qrow, "sexceeded", Value(now));
      sexceeded = now;
      BumpCounter(mc, "quota_grace_pending", 1);
    }
    if (now - sexceeded >= grace && !(qflags & kQuotaGraceExpired)) {
      qflags |= kQuotaGraceExpired;
      MoiraContext::SetCell(quota, qrow, "qflags", Value(qflags));
      ++flagged;
      BumpCounter(mc, "quota_grace_pending", -1);
    }
    if (used > hard) {
      if (!(qflags & kQuotaHardNoticed)) {
        qflags |= kQuotaHardNoticed;
        MoiraContext::SetCell(quota, qrow, "qflags", Value(qflags));
        ++notices;
        RowRef user = mc.ExactOne(mc.users(), "users_id", Value(users_id), MR_USER);
        RowRef fs = mc.ExactOne(mc.filesys(), "filsys_id",
                                Value(MoiraContext::IntCell(quota, qrow, "filsys_id")),
                                MR_FILESYS);
        call.emit({user.code == MR_SUCCESS
                       ? MoiraContext::StrCell(mc.users(), user.row, "login")
                       : "???",
                   fs.code == MR_SUCCESS
                       ? MoiraContext::StrCell(mc.filesys(), fs.row, "label")
                       : "???",
                   std::to_string(used), std::to_string(hard)});
      } else {
        ++deduped;
      }
    }
  }
  BumpCounter(mc, "quota_sweep_runs", 1);
  BumpCounter(mc, "quota_sweep_rows", visited);
  BumpCounter(mc, "quota_sweep_flagged", flagged);
  BumpCounter(mc, "quota_sweep_notices", notices);
  BumpCounter(mc, "quota_sweep_deduped", deduped);
  BumpCounter(mc, "quota_sweep_cleared", cleared);
  SetOrAddValue(mc, "quota_sweep_last", now);
  return MR_SUCCESS;
}

}  // namespace

void RemoveQuotaUsage(MoiraContext& mc, size_t quota_row) {
  Table* quota = mc.nfsquota();
  const int64_t users_id = MoiraContext::IntCell(quota, quota_row, "users_id");
  const int64_t phys_id = MoiraContext::IntCell(quota, quota_row, "phys_id");
  // The quota ReportQuotaUsage will pick once this one is gone: the user's
  // first other quota row on the partition.
  std::optional<size_t> remaining;
  for (size_t row : From(quota)
                        .WhereEq("users_id", Value(users_id))
                        .WhereEq("phys_id", Value(phys_id))
                        .Rows()) {
    if (row != quota_row) {
      remaining = row;
      break;
    }
  }
  Table* usage = mc.quotausage();
  for (size_t row : From(usage)
                        .WhereEq("users_id", Value(users_id))
                        .WhereEq("phys_id", Value(phys_id))
                        .Rows()) {
    if (remaining.has_value()) {
      MoiraContext::SetCell(usage, row, "filsys_id",
                            Value(MoiraContext::IntCell(quota, *remaining, "filsys_id")));
    } else {
      usage->Delete(row);
    }
  }
}

void AppendQuotaQueries(std::vector<QueryDef>* defs) {
  defs->insert(
      defs->end(),
      {
          {"report_quota_usage", "rqus", QueryClass::kUpdate, 5, false,
           "machine, partition, uid, delta, seq", "", nullptr, ReportQuotaUsage},
          {"set_quota_limits", "sqlm", QueryClass::kUpdate, 4, false,
           "filesystem, login, soft, hard", "", nullptr, SetQuotaLimits},
          {"get_quota_status", "gqst", QueryClass::kRetrieve, 2, false, "kind, name",
           "kind, name, usage, reports, quota, soft, entries, soft_exceeded, "
           "grace_flagged, hard_noticed",
           [](MoiraContext&, std::string_view principal,
              const std::vector<std::string>& args) {
             return args.size() == 2 && args[0] == "USER" && args[1] == principal;
           },
           GetQuotaStatus},
          {"get_quota_sweep_stats", "gqss", QueryClass::kRetrieve, 0, false, "",
           "name, value", nullptr, GetQuotaSweepStats},
          {"process_quota_sweep", "pqsw", QueryClass::kUpdate, 0, false, "",
           "login, filesys, usage, quota", nullptr, ProcessQuotaSweep},
      });
}

}  // namespace moira
