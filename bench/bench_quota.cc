// Quota engine benchmarks (DESIGN.md "Quota engine"), written to
// BENCH_quota.json:
//
//  - rollup: get_quota_status, which sums quotausage and nfsquota rows found
//    through their users_id/filsys_id indexes, vs a full-scan baseline
//    computing the same answers, under a telemetry-ingest workload (the arm
//    and its gates are named "rollup" in BENCH_quota.json, whose keys
//    scripts/validate_bench_json.py checks).  Gate: >= 50x fewer rows
//    examined at the largest population (100k users unless
//    MOIRA_BENCH_QUOTA_MAX_USERS caps it), with the two paths agreeing on
//    every answer.
//  - sweep: seeded fileserver churn shipped through the at-least-once
//    telemetry transport (duplicate + deferred deliveries), swept
//    periodically, checked against an independent notice oracle that
//    observes the accounted usage after every round.  Gates: zero missed and
//    zero duplicate hard-limit notices.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/comerr/moira_errors.h"
#include "src/db/exec.h"
#include "src/dcm/delta.h"
#include "src/nfsd/nfs_server.h"
#include "src/quota/quota.h"
#include "src/server/journal.h"

namespace moira {
namespace {

int64_t DbRows(MoiraContext& mc) {
  int64_t total = 0;
  for (const std::string& name : mc.db().TableNames()) {
    total += mc.db().GetTable(name)->stats().rows_examined;
  }
  return total;
}

// Attaches an NfsServerSim to every NFS server host and ships the generated
// files so the servers know their quota holders and partitions.
std::map<std::string, std::unique_ptr<NfsServerSim>> AttachServers(BenchSite& site) {
  std::map<std::string, std::unique_ptr<NfsServerSim>> servers;
  for (const std::string& name : site.builder->nfs_server_names()) {
    auto server = std::make_unique<NfsServerSim>(site.directory.Find(name));
    InstallNfsUpdateCommand(site.directory.Find(name), server.get());
    servers.emplace(name, std::move(server));
  }
  site.dcm->RunOnce();
  return servers;
}

QuotaTelemetryDriver MakeDriver(BenchSite& site, Journal* journal,
                                std::map<std::string, std::unique_ptr<NfsServerSim>>& servers,
                                uint64_t seed) {
  QuotaTelemetryDriver driver(site.mc.get(), journal, seed);
  for (auto& [name, server] : servers) {
    driver.AttachServer(name, server.get());
  }
  return driver;
}

// ---------------------------------------------------------------------------
// Rollup arm: get_quota_status's indexed sums vs full-scan baseline.

struct StatusAnswer {
  int64_t usage = 0;
  int64_t hard = 0;
  int64_t entries = 0;

  bool operator==(const StatusAnswer& o) const {
    return usage == o.usage && hard == o.hard && entries == o.entries;
  }
};

StatusAnswer QueryAnswer(MoiraContext& mc, const std::string& kind,
                         const std::string& name) {
  StatusAnswer ans;
  QueryRegistry::Instance().Execute(mc, "root", "bench", "get_quota_status",
                                    {kind, name}, [&](Tuple t) {
                                      ans.usage = std::atoll(t[2].c_str());
                                      ans.hard = std::atoll(t[4].c_str());
                                      ans.entries = std::atoll(t[6].c_str());
                                    });
  return ans;
}

// The same answer from first principles: full scans of quotausage and
// nfsquota (and members, for LIST), no index consulted.
StatusAnswer ScanAnswer(MoiraContext& mc, const std::string& kind,
                        const std::string& name) {
  StatusAnswer ans;
  std::set<int64_t> ids;
  if (kind == "USER") {
    RowRef user = mc.UserByLogin(name);
    ids.insert(MoiraContext::IntCell(mc.users(), user.row, "users_id"));
  } else if (kind == "LIST") {
    RowRef list = mc.ListByName(name);
    int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
    Table* members = mc.members();
    for (size_t row : From(members).Rows()) {
      if (MoiraContext::IntCell(members, row, "list_id") == list_id &&
          MoiraContext::StrCell(members, row, "member_type") == "USER") {
        ids.insert(MoiraContext::IntCell(members, row, "member_id"));
      }
    }
  }
  const char* key = kind == "FILESYS" ? "filsys_id" : "users_id";
  if (kind == "FILESYS") {
    RowRef fs = mc.FilesysByLabel(name);
    ids.insert(MoiraContext::IntCell(mc.filesys(), fs.row, "filsys_id"));
  }
  Table* usage = mc.quotausage();
  for (size_t row : From(usage).Rows()) {
    if (ids.contains(MoiraContext::IntCell(usage, row, key))) {
      ans.usage += MoiraContext::IntCell(usage, row, "usage");
    }
  }
  Table* quota = mc.nfsquota();
  for (size_t row : From(quota).Rows()) {
    if (ids.contains(MoiraContext::IntCell(quota, row, key))) {
      ans.hard += MoiraContext::IntCell(quota, row, "quota");
      ans.entries += 1;
    }
  }
  return ans;
}

struct RollupSample {
  const char* config;  // "rollup" or "fullscan"
  int users = 0;
  int queries = 0;
  int64_t rows_examined = 0;
  double wall_ms = 0.0;
  int mismatches = 0;  // fullscan arm: answers disagreeing with get_quota_status
};

// The query mix both arms answer: mostly per-user status (the "am I over
// quota" shape), some per-filesystem, a few lists.
struct StatusQuery {
  std::string kind;
  std::string name;
};

std::vector<StatusQuery> BuildStatusMix(BenchSite& site, int count) {
  const std::vector<std::string>& logins = site.builder->active_logins();
  // Three bench lists of 10 quota holders each.
  std::vector<std::string> lists;
  for (int i = 0; i < 3; ++i) {
    std::string name = "quota-bench-" + std::to_string(i);
    QueryRegistry::Instance().Execute(
        *site.mc, "root", "bench", "add_list",
        {name, "1", "1", "0", "0", "0", "-1", "USER", logins[0], "quota bench list"},
        [](Tuple) {});
    for (int m = 0; m < 10; ++m) {
      QueryRegistry::Instance().Execute(
          *site.mc, "root", "bench", "add_member_to_list",
          {name, "USER", logins[(i * 10 + m) % logins.size()]}, [](Tuple) {});
    }
    lists.push_back(std::move(name));
  }
  std::vector<StatusQuery> mix;
  size_t stride = std::max<size_t>(1, logins.size() / static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::string& login = logins[(static_cast<size_t>(i) * stride) % logins.size()];
    if (i % 20 == 19) {
      mix.push_back({"LIST", lists[static_cast<size_t>(i / 20) % lists.size()]});
    } else if (i % 5 == 4) {
      mix.push_back({"FILESYS", login});  // home lockers are labelled by login
    } else {
      mix.push_back({"USER", login});
    }
  }
  return mix;
}

std::pair<RollupSample, RollupSample> RunRollupArms(int users, int ingest_rounds,
                                                    int query_count) {
  SiteSpec spec;
  spec.total_users = users;
  BenchSite site{spec};
  auto servers = AttachServers(site);
  Journal journal;
  QuotaTelemetryDriver driver = MakeDriver(site, &journal, servers, 1988);
  for (int round = 0; round < ingest_rounds; ++round) {
    driver.RunRound({});
    site.clock.Advance(kSecondsPerHour);
  }
  std::vector<StatusQuery> mix = BuildStatusMix(site, query_count);

  RollupSample rollup{"rollup", users, query_count, 0, 0.0, 0};
  RollupSample fullscan{"fullscan", users, query_count, 0, 0.0, 0};
  std::vector<StatusAnswer> expected;
  expected.reserve(mix.size());
  {
    int64_t before = DbRows(*site.mc);
    auto t0 = std::chrono::steady_clock::now();
    for (const StatusQuery& q : mix) {
      expected.push_back(QueryAnswer(*site.mc, q.kind, q.name));
    }
    rollup.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    rollup.rows_examined = DbRows(*site.mc) - before;
  }
  {
    int64_t before = DbRows(*site.mc);
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < mix.size(); ++i) {
      if (!(ScanAnswer(*site.mc, mix[i].kind, mix[i].name) == expected[i])) {
        ++fullscan.mismatches;
      }
    }
    fullscan.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    fullscan.rows_examined = DbRows(*site.mc) - before;
  }
  return {rollup, fullscan};
}

// ---------------------------------------------------------------------------
// Sweep arm: seeded faults vs the independent notice oracle.

struct SweepArmSample {
  const char* config;  // "clean" or "faulted"
  int rounds = 0;
  int sweeps = 0;
  int skipped = 0;       // passes the dirty-bit skip elided
  int applied = 0;       // ingest reports applied
  int ingest_deduped = 0;  // duplicate deliveries absorbed by the seq check
  int64_t flagged = 0;   // grace expiries flagged
  int64_t fired = 0;     // Zephyr notices actually sent
  int64_t expected = 0;  // notices the oracle called for
  int missed = 0;        // oracle expected, engine silent
  int duplicates = 0;    // engine fired, oracle did not expect
};

SweepArmSample RunSweepArm(bool faulted) {
  BenchSite site{TestSiteSpec()};
  auto servers = AttachServers(site);
  Journal journal;
  const std::vector<std::string>& logins = site.builder->active_logins();
  // Every third user gets tight limits so the seeded churn produces real
  // soft/hard crossings within the run.
  for (size_t i = 0; i < logins.size(); i += 3) {
    ExecuteJournaled(*site.mc, &journal, "root", "bench", "set_quota_limits",
                     {logins[i], logins[i], "40", "80"});
  }
  QuotaTelemetryDriver driver = MakeDriver(site, &journal, servers, 2024);
  QuotaFaultPlan plan;
  if (faulted) {
    plan.duplicate_permille = 350;
    plan.defer_permille = 250;
  }
  SweepArmSample sample{faulted ? "faulted" : "clean"};

  // The oracle: per accounted usage row, whether a fresh hard crossing may
  // fire (armed).  Re-armed whenever the accounted usage is at or below the
  // effective soft limit, observed after every ingest round.
  MoiraContext& mc = *site.mc;
  Table* usage = mc.quotausage();
  Table* quota = mc.nfsquota();
  std::map<std::pair<int64_t, int64_t>, bool> armed;  // (users_id, phys_id)
  auto row_state = [&](size_t urow, int64_t* used, int64_t* hard, int64_t* soft,
                       std::pair<int64_t, int64_t>* key) {
    key->first = MoiraContext::IntCell(usage, urow, "users_id");
    key->second = MoiraContext::IntCell(usage, urow, "phys_id");
    *used = MoiraContext::IntCell(usage, urow, "usage");
    std::vector<size_t> qrows = From(quota)
                                    .WhereEq("users_id", Value(key->first))
                                    .WhereEq("phys_id", Value(key->second))
                                    .Rows();
    if (qrows.empty()) {
      return false;
    }
    *hard = MoiraContext::IntCell(quota, qrows[0], "quota");
    int64_t s = MoiraContext::IntCell(quota, qrows[0], "soft");
    *soft = s > 0 ? s : *hard;
    return true;
  };

  uint64_t marker = 0;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    QuotaIngestStats stats = driver.RunRound(plan);
    sample.applied += stats.applied;
    sample.ingest_deduped += stats.deduped;
    site.clock.Advance(kSecondsPerDay);
    // Observe arming on the accounted state this round left behind.
    for (size_t urow : From(usage).Rows()) {
      int64_t used = 0, hard = 0, soft = 0;
      std::pair<int64_t, int64_t> key;
      if (row_state(urow, &used, &hard, &soft, &key) && used <= soft) {
        armed[key] = true;
      }
    }
    if (round % 2 == 1) {
      // Who should a sweep notice right now?
      std::set<std::string> expect;
      for (size_t urow : From(usage).Rows()) {
        int64_t used = 0, hard = 0, soft = 0;
        std::pair<int64_t, int64_t> key;
        if (!row_state(urow, &used, &hard, &soft, &key)) {
          continue;
        }
        auto it = armed.find(key);
        bool is_armed = it == armed.end() ? true : it->second;
        if (used > hard && is_armed) {
          RowRef user = mc.ExactOne(mc.users(), "users_id", Value(key.first), MR_USER);
          expect.insert(MoiraContext::StrCell(mc.users(), user.row, "login"));
          armed[key] = false;
        }
      }
      size_t before = site.zephyr->Matching(kQuotaZephyrClass, kQuotaZephyrInstance).size();
      QuotaSweepSummary summary =
          RunQuotaSweep(mc, &journal, site.zephyr.get(), &marker);
      ++sample.sweeps;
      if (!summary.ran) {
        ++sample.skipped;
      }
      sample.flagged += summary.flagged;
      std::vector<ZephyrNotice> notices =
          site.zephyr->Matching(kQuotaZephyrClass, kQuotaZephyrInstance);
      std::set<std::string> fired;
      for (size_t i = before; i < notices.size(); ++i) {
        fired.insert(notices[i].message.substr(0, notices[i].message.find(' ')));
      }
      sample.expected += static_cast<int64_t>(expect.size());
      sample.fired += static_cast<int64_t>(fired.size());
      for (const std::string& login : expect) {
        if (!fired.contains(login)) {
          ++sample.missed;
        }
      }
      for (const std::string& login : fired) {
        if (!expect.contains(login)) {
          ++sample.duplicates;
        }
      }
    }
  }
  sample.rounds = kRounds;
  return sample;
}

// ---------------------------------------------------------------------------
// Report + gates.

bool RunQuotaReport(FILE* f) {
  int64_t max_users = 100000;
  if (const char* env = std::getenv("MOIRA_BENCH_QUOTA_MAX_USERS")) {
    max_users = std::atoll(env);
  }
  std::vector<RollupSample> rollup_samples;
  for (int users : {10000, 100000}) {
    if (users > max_users) {
      std::printf("quota rollup: skipping %d users (MOIRA_BENCH_QUOTA_MAX_USERS=%lld)\n",
                  users, static_cast<long long>(max_users));
      continue;
    }
    auto [rollup, fullscan] = RunRollupArms(users, /*ingest_rounds=*/2,
                                            /*query_count=*/120);
    rollup_samples.push_back(rollup);
    rollup_samples.push_back(fullscan);
  }

  std::vector<SweepArmSample> sweep_samples;
  sweep_samples.push_back(RunSweepArm(/*faulted=*/false));
  sweep_samples.push_back(RunSweepArm(/*faulted=*/true));

  std::fprintf(f, "  \"rollup\": [\n");
  for (size_t i = 0; i < rollup_samples.size(); ++i) {
    const RollupSample& s = rollup_samples[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"users\": %d, \"queries\": %d, "
                 "\"rows_examined\": %lld, \"wall_ms\": %.2f, \"mismatches\": %d}%s\n",
                 s.config, s.users, s.queries,
                 static_cast<long long>(s.rows_examined), s.wall_ms, s.mismatches,
                 i + 1 < rollup_samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"sweep\": [\n");
  for (size_t i = 0; i < sweep_samples.size(); ++i) {
    const SweepArmSample& s = sweep_samples[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"rounds\": %d, \"sweeps\": %d, "
                 "\"skipped\": %d, \"applied\": %d, \"ingest_deduped\": %d, "
                 "\"flagged\": %lld, \"notices_expected\": %lld, "
                 "\"notices_fired\": %lld, \"missed\": %d, \"duplicates\": %d}%s\n",
                 s.config, s.rounds, s.sweeps, s.skipped, s.applied, s.ingest_deduped,
                 static_cast<long long>(s.flagged),
                 static_cast<long long>(s.expected), static_cast<long long>(s.fired),
                 s.missed, s.duplicates, i + 1 < sweep_samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  bool ok = true;
  std::printf("quota rollup: get_quota_status (indexed quotausage sums) vs full-scan "
              "baseline\n");
  std::printf("  %8s %-10s %8s %14s %10s %10s\n", "users", "config", "queries",
              "rows_examined", "wall_ms", "mismatch");
  for (const RollupSample& s : rollup_samples) {
    std::printf("  %8d %-10s %8d %14lld %10.1f %10d\n", s.users, s.config, s.queries,
                static_cast<long long>(s.rows_examined), s.wall_ms, s.mismatches);
  }
  double rows_ratio = 0.0;
  int gated_users = 0;
  int mismatches = 0;
  if (rollup_samples.size() >= 2) {
    const RollupSample& rollup = rollup_samples[rollup_samples.size() - 2];
    const RollupSample& fullscan = rollup_samples[rollup_samples.size() - 1];
    gated_users = rollup.users;
    rows_ratio = rollup.rows_examined > 0
                     ? static_cast<double>(fullscan.rows_examined) /
                           static_cast<double>(rollup.rows_examined)
                     : 0.0;
    for (const RollupSample& s : rollup_samples) {
      mismatches += s.mismatches;
    }
    std::printf("  at %d users: %.1fx fewer rows examined, %d mismatched answers\n",
                gated_users, rows_ratio, mismatches);
    if (rows_ratio < 50.0 || mismatches != 0) {
      std::printf("  ^^ FAIL: get_quota_status must examine >= 50x fewer rows and agree "
                  "with the full-scan baseline\n");
      ok = false;
    }
  } else {
    std::printf("  ^^ FAIL: no rollup samples ran\n");
    ok = false;
  }

  std::printf("quota sweep: seeded-fault notices vs oracle\n");
  std::printf("  %-8s %6s %6s %7s %8s %7s %8s %6s %6s %6s\n", "config", "rounds",
              "sweeps", "applied", "dedup", "flagged", "expected", "fired", "missed",
              "dup");
  int missed = 0;
  int duplicates = 0;
  int64_t fired_total = 0;
  for (const SweepArmSample& s : sweep_samples) {
    std::printf("  %-8s %6d %6d %7d %8d %7lld %8lld %6lld %6d %6d\n", s.config,
                s.rounds, s.sweeps, s.applied, s.ingest_deduped,
                static_cast<long long>(s.flagged), static_cast<long long>(s.expected),
                static_cast<long long>(s.fired), s.missed, s.duplicates);
    missed += s.missed;
    duplicates += s.duplicates;
    fired_total += s.fired;
  }
  if (missed != 0 || duplicates != 0 || fired_total <= 0) {
    std::printf("  ^^ FAIL: the sweep must fire every oracle-expected notice exactly "
                "once (and the workload must produce crossings)\n");
    ok = false;
  }

  std::fprintf(
      f,
      "  \"gates\": [\n"
      "    {\"name\": \"rollup_rows_reduction_x\", \"users\": %d, \"value\": %.2f, "
      "\"pass\": %s},\n"
      "    {\"name\": \"rollup_answers_match\", \"value\": %d, \"pass\": %s},\n"
      "    {\"name\": \"sweep_zero_missed_notices\", \"value\": %d, \"pass\": %s},\n"
      "    {\"name\": \"sweep_zero_duplicate_notices\", \"value\": %d, \"pass\": %s},\n"
      "    {\"name\": \"sweep_notices_fired\", \"value\": %lld, \"pass\": %s}\n"
      "  ]",
      gated_users, rows_ratio, rows_ratio >= 50.0 ? "true" : "false", mismatches,
      mismatches == 0 && gated_users > 0 ? "true" : "false", missed,
      missed == 0 ? "true" : "false", duplicates, duplicates == 0 ? "true" : "false",
      static_cast<long long>(fired_total), fired_total > 0 ? "true" : "false");
  std::printf("\n");
  return ok;
}

// ---------------------------------------------------------------------------
// Timing microbenchmarks (informational; the gates above are what check.sh
// enforces).

void BM_GetQuotaStatusUser(benchmark::State& state) {
  static BenchSite* site = new BenchSite(TestSiteSpec());
  static auto* servers = new std::map<std::string, std::unique_ptr<NfsServerSim>>(
      AttachServers(*site));
  static Journal* journal = new Journal();
  static QuotaTelemetryDriver* driver =
      new QuotaTelemetryDriver(MakeDriver(*site, journal, *servers, 11));
  if (driver->rounds() == 0) {
    driver->RunRound({});
  }
  const std::vector<std::string>& logins = site->builder->active_logins();
  size_t i = 0;
  for (auto _ : state) {
    StatusAnswer ans = QueryAnswer(*site->mc, "USER", logins[i++ % logins.size()]);
    benchmark::DoNotOptimize(ans.usage);
  }
}
BENCHMARK(BM_GetQuotaStatusUser);

void BM_ReportQuotaUsageIngest(benchmark::State& state) {
  static BenchSite* site = new BenchSite(TestSiteSpec());
  static auto* servers = new std::map<std::string, std::unique_ptr<NfsServerSim>>(
      AttachServers(*site));
  const std::string& machine = site->builder->nfs_server_names()[0];
  NfsServerSim& server = *servers->at(machine);
  server.ChurnUsage(5);
  std::vector<UsageReportLine> lines = server.DrainUsageReports();
  if (lines.empty()) {
    state.SkipWithError("server drained no reports");
    return;
  }
  int64_t seq = lines.back().seq;
  const UsageReportLine line = lines[0];
  for (auto _ : state) {
    ++seq;
    int32_t code = QueryRegistry::Instance().Execute(
        *site->mc, "root", "bench", "report_quota_usage",
        {machine, line.partition, std::to_string(line.uid), "1", std::to_string(seq)},
        [](Tuple) {});
    benchmark::DoNotOptimize(code);
  }
}
BENCHMARK(BM_ReportQuotaUsageIngest);

}  // namespace
}  // namespace moira

int main(int argc, char** argv) {
  const char* path = "BENCH_quota.json";
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  moira::WriteBenchJsonHeader(f, "bench_quota");
  bool ok = moira::RunQuotaReport(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
