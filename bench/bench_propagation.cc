// E6 — The Moira-to-server update protocol under load and failure (paper
// section 5.9): a full propagation cycle of 59 files / 90 propagations, the
// per-host update cost, retry behaviour under a crash-rate sweep, and the
// resilience-layer report (flaky-fleet convergence with the retry/breaker
// layer on vs off, and quarantine economics for a dead host), the heap one
// NFS consumer holds, the Match calls of one full generation per service,
// and the incremental-propagation sweep, which land in BENCH_propagation.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/db/exec.h"
#include "src/dcm/delta.h"
#include "src/dcm/generators.h"
#include "src/nfsd/nfs_server.h"
#include "src/update/update_client.h"

namespace moira {
namespace {

// Full cycle: regenerate everything and push to all 27 server hosts.
void BM_FullPropagationCycle(benchmark::State& state) {
  static BenchSite* site = new BenchSite(SiteSpec{});
  const std::string& login = site->builder->active_logins()[0];
  int flip = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    site->clock.Advance(25 * kSecondsPerHour);
    QueryRegistry::Instance().Execute(
        *site->mc, "root", "bench", "update_user_shell",
        {login, flip++ % 2 == 0 ? "/bin/a" : "/bin/b"}, [](Tuple) {});
    QueryRegistry::Instance().Execute(
        *site->mc, "root", "bench", "update_zephyr_class",
        {"zclass-2", "zclass-2", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE",
         "NONE"},
        [](Tuple) {});
    DcmRunSummary summary = site->dcm->RunOnce();
    bytes = summary.bytes_propagated;
    benchmark::DoNotOptimize(summary.hosts_updated);
  }
  state.counters["bytes/cycle"] = static_cast<double>(bytes);
}
BENCHMARK(BM_FullPropagationCycle)->Unit(benchmark::kMillisecond);

// Single-host update: the three-phase protocol against one simulated server.
void BM_SingleHostUpdate(benchmark::State& state) {
  BenchSite& site = PaperSite();
  SimHost* host = site.directory.Find(site.builder->nfs_server_names()[0]);
  UpdateClient client(site.realm.get(), kDcmPrincipal, "dcm-service-password");
  Archive archive;
  archive.Add("credentials", std::string(static_cast<size_t>(state.range(0)), 'x'));
  std::string payload = archive.Serialize();
  for (auto _ : state) {
    UpdateOutcome outcome =
        client.Update(host, "/tmp/bench.out", payload, "syncdir /site/bench\n");
    benchmark::DoNotOptimize(outcome.code);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_SingleHostUpdate)->Arg(1024)->Arg(150 * 1024)->Arg(1024 * 1024);

// Crash-rate sweep: fraction of hosts failing softly per mille; the DCM
// keeps retrying until everyone is caught up.  Reports passes needed.
void BM_PropagationWithFailures(benchmark::State& state) {
  int per_mille = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BenchSite site{TestSiteSpec()};
    SplitMix64 rng(42);
    state.ResumeTiming();
    int passes = 0;
    int total_soft = 0;
    while (true) {
      for (auto& host : site.hosts) {
        if (rng.Below(1000) < static_cast<uint64_t>(per_mille)) {
          host->SetFailMode(HostFailMode::kRefuseConnection);
        }
      }
      DcmRunSummary summary = site.dcm->RunOnce();
      ++passes;
      total_soft += summary.host_soft_failures;
      if (summary.host_soft_failures == 0 && summary.hosts_updated >= 0 && passes > 0 &&
          summary.host_soft_failures + summary.host_hard_failures == 0) {
        break;
      }
      site.clock.Advance(15 * kSecondsPerMinute);  // the paper's retry interval
      if (passes > 50) {
        break;
      }
    }
    state.counters["passes"] = passes;
    state.counters["soft_failures"] = total_soft;
  }
}
BENCHMARK(BM_PropagationWithFailures)
    ->Arg(0)
    ->Arg(100)
    ->Arg(300)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Resilience report: deterministic flaky-fleet convergence and quarantine
// economics, written to BENCH_propagation.json.

struct ConvergenceSample {
  const char* config;   // "retry+breaker" or "baseline"
  int flaky_permille;
  uint64_t seed;
  int hosts;
  int passes;           // DCM passes until a fully clean pass (capped at 60)
  bool converged;
  int soft_failures;    // total across the run
  int host_retries;     // in-pass retries beyond the first attempt
};

struct QuarantineSample {
  const char* config;
  int passes;
  int attempts_on_down_host;  // connection attempts the dead host received
  int breaker_opens;
  int breaker_skips;          // attempts saved by the open breaker
  int probe_failures;
};

// A ~20-host fleet: 1 hesiod + 15 NFS + mail hub + 3 zephyr + 2 POP servers.
SiteSpec FleetSpec() {
  SiteSpec spec = TestSiteSpec();
  spec.nfs_servers = 15;
  return spec;
}

ConvergenceSample RunConvergence(bool resilient, int flaky_permille, uint64_t seed) {
  BenchSite site{FleetSpec()};
  DcmResilienceConfig config;
  if (resilient) {
    config.retry.max_attempts = 3;  // outlasts the plan's 2 flaky refusals
    config.retry.initial_backoff = 30;
    config.retry.jitter_permille = 200;
    config.retry.seed = seed;
  } else {
    config.enabled = false;  // the paper's one-attempt-per-pass behaviour
  }
  site.dcm->set_resilience(config);
  site.dcm->update_client().set_sleep_fn(
      [&site](UnixTime s) { site.clock.Advance(s); });
  FaultPlanSpec fault;
  fault.seed = seed;
  fault.flaky_permille = flaky_permille;
  fault.flaky_fail_count = 2;
  ConvergenceSample sample{resilient ? "retry+breaker" : "baseline",
                           flaky_permille,
                           seed,
                           static_cast<int>(site.hosts.size()),
                           0,
                           false,
                           0,
                           0};
  while (sample.passes < 60) {
    // The draw depends only on (seed, pass, host index): both configs replay
    // the identical fault schedule no matter how many passes each needs.
    ArmPass(fault, site.hosts, sample.passes);
    DcmRunSummary summary = site.dcm->RunOnce();
    ++sample.passes;
    sample.soft_failures += summary.host_soft_failures;
    sample.host_retries += summary.host_retries;
    if (summary.host_soft_failures == 0 && summary.host_hard_failures == 0 &&
        summary.breaker_skips == 0) {
      sample.converged = true;
      break;
    }
    site.clock.Advance(15 * kSecondsPerMinute);  // the paper's retry interval
  }
  return sample;
}

QuarantineSample RunQuarantine(bool breaker_on, int passes) {
  BenchSite site{FleetSpec()};
  DcmResilienceConfig config;
  config.enabled = breaker_on;
  config.breaker_threshold = 3;
  config.breaker_cooldown = 45 * kSecondsPerMinute;
  site.dcm->set_resilience(config);
  SimHost* down = site.directory.Find(site.builder->nfs_server_names()[0]);
  down->SetFailMode(HostFailMode::kRefuseConnection, 1 << 20);  // dead for good
  QuarantineSample sample{breaker_on ? "retry+breaker" : "baseline", passes, 0, 0, 0, 0};
  for (int pass = 0; pass < passes; ++pass) {
    DcmRunSummary summary = site.dcm->RunOnce();
    sample.breaker_opens += summary.breaker_opens;
    sample.breaker_skips += summary.breaker_skips;
    sample.probe_failures += summary.probe_failures;
    site.clock.Advance(15 * kSecondsPerMinute);
  }
  sample.attempts_on_down_host = down->connect_attempts();
  return sample;
}

// Runs the sweep, writes the "convergence" and "quarantine" arrays into the
// already-open report, prints a summary.  Returns false if the resilient
// configuration fails its acceptance bar (convergence, strictly fewer passes
// than baseline, quarantine saving attempts), which scripts/check.sh
// --fault-smoke turns into a build failure.
bool RunResilienceReport(FILE* f) {
  constexpr uint64_t kSeed = 1988;
  std::vector<ConvergenceSample> convergence;
  for (int flaky_permille : {100, 300, 500}) {
    convergence.push_back(RunConvergence(/*resilient=*/false, flaky_permille, kSeed));
    convergence.push_back(RunConvergence(/*resilient=*/true, flaky_permille, kSeed));
  }
  std::vector<QuarantineSample> quarantine;
  quarantine.push_back(RunQuarantine(/*breaker_on=*/false, 12));
  quarantine.push_back(RunQuarantine(/*breaker_on=*/true, 12));

  std::fprintf(f, "  \"convergence\": [\n");
  for (size_t i = 0; i < convergence.size(); ++i) {
    const ConvergenceSample& s = convergence[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"flaky_permille\": %d, \"seed\": %llu, "
                 "\"hosts\": %d, \"passes\": %d, \"converged\": %s, "
                 "\"soft_failures\": %d, \"host_retries\": %d}%s\n",
                 s.config, s.flaky_permille, static_cast<unsigned long long>(s.seed),
                 s.hosts, s.passes, s.converged ? "true" : "false", s.soft_failures,
                 s.host_retries, i + 1 < convergence.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"quarantine\": [\n");
  for (size_t i = 0; i < quarantine.size(); ++i) {
    const QuarantineSample& s = quarantine[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"passes\": %d, "
                 "\"attempts_on_down_host\": %d, \"breaker_opens\": %d, "
                 "\"breaker_skips\": %d, \"probe_failures\": %d}%s\n",
                 s.config, s.passes, s.attempts_on_down_host, s.breaker_opens,
                 s.breaker_skips, s.probe_failures,
                 i + 1 < quarantine.size() ? "," : "");
  }
  std::fprintf(f, "  ]");

  bool ok = true;
  std::printf("E6 resilience: flaky-fleet convergence (%d hosts, seed %llu)\n",
              convergence[0].hosts, static_cast<unsigned long long>(kSeed));
  std::printf("  %-8s %-14s %7s %10s %6s %8s\n", "flaky", "config", "passes",
              "converged", "soft", "retries");
  for (size_t i = 0; i + 1 < convergence.size(); i += 2) {
    const ConvergenceSample& base = convergence[i];
    const ConvergenceSample& res = convergence[i + 1];
    for (const ConvergenceSample* s : {&base, &res}) {
      std::printf("  %3d/1000 %-14s %7d %10s %6d %8d\n", s->flaky_permille, s->config,
                  s->passes, s->converged ? "yes" : "NO", s->soft_failures,
                  s->host_retries);
    }
    if (!res.converged || !base.converged || res.passes >= base.passes) {
      std::printf("  ^^ FAIL: resilient config must converge in strictly fewer "
                  "passes\n");
      ok = false;
    }
  }
  const QuarantineSample& qbase = quarantine[0];
  const QuarantineSample& qres = quarantine[1];
  std::printf("  quarantine (dead host, %d passes): baseline %d attempts, "
              "breaker %d attempts (%d skipped, %d opens, %d failed probes)\n",
              qbase.passes, qbase.attempts_on_down_host, qres.attempts_on_down_host,
              qres.breaker_skips, qres.breaker_opens, qres.probe_failures);
  if (qres.breaker_skips <= 0 ||
      qres.attempts_on_down_host >= qbase.attempts_on_down_host) {
    std::printf("  ^^ FAIL: an open breaker must stop consuming update attempts\n");
    ok = false;
  }
  std::printf("\n");
  return ok;
}

// ---------------------------------------------------------------------------
// Incremental-propagation sweep: full regeneration vs journal-delta patch
// shipping at 0.1% churn per pass, with a seeded fault plan and a
// byte-identity oracle, written to BENCH_propagation.json.

struct IncrementalSample {
  const char* config;        // "full" or "incremental"
  int users;
  int churn_per_pass;        // update_user_shell ops per measured pass
  int passes;                // measured churn passes (prime pass excluded)
  int64_t rows_examined;     // db-wide rows examined across the measured passes
  int64_t bytes_shipped;     // update payload bytes across the measured passes
  int64_t journal_entries;   // journal entries consumed by delta extraction
  int patch_ships;           // host updates delivered as keyed patches
  int patch_fallbacks;       // base-CRC refusals -> same-pass full reship
  int full_regens;           // journal-mode passes escalated to full regen
  int services_patched;
  double wall_ms;            // informational, not gated
  int oracle_files;          // installed files compared against fresh regen
  bool oracle_ok;
};

// Where each service's install script puts archive members on a host.
struct ServiceInstall {
  const char* service;
  GeneratorFn generate;
  const char* dir;
};
const ServiceInstall kInstalls[] = {
    {"HESIOD", GenerateHesiod, "/etc/athena/hesiod/"},
    {"NFS", GenerateNfs, "/site/moira/"},
    {"SMTP", GenerateMail, "/usr/lib/moira.staged/"},
    {"ZEPHYR", GenerateZephyrAcls, "/etc/athena/zephyr/acl/"},
};

int64_t DbRows(MoiraContext& mc) {
  int64_t total = 0;
  for (const std::string& name : mc.db().TableNames()) {
    total += mc.db().GetTable(name)->stats().rows_examined;
  }
  return total;
}

// The byte-identity oracle: regenerates every service from scratch and
// compares the installed files of every up-to-date host against the fresh
// output.  Hosts the fault plan left stale or quarantined (lts < dfgen,
// hosterror set) are excluded — the DCM itself knows they need a reship.
int VerifyInstalledAgainstFreshRegen(BenchSite& site, bool* ok) {
  int compared = 0;
  *ok = true;
  for (const ServiceInstall& svc : kInstalls) {
    GeneratorResult fresh;
    if (svc.generate(*site.mc, &fresh) != MR_SUCCESS) {
      std::printf("  oracle: %s regeneration failed\n", svc.service);
      *ok = false;
      continue;
    }
    Table* servers = site.mc->servers();
    std::vector<size_t> srows =
        From(servers).WhereEq("name", Value(std::string(svc.service))).Rows();
    if (srows.empty()) {
      continue;
    }
    const UnixTime dfgen = MoiraContext::IntCell(servers, srows[0], "dfgen");
    Table* sh = site.mc->serverhosts();
    for (size_t row :
         From(sh).WhereEq("service", Value(std::string(svc.service))).Rows()) {
      if (MoiraContext::IntCell(sh, row, "enable") < 1 ||
          MoiraContext::IntCell(sh, row, "hosterror") != 0 ||
          MoiraContext::IntCell(sh, row, "lts") < dfgen) {
        continue;
      }
      RowRef mach = site.mc->ExactOne(site.mc->machine(), "mach_id",
                                      Value(MoiraContext::IntCell(sh, row, "mach_id")),
                                      MR_MACHINE);
      if (mach.code != MR_SUCCESS) {
        continue;
      }
      const std::string& name =
          MoiraContext::StrCell(site.mc->machine(), mach.row, "name");
      SimHost* host = site.directory.Find(name);
      if (host == nullptr) {
        continue;
      }
      for (const auto& [member, contents] : fresh.ForHost(name).members()) {
        const std::string* got = host->ReadFile(std::string(svc.dir) + member);
        ++compared;
        if (got == nullptr || *got != *contents) {
          std::printf("  oracle MISMATCH: %s %s%s on %s (%s)\n", svc.service, svc.dir,
                      member.c_str(), name.c_str(),
                      got == nullptr ? "missing" : "differs");
          *ok = false;
        }
      }
    }
  }
  return compared;
}

// One arm of the sweep: a fresh site primed with a first full pass, then
// kChurnPasses passes of 0.1% user-shell churn — the first kFaultedPasses
// under the seeded fault plan, the tail clean so torn hosts self-heal before
// the oracle runs.  Both arms replay the identical churn and fault schedule;
// only the journal attachment differs.
IncrementalSample RunIncrementalArm(bool incremental, int users) {
  constexpr int kChurnPasses = 5;
  constexpr int kFaultedPasses = 3;
  SiteSpec spec;
  spec.total_users = users;
  BenchSite site{spec};
  Journal journal;
  if (incremental) {
    site.dcm->AttachJournal(&journal);
  }
  // Identical resilience in both arms: one in-pass retry outlasts the plan's
  // single flaky refusal, so no host misses a pass and forces a catch-up
  // full ship that the fault draw, not the propagation mode, caused.
  DcmResilienceConfig config;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff = 30;
  site.dcm->set_resilience(config);
  site.dcm->update_client().set_sleep_fn(
      [&site](UnixTime s) { site.clock.Advance(s); });
  site.dcm->RunOnce();  // prime pass: both arms generate and ship everything

  const int churn = std::max(1, users / 1000);  // the paper's 0.1%/pass churn
  const std::vector<std::string>& logins = site.builder->active_logins();
  SplitMix64 rng(4242);
  FaultPlanSpec fault;
  fault.seed = 1988;
  fault.flaky_permille = 80;
  fault.flaky_fail_count = 1;
  fault.torn_permille = 25;

  IncrementalSample s{incremental ? "incremental" : "full",
                      users,
                      churn,
                      kChurnPasses,
                      0,
                      0,
                      0,
                      0,
                      0,
                      0,
                      0,
                      0.0,
                      0,
                      true};
  for (int pass = 0; pass < kChurnPasses; ++pass) {
    // Advance before mutating: the legacy arm detects churn by table modtime
    // strictly newer than dfgen.
    site.clock.Advance(25 * kSecondsPerHour);
    for (int i = 0; i < churn; ++i) {
      const std::string& login = logins[rng.Below(logins.size())];
      ExecuteJournaled(*site.mc, &journal, "root", "bench", "update_user_shell",
                       {login, "/bin/p" + std::to_string(pass)});
    }
    if (pass < kFaultedPasses) {
      ArmPass(fault, site.hosts, pass);
    }
    const int64_t rows_before = DbRows(*site.mc);
    auto t0 = std::chrono::steady_clock::now();
    DcmRunSummary sum = site.dcm->RunOnce();
    s.wall_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    s.rows_examined += DbRows(*site.mc) - rows_before;
    s.bytes_shipped += sum.bytes_propagated;
    s.journal_entries += sum.journal_entries_examined;
    s.patch_ships += sum.patch_ships;
    s.patch_fallbacks += sum.patch_fallbacks;
    s.full_regens += sum.full_regens;
    s.services_patched += sum.services_patched;
  }
  s.oracle_files = VerifyInstalledAgainstFreshRegen(site, &s.oracle_ok);
  return s;
}

// Runs full vs incremental at each population size, writes the "incremental"
// and "gates" arrays (the gates end with the `extra_gates` records), prints a
// table.  Returns false if the largest size run misses the reduction bars
// (>= 50x fewer rows examined AND >= 50x fewer bytes shipped) or any
// incremental arm fails the byte-identity oracle.
bool RunIncrementalReport(FILE* f, const std::vector<std::string>& extra_gates) {
  int64_t max_users = 100000;
  if (const char* env = std::getenv("MOIRA_BENCH_INCREMENTAL_MAX_USERS")) {
    max_users = std::atoll(env);
  }
  std::vector<IncrementalSample> samples;
  for (int users : {10000, 100000, 1000000}) {
    if (users > max_users) {
      std::printf("E8 incremental: skipping %d users "
                  "(MOIRA_BENCH_INCREMENTAL_MAX_USERS=%lld)\n",
                  users, static_cast<long long>(max_users));
      continue;
    }
    samples.push_back(RunIncrementalArm(/*incremental=*/false, users));
    samples.push_back(RunIncrementalArm(/*incremental=*/true, users));
  }

  std::fprintf(f, "  \"incremental\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const IncrementalSample& s = samples[i];
    std::fprintf(
        f,
        "    {\"config\": \"%s\", \"users\": %d, \"churn_per_pass\": %d, "
        "\"passes\": %d, \"rows_examined\": %lld, \"bytes_shipped\": %lld, "
        "\"journal_entries\": %lld, \"patch_ships\": %d, "
        "\"patch_fallbacks\": %d, \"full_regens\": %d, "
        "\"services_patched\": %d, \"wall_ms\": %.2f, \"oracle_files\": %d, "
        "\"oracle_ok\": %s}%s\n",
        s.config, s.users, s.churn_per_pass, s.passes,
        static_cast<long long>(s.rows_examined),
        static_cast<long long>(s.bytes_shipped),
        static_cast<long long>(s.journal_entries), s.patch_ships,
        s.patch_fallbacks, s.full_regens, s.services_patched, s.wall_ms,
        s.oracle_files, s.oracle_ok ? "true" : "false",
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  bool ok = true;
  std::printf("E8 incremental propagation (full vs journal-delta, 0.1%% churn "
              "per pass, seeded faults):\n");
  std::printf("  %8s %-12s %14s %14s %9s %7s %6s %10s %9s\n", "users", "config",
              "rows_examined", "bytes_shipped", "jrnl", "patch", "fallb",
              "wall_ms", "oracle");
  for (const IncrementalSample& s : samples) {
    std::printf("  %8d %-12s %14lld %14lld %9lld %7d %6d %10.1f %9s\n", s.users,
                s.config, static_cast<long long>(s.rows_examined),
                static_cast<long long>(s.bytes_shipped),
                static_cast<long long>(s.journal_entries), s.patch_ships,
                s.patch_fallbacks, s.wall_ms, s.oracle_ok ? "ok" : "FAIL");
    if (std::string(s.config) == "incremental" &&
        (!s.oracle_ok || s.oracle_files <= 0)) {
      std::printf("  ^^ FAIL: patched fleet must match a fresh full "
                  "regeneration byte for byte\n");
      ok = false;
    }
  }

  double rows_ratio = 0.0;
  double bytes_ratio = 0.0;
  int gated_users = 0;
  if (samples.size() >= 2) {
    // Gate on the largest size that ran (>= 100k users unless capped lower).
    const IncrementalSample& full = samples[samples.size() - 2];
    const IncrementalSample& incr = samples[samples.size() - 1];
    gated_users = full.users;
    rows_ratio = incr.rows_examined > 0
                     ? static_cast<double>(full.rows_examined) /
                           static_cast<double>(incr.rows_examined)
                     : 0.0;
    bytes_ratio = incr.bytes_shipped > 0
                      ? static_cast<double>(full.bytes_shipped) /
                            static_cast<double>(incr.bytes_shipped)
                      : 0.0;
    std::printf("  at %d users: %.1fx fewer rows examined, %.1fx fewer bytes "
                "shipped\n",
                gated_users, rows_ratio, bytes_ratio);
    if (rows_ratio < 50.0 || bytes_ratio < 50.0) {
      std::printf("  ^^ FAIL: incremental mode must examine >= 50x fewer rows "
                  "and ship >= 50x fewer bytes\n");
      ok = false;
    }
  } else {
    std::printf("  ^^ FAIL: no incremental samples ran\n");
    ok = false;
  }

  bool oracle_all = !samples.empty();
  int oracle_files = 0;
  for (const IncrementalSample& s : samples) {
    if (std::string(s.config) == "incremental") {
      oracle_all = oracle_all && s.oracle_ok && s.oracle_files > 0;
      oracle_files += s.oracle_files;
    }
  }
  std::fprintf(
      f,
      "  \"gates\": [\n"
      "    {\"name\": \"incremental_rows_reduction_x\", \"users\": %d, "
      "\"value\": %.2f, \"pass\": %s},\n"
      "    {\"name\": \"incremental_bytes_reduction_x\", \"users\": %d, "
      "\"value\": %.2f, \"pass\": %s},\n"
      "    {\"name\": \"patched_outputs_byte_identical\", \"value\": %d, "
      "\"pass\": %s}",
      gated_users, rows_ratio, rows_ratio >= 50.0 ? "true" : "false",
      gated_users, bytes_ratio, bytes_ratio >= 50.0 ? "true" : "false",
      oracle_files, oracle_all ? "true" : "false");
  for (const std::string& gate : extra_gates) {
    std::fprintf(f, ",\n    %s", gate.c_str());
  }
  std::fprintf(f, "\n  ]");
  std::printf("\n");
  return ok;
}

// ---------------------------------------------------------------------------
// NFS consumer memory: the heap one NfsServerSim holds after applying its
// files on a 10k-user site, per line of the credentials file it applied.  It
// is the mallinfo2 heap freed when the consumer is destroyed, so it covers
// its credentials spans, locker and quota state together; the credentials
// text is the host's file, which the consumer shares.  Gated at 0 < x <= 32
// bytes per line.  A sanitizer's allocator keeps its heap out of mallinfo2,
// so a sanitizer build reports the sample and runs no gate.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kHeapVisible = false;
#else
constexpr bool kHeapVisible = true;
#endif

// Writes the "consumer_memory" array; sets `gate` to the gate's record for
// the "gates" array, or leaves it empty when the heap cannot be measured.
// Returns false if the gate fails or the consumer rejects its files.
bool RunConsumerMemoryReport(FILE* f, std::string* gate) {
  const SiteSpec spec;  // 10,000 users, 20 NFS servers
  BenchSite site{spec};
  GeneratorResult generated;
  GenerateNfs(*site.mc, &generated);
  const std::string& machine = site.builder->nfs_server_names()[0];
  SimHost* host = site.directory.Find(machine);
  for (const auto& [name, contents] : generated.ForHost(machine).members()) {
    host->WriteFileDirect("/site/moira/" + name, contents);
  }
  const std::string& credentials = *host->ReadFile("/site/moira/credentials");
  const auto lines = std::count(credentials.begin(), credentials.end(), '\n');
  auto nfsd = std::make_unique<NfsServerSim>(host);
  const int status = nfsd->ApplyMoiraFiles("/site/moira");
  const size_t before = HeapBytesInUse();
  nfsd.reset();
  const auto freed = static_cast<int64_t>(before) - static_cast<int64_t>(HeapBytesInUse());
  const double per_line =
      lines > 0 ? static_cast<double>(freed) / static_cast<double>(lines) : 0.0;
  const int users = spec.total_users;
  std::fprintf(f,
               "  \"consumer_memory\": [\n"
               "    {\"users\": %d, \"credential_lines\": %lld, \"heap_bytes\": %lld, "
               "\"bytes_per_line\": %.2f}\n"
               "  ],\n",
               users, static_cast<long long>(lines), static_cast<long long>(freed), per_line);
  std::printf("NFS consumer memory at %d users: %lld heap bytes for %lld credentials lines, "
              "%.1f bytes per line\n",
              users, static_cast<long long>(freed), static_cast<long long>(lines), per_line);
  bool ok = status == 0;
  if (!ok) {
    std::printf("  ^^ FAIL: update_lockers rejected the generated files (status %d)\n", status);
  }
  if (!kHeapVisible) {
    std::printf("  not gated: a sanitizer's allocator keeps its heap out of mallinfo2\n\n");
    return ok;
  }
  const bool pass = per_line > 0.0 && per_line <= 32.0;
  char record[160];
  std::snprintf(record, sizeof(record),
                "{\"name\": \"consumer_bytes_per_line_le_32\", \"users\": %d, "
                "\"value\": %.2f, \"pass\": %s}",
                users, per_line, pass ? "true" : "false");
  *gate = record;
  if (!pass) {
    std::printf("  ^^ FAIL: one NFS consumer must hold 0 < x <= 32 heap bytes per "
                "credentials line\n");
  }
  std::printf("\n");
  return ok && pass;
}

// ---------------------------------------------------------------------------
// Full generation: one full call of each per-record generator on a 10k-user
// site, its wall time (informational) and its Table::Match calls: each
// table's index_hits, prefix_scans, range_scans, full_scans and set_probes,
// summed over the call.  A full build reads each table it needs once, so
// the three services' calls together are gated at <= 200 (a build that
// probes per row makes tens of thousands).

int64_t MatchCalls(MoiraContext& mc) {
  int64_t total = 0;
  for (const std::string& name : mc.db().TableNames()) {
    const TableStats& s = mc.db().GetTable(name)->stats();
    total += s.index_hits + s.prefix_scans + s.range_scans + s.full_scans + s.set_probes;
  }
  return total;
}

// Writes the "full_generation" array and sets `gate` to the gate's record
// for the "gates" array.  Returns false if the gate fails or a generator
// does.
bool RunFullGenerationReport(FILE* f, std::string* gate) {
  const SiteSpec spec;  // 10,000 users
  BenchSite site{spec};
  struct Service {
    const char* name;
    GeneratorFn generate;
  };
  const Service kServices[] = {
      {"HESIOD", GenerateHesiod}, {"NFS", GenerateNfs}, {"SMTP", GenerateMail}};
  bool ok = true;
  int64_t total_calls = 0;
  std::fprintf(f, "  \"full_generation\": [\n");
  std::printf("Full generation at %d users (one call each):\n  %-7s %10s %12s\n",
              spec.total_users, "service", "wall_ms", "match_calls");
  for (size_t i = 0; i < std::size(kServices); ++i) {
    GeneratorResult result;
    const int64_t before = MatchCalls(*site.mc);
    auto t0 = std::chrono::steady_clock::now();
    const int32_t code = kServices[i].generate(*site.mc, &result);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    const int64_t calls = MatchCalls(*site.mc) - before;
    total_calls += calls;
    std::fprintf(f,
                 "    {\"service\": \"%s\", \"users\": %d, \"wall_ms\": %.2f, "
                 "\"match_calls\": %lld}%s\n",
                 kServices[i].name, spec.total_users, wall_ms, static_cast<long long>(calls),
                 i + 1 < std::size(kServices) ? "," : "");
    std::printf("  %-7s %10.1f %12lld\n", kServices[i].name, wall_ms,
                static_cast<long long>(calls));
    if (code != MR_SUCCESS) {
      std::printf("  ^^ FAIL: %s generation returned %d\n", kServices[i].name, code);
      ok = false;
    }
  }
  std::fprintf(f, "  ],\n");
  const bool pass = total_calls <= 200;
  char record[160];
  std::snprintf(record, sizeof(record),
                "{\"name\": \"full_generation_match_calls_le_200\", \"users\": %d, "
                "\"value\": %lld, \"pass\": %s}",
                spec.total_users, static_cast<long long>(total_calls), pass ? "true" : "false");
  *gate = record;
  if (!pass) {
    std::printf("  ^^ FAIL: the three full builds must make <= 200 Match calls together "
                "(made %lld)\n",
                static_cast<long long>(total_calls));
  }
  std::printf("\n");
  return ok && pass;
}

void PrintCycleReport() {
  BenchSite site{SiteSpec{}};
  DcmRunSummary summary = site.dcm->RunOnce();
  std::printf(
      "E6 full first propagation at paper scale:\n"
      "  %d hosts updated, %d propagations, %lld bytes, %d soft / %d hard failures\n\n",
      summary.hosts_updated, summary.propagations,
      static_cast<long long>(summary.bytes_propagated), summary.host_soft_failures,
      summary.host_hard_failures);
}

}  // namespace
}  // namespace moira

int main(int argc, char** argv) {
  moira::PrintCycleReport();
  const char* path = "BENCH_propagation.json";
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  moira::WriteBenchJsonHeader(f, "bench_propagation");
  bool resilience_ok = moira::RunResilienceReport(f);
  std::fprintf(f, ",\n");
  std::string consumer_gate;
  bool consumer_ok = moira::RunConsumerMemoryReport(f, &consumer_gate);
  std::string generation_gate;
  bool generation_ok = moira::RunFullGenerationReport(f, &generation_gate);
  std::vector<std::string> extra_gates = {generation_gate};
  if (!consumer_gate.empty()) {
    extra_gates.push_back(consumer_gate);
  }
  bool incremental_ok = moira::RunIncrementalReport(f, extra_gates);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return (resilience_ok && consumer_ok && generation_ok && incremental_ok) ? 0 : 1;
}
