// Journal-shipping read replication (DESIGN.md "Replication layer").
//
// The paper scales reads by pushing derived data out to consumers (Hesiod);
// this workload measures the complementary path: read replicas fed from the
// primary's journal, with client-side read routing.  It writes
// BENCH_replication.json and bakes the acceptance gates into the process exit
// code:
//   - with 4 replicas under the seeded fault plan, read throughput is at
//     least 3x the single-server baseline;
//   - every read-your-writes check passes;
//   - after the run every replica's full database dump is byte-identical to
//     the primary's.
//
// Throughput model: the host running this bench has a single core, so the
// scaling claim cannot come from real threads.  Instead reads are costed with
// a capacity model: every served read occupies exactly one server (the
// replica that answered, or the primary on redirect), so the wall-clock to
// drain N reads is proportional to the *busiest* server's share.  Read
// speedup = total reads / busiest server's reads.  The counts are measured,
// not assumed: a crashed or behind replica really does push its share onto
// the others (the router skips it), so broken replication genuinely fails the
// 3x gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/backup/backup.h"
#include "src/client/client.h"
#include "src/comerr/moira_errors.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/core/schema.h"
#include "src/krb/kerberos.h"
#include "src/net/channel.h"
#include "src/repl/cluster.h"
#include "src/repl/repl_fault.h"
#include "src/repl/replica.h"
#include "src/repl/router.h"
#include "src/server/server.h"

namespace moira {
namespace {

std::string Upper(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return s;
}

// A primary deployment plus `nreplicas` read replicas and a routing client.
struct ReplSite {
  SimulatedClock clock{568000000};
  std::unique_ptr<Database> db;
  std::unique_ptr<MoiraContext> mc;
  std::unique_ptr<KerberosRealm> realm;
  std::unique_ptr<MoiraServer> primary;
  std::vector<std::unique_ptr<ReplicaServer>> replicas;
  std::vector<ReplicaServer*> raw;
  std::unique_ptr<ReplicatedClient> router;

  explicit ReplSite(int nreplicas) {
    db = std::make_unique<Database>(&clock);
    CreateMoiraSchema(db.get());
    SeedMoiraDefaults(db.get());
    mc = std::make_unique<MoiraContext>(db.get());
    realm = std::make_unique<KerberosRealm>(&clock);
    realm->AddPrincipal("root", "rootpw");
    primary = std::make_unique<MoiraServer>(mc.get(), realm.get());

    auto admin = std::make_unique<MrClient>(
        [this] { return std::make_unique<LoopbackChannel>(primary.get()); });
    admin->SetKerberosIdentity(realm.get(), "root", "rootpw");
    admin->Connect();
    admin->Auth("repl-bench");
    router = std::make_unique<ReplicatedClient>(std::move(admin));
    // Seeded through the wire so the change is journalled: replicas replay
    // history from seq 1, so out-of-band mutations would never reach them.
    router->Query("add_user",
                  {"rbench", "200", "/bin/csh", "Bench", "Repl", "Q", "1", "hashr", "G"},
                  [](Tuple) {});

    for (int i = 0; i < nreplicas; ++i) {
      ReplicaOptions options;
      options.name = "r" + std::to_string(i);
      auto rep = std::make_unique<ReplicaServer>(realm.get(), options);
      rep->SetPrimaryLink(
          [this] { return std::make_unique<LoopbackChannel>(primary.get()); }, "root",
          "rootpw");
      rep->CatchUp();
      // Unauthenticated read client.  The retry policy matters: after a
      // replica crash the loopback channel dies, and without a reconnect
      // attempt the router would write the replica off forever.
      auto reader = std::make_unique<MrClient>(
          [r = rep.get()] { return std::make_unique<LoopbackChannel>(r); });
      RetryPolicy policy;
      policy.max_attempts = 2;
      policy.initial_backoff = 1;
      reader->SetRetryPolicy(policy, &clock);
      reader->set_sleep_fn([this](UnixTime s) { clock.Advance(s); });
      reader->Connect();
      router->AddReplica(std::move(reader));
      raw.push_back(rep.get());
      replicas.push_back(std::move(rep));
    }
  }
};

struct RunResult {
  int replicas = 0;
  int rounds = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t write_failures = 0;
  uint64_t busiest_reads = 0;
  double speedup = 0.0;
  uint64_t max_lag = 0;  // worst post-catch-up lag seen in any round
  uint64_t ryw_checks = 0;
  uint64_t ryw_failures = 0;
  uint64_t redirects = 0;
  uint64_t snapshot_loads = 0;
  uint64_t apply_failures = 0;
  bool converged = false;
};

// Runs `rounds` rounds of mixed traffic through the router; every write is
// immediately followed by a read-your-writes check of the row it created.
RunResult RunWorkload(int nreplicas, const ReplFaultSpec& fault_spec, int rounds,
                      int writes_per_round, int extra_reads_per_round) {
  ReplSite site(nreplicas);
  RunResult result;
  result.replicas = nreplicas;
  result.rounds = rounds;
  std::vector<std::string> machines;
  SplitMix64 pick(0xb3ac4);

  for (int round = 0; round < rounds; ++round) {
    ArmRound(fault_spec, site.raw, site.realm.get(), round);
    site.clock.Advance(30);
    for (int w = 0; w < writes_per_round; ++w) {
      std::string name =
          "bm" + std::to_string(round) + "x" + std::to_string(w) + ".mit.edu";
      ++result.writes;
      if (site.router->Query("add_machine", {name, "VAX"}, [](Tuple) {}) != MR_SUCCESS) {
        ++result.write_failures;
      }
      machines.push_back(Upper(name));
      // Read-your-writes: the row just written must be visible to the very
      // next read, wherever the router sends it.
      ++result.ryw_checks;
      ++result.reads;
      bool found = false;
      int32_t code = site.router->Query("get_machine", {machines.back()},
                                        [&](Tuple) { found = true; });
      if (code != MR_SUCCESS || !found) {
        ++result.ryw_failures;
      }
    }
    for (int r = 0; r < extra_reads_per_round; ++r) {
      ++result.reads;
      const std::string& name = machines[pick.Below(machines.size())];
      site.router->Query("get_machine", {name}, [](Tuple) {});
    }
    // End-of-round catch-up sweep (the replicas' pull daemons).
    for (ReplicaServer* rep : site.raw) {
      rep->CatchUp();
    }
    const uint64_t primary_seq = site.primary->journal().last_seq();
    for (ReplicaServer* rep : site.raw) {
      if (primary_seq > rep->applied_seq()) {
        result.max_lag = std::max(result.max_lag, primary_seq - rep->applied_seq());
      }
    }
  }

  // Heal everything and drain: replication must converge once faults stop.
  ArmRound(ReplFaultSpec{}, site.raw, site.realm.get(), rounds);
  for (ReplicaServer* rep : site.raw) {
    rep->CatchUp();
  }
  const std::string golden = BackupManager::DumpToString(*site.db);
  result.converged = true;
  for (ReplicaServer* rep : site.raw) {
    if (BackupManager::DumpToString(rep->db()) != golden) {
      result.converged = false;
    }
    result.snapshot_loads += rep->stats().snapshot_loads;
    result.apply_failures += rep->stats().apply_failures;
  }

  // Capacity model: the busiest server bounds wall-clock read throughput.
  result.busiest_reads = site.router->stats().primary_reads;
  for (ReplicaServer* rep : site.raw) {
    result.busiest_reads = std::max(result.busiest_reads, rep->stats().reads_served);
  }
  result.speedup = result.busiest_reads == 0
                       ? 0.0
                       : static_cast<double>(result.reads) /
                             static_cast<double>(result.busiest_reads);
  result.redirects = site.router->stats().redirects;
  return result;
}

constexpr int kRounds = 16;
constexpr int kWritesPerRound = 5;
constexpr int kExtraReadsPerRound = 55;

ReplFaultSpec SeededFaults() {
  ReplFaultSpec spec;
  spec.seed = 1988;
  spec.crash_permille = 120;
  spec.flap_permille = 250;
  spec.slow_permille = 250;
  spec.slow_apply_limit = 4;
  spec.kdc_down_permille = 150;
  return spec;
}

// --- Failover sweep: quorum writes + automatic failover under faults ---

struct FailoverResult {
  int rounds = 0;
  uint64_t seed = 0;
  uint64_t write_attempts = 0;
  uint64_t acked_writes = 0;        // writes the router acked to the caller
  uint64_t lost_acked_writes = 0;   // acked but missing from the final dump
  uint64_t elections_started = 0;
  uint64_t promotions = 0;          // every one is election-driven, not operator
  uint64_t step_downs = 0;
  uint64_t epochs_observed = 0;
  uint64_t split_brain_epochs = 0;  // an epoch seen writable on two nodes
  bool unique_final_primary = false;
  bool converged = false;
};

// A 3-node live-wire cluster under the seeded fault plan (crashes, link
// flaps, slow applies, KDC outages, torn quorum pushes, symmetric and
// asymmetric partitions).  Mirrors FailoverSweepTest: the oracle is the list
// of writes the router ACKED — every one must appear in the final primary's
// dump — plus a per-tick one-writable-primary-per-epoch scan.
FailoverResult RunFailoverSweep(uint64_t seed, int rounds) {
  ReplClusterOptions options;
  options.missed_heartbeats = 2;
  ReplCluster cluster(options);

  auto factory = [&cluster](const ReplEndpoint& endpoint) {
    auto client = std::make_unique<MrClient>(endpoint.connector);
    client->SetKerberosIdentity(&cluster.realm(), "root", "rootpw");
    return client;
  };
  std::vector<ReplEndpoint> endpoints;
  for (int i = 0; i < cluster.size(); ++i) {
    endpoints.push_back({cluster.node_name(i), cluster.ClientConnector(i)});
  }
  auto first = factory(endpoints[0]);
  first->Connect();
  first->Auth("bench-failover");
  auto router = std::make_unique<ReplicatedClient>(std::move(first));
  router->SetEndpoints(std::move(endpoints), factory, "bench-failover");
  router->EnableTaggedWrites("fb");

  ReplFaultSpec spec;
  spec.seed = seed;
  spec.crash_permille = 150;
  spec.flap_permille = 200;
  spec.slow_permille = 150;
  spec.slow_apply_limit = 2;
  spec.kdc_down_permille = 100;
  spec.torn_push_permille = 200;
  spec.partition_permille = 300;
  spec.asym_partition_permille = 300;

  std::vector<ReplicaServer*> raw;
  std::vector<std::string> names;
  for (int i = 0; i < cluster.size(); ++i) {
    raw.push_back(cluster.node(i));
    names.push_back(cluster.node_name(i));
  }

  FailoverResult result;
  result.rounds = rounds;
  result.seed = seed;
  std::vector<std::string> acked;  // canonical uppercase, grepped verbatim
  std::map<uint64_t, std::string> epoch_owner;
  auto observe_primaries = [&] {
    for (ReplicaServer* p : cluster.WritablePrimaries()) {
      auto [it, inserted] = epoch_owner.emplace(p->epoch(), p->name());
      if (!inserted && it->second != p->name()) {
        ++result.split_brain_epochs;
      }
    }
  };

  for (int round = 0; round < rounds; ++round) {
    ArmRound(spec, raw, &cluster.realm(), round, &cluster.net(), names);
    for (int tick = 0; tick < 3; ++tick) {
      cluster.Tick();
      observe_primaries();
    }
    for (int w = 0; w < 2; ++w) {
      std::string name =
          "FB" + std::to_string(round) + "X" + std::to_string(w) + ".MIT.EDU";
      ++result.write_attempts;
      if (router->Query("add_machine", {name, "VAX"}, [](Tuple) {}) ==
          MR_SUCCESS) {
        acked.push_back(name);
      }
    }
    observe_primaries();
  }

  // Heal everything; the cluster must converge on its own heartbeats — no
  // operator Promote() anywhere in this sweep.
  ArmRound(ReplFaultSpec{}, raw, &cluster.realm(), rounds, &cluster.net(), names);
  ReplicaServer* final_primary = nullptr;
  for (int i = 0; i < 40 && final_primary == nullptr; ++i) {
    cluster.Tick();
    final_primary = cluster.primary();
  }
  result.acked_writes = acked.size();
  result.epochs_observed = epoch_owner.size();
  for (ReplicaServer* node : raw) {
    result.elections_started += node->stats().elections_started;
    result.promotions += node->stats().promotions;
    result.step_downs += node->stats().step_downs;
  }
  result.unique_final_primary = final_primary != nullptr;
  if (final_primary == nullptr) {
    // No dump to check against: every acked write is unverifiable, so the
    // lost-write gate fails closed.
    result.lost_acked_writes = result.acked_writes;
    return result;
  }

  // One more write flushes the router's pending replay queue, then drain.
  bool drained = router->Query("add_machine", {"fbdrain.mit.edu", "VAX"},
                               [](Tuple) {}) == MR_SUCCESS &&
                 router->pending_writes() == 0;
  for (int i = 0; i < 60; ++i) {
    cluster.Tick();
    bool all = true;
    for (ReplicaServer* node : raw) {
      if (!node->crashed() && node != final_primary &&
          node->applied_seq() < final_primary->server().journal().last_seq()) {
        all = false;
      }
    }
    if (all) {
      break;
    }
  }
  observe_primaries();
  result.epochs_observed = epoch_owner.size();

  const std::string golden = BackupManager::DumpToString(final_primary->db());
  for (const std::string& name : acked) {
    if (golden.find(name) == std::string::npos) {
      ++result.lost_acked_writes;
    }
  }
  result.converged = drained;
  for (ReplicaServer* node : raw) {
    if (node->crashed() || node == final_primary) {
      continue;
    }
    if (BackupManager::DumpToString(node->db()) != golden ||
        node->stats().apply_failures != 0) {
      result.converged = false;
    }
  }
  return result;
}

void PrintFailover(const FailoverResult& r) {
  std::printf("  failover sweep               rounds=%d acked=%llu/%llu lost=%llu "
              "elections=%llu promotions=%llu epochs=%llu split_brain=%llu %s\n",
              r.rounds, static_cast<unsigned long long>(r.acked_writes),
              static_cast<unsigned long long>(r.write_attempts),
              static_cast<unsigned long long>(r.lost_acked_writes),
              static_cast<unsigned long long>(r.elections_started),
              static_cast<unsigned long long>(r.promotions),
              static_cast<unsigned long long>(r.epochs_observed),
              static_cast<unsigned long long>(r.split_brain_epochs),
              r.converged ? "converged" : "DIVERGED");
}

void WriteFailoverJson(std::FILE* f, const FailoverResult& r) {
  std::fprintf(f,
               "    {\"rounds\": %d, \"seed\": %llu, \"write_attempts\": %llu, "
               "\"acked_writes\": %llu, \"lost_acked_writes\": %llu, "
               "\"elections_started\": %llu, \"promotions\": %llu, "
               "\"step_downs\": %llu, \"epochs_observed\": %llu, "
               "\"split_brain_epochs\": %llu, \"unique_final_primary\": %s, "
               "\"converged\": %s}",
               r.rounds, static_cast<unsigned long long>(r.seed),
               static_cast<unsigned long long>(r.write_attempts),
               static_cast<unsigned long long>(r.acked_writes),
               static_cast<unsigned long long>(r.lost_acked_writes),
               static_cast<unsigned long long>(r.elections_started),
               static_cast<unsigned long long>(r.promotions),
               static_cast<unsigned long long>(r.step_downs),
               static_cast<unsigned long long>(r.epochs_observed),
               static_cast<unsigned long long>(r.split_brain_epochs),
               r.unique_final_primary ? "true" : "false",
               r.converged ? "true" : "false");
}

void PrintRun(const char* tag, const RunResult& r) {
  std::printf("  %-28s replicas=%d reads=%llu busiest=%llu speedup=%.2fx "
              "max_lag=%llu ryw=%llu/%llu redirects=%llu snapshots=%llu %s\n",
              tag, r.replicas, static_cast<unsigned long long>(r.reads),
              static_cast<unsigned long long>(r.busiest_reads), r.speedup,
              static_cast<unsigned long long>(r.max_lag),
              static_cast<unsigned long long>(r.ryw_checks - r.ryw_failures),
              static_cast<unsigned long long>(r.ryw_checks),
              static_cast<unsigned long long>(r.redirects),
              static_cast<unsigned long long>(r.snapshot_loads),
              r.converged ? "converged" : "DIVERGED");
}

void WriteRunJson(std::FILE* f, const RunResult& r, uint64_t seed, bool faulted) {
  std::fprintf(f,
               "    {\"replicas\": %d, \"rounds\": %d, \"seed\": %llu, "
               "\"faulted\": %s, \"reads\": %llu, \"writes\": %llu, "
               "\"write_failures\": %llu, \"busiest_server_reads\": %llu, "
               "\"read_speedup_x\": %.3f, \"max_lag\": %llu, "
               "\"ryw_checks\": %llu, \"ryw_failures\": %llu, "
               "\"redirects\": %llu, \"snapshot_loads\": %llu, "
               "\"apply_failures\": %llu, \"converged\": %s}",
               r.replicas, r.rounds, static_cast<unsigned long long>(seed),
               faulted ? "true" : "false", static_cast<unsigned long long>(r.reads),
               static_cast<unsigned long long>(r.writes),
               static_cast<unsigned long long>(r.write_failures),
               static_cast<unsigned long long>(r.busiest_reads), r.speedup,
               static_cast<unsigned long long>(r.max_lag),
               static_cast<unsigned long long>(r.ryw_checks),
               static_cast<unsigned long long>(r.ryw_failures),
               static_cast<unsigned long long>(r.redirects),
               static_cast<unsigned long long>(r.snapshot_loads),
               static_cast<unsigned long long>(r.apply_failures),
               r.converged ? "true" : "false");
}

// Runs the scaling sweep and the seeded faulty run, writes
// BENCH_replication.json, and returns whether the acceptance gates hold.
bool RunReplicationReport(const char* path) {
  std::printf("Journal-shipping read replication:\n");

  // Fault-free scaling sweep: how read throughput grows with replica count.
  ReplFaultSpec clean;  // all permille at 0
  std::vector<RunResult> scaling;
  for (int n : {0, 1, 2, 4}) {
    scaling.push_back(RunWorkload(n, clean, kRounds, kWritesPerRound,
                                  kExtraReadsPerRound));
    PrintRun(n == 0 ? "baseline (no replicas)" : "fault-free", scaling.back());
  }

  // The acceptance run: 4 replicas under the seeded fault plan.
  const ReplFaultSpec faults = SeededFaults();
  RunResult faulted = RunWorkload(4, faults, kRounds, kWritesPerRound,
                                  kExtraReadsPerRound);
  PrintRun("seeded faults", faulted);

  // The failover acceptance run: quorum writes + heartbeat elections on a
  // 3-node cluster under randomized partitions, flaps, and crashes.
  FailoverResult failover = RunFailoverSweep(1988, 25);
  PrintFailover(failover);

  const bool speedup_ok = faulted.speedup >= 3.0;
  const bool ryw_ok = faulted.ryw_failures == 0 && faulted.write_failures == 0;
  const bool converged_ok = faulted.converged && faulted.apply_failures == 0;
  // The sweep must actually exercise failover (acked writes and elections
  // both happened) for a zero-loss result to prove anything.
  const bool no_lost_ok =
      failover.lost_acked_writes == 0 && failover.acked_writes >= 10;
  const bool auto_failover_ok = failover.unique_final_primary &&
                                failover.converged && failover.promotions >= 1;
  const bool one_primary_ok = failover.split_brain_epochs == 0;
  if (!speedup_ok) {
    std::printf("FAIL: read speedup %.2fx under faults is below the 3x gate\n",
                faulted.speedup);
  }
  if (!ryw_ok) {
    std::printf("FAIL: %llu read-your-writes checks failed\n",
                static_cast<unsigned long long>(faulted.ryw_failures +
                                                faulted.write_failures));
  }
  if (!converged_ok) {
    std::printf("FAIL: replica dumps diverged from the primary after the run\n");
  }
  if (!no_lost_ok) {
    std::printf("FAIL: %llu acked write(s) lost in the failover sweep "
                "(%llu acked)\n",
                static_cast<unsigned long long>(failover.lost_acked_writes),
                static_cast<unsigned long long>(failover.acked_writes));
  }
  if (!auto_failover_ok) {
    std::printf("FAIL: failover sweep did not converge automatically\n");
  }
  if (!one_primary_ok) {
    std::printf("FAIL: split brain — %llu epoch(s) writable on two nodes\n",
                static_cast<unsigned long long>(failover.split_brain_epochs));
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("FAIL: cannot write %s\n", path);
    return false;
  }
  WriteBenchJsonHeader(f, "bench_replication");
  std::fprintf(f, "  \"scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    WriteRunJson(f, scaling[i], clean.seed, false);
    std::fprintf(f, "%s\n", i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"faulted\": [\n");
  WriteRunJson(f, faulted, faults.seed, true);
  std::fprintf(f, "\n  ],\n  \"failover\": [\n");
  WriteFailoverJson(f, failover);
  std::fprintf(f, "\n  ],\n  \"gates\": [\n");
  std::fprintf(f,
               "    {\"name\": \"read_speedup_with_4_replicas_ge_3x\", "
               "\"value\": %.3f, \"pass\": %s},\n",
               faulted.speedup, speedup_ok ? "true" : "false");
  std::fprintf(f,
               "    {\"name\": \"read_your_writes_all_pass\", \"value\": %llu, "
               "\"pass\": %s},\n",
               static_cast<unsigned long long>(faulted.ryw_failures),
               ryw_ok ? "true" : "false");
  std::fprintf(f,
               "    {\"name\": \"replica_dumps_byte_identical\", \"value\": %d, "
               "\"pass\": %s},\n",
               faulted.replicas, converged_ok ? "true" : "false");
  std::fprintf(f,
               "    {\"name\": \"failover_zero_acked_writes_lost\", "
               "\"value\": %llu, \"pass\": %s},\n",
               static_cast<unsigned long long>(failover.lost_acked_writes),
               no_lost_ok ? "true" : "false");
  std::fprintf(f,
               "    {\"name\": \"failover_converges_automatically\", "
               "\"value\": %llu, \"pass\": %s},\n",
               static_cast<unsigned long long>(failover.promotions),
               auto_failover_ok ? "true" : "false");
  std::fprintf(f,
               "    {\"name\": \"one_primary_per_epoch\", \"value\": %llu, "
               "\"pass\": %s}\n",
               static_cast<unsigned long long>(failover.split_brain_epochs),
               one_primary_ok ? "true" : "false");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n\n", path);
  return speedup_ok && ryw_ok && converged_ok && no_lost_ok &&
         auto_failover_ok && one_primary_ok;
}

// --- microbenchmarks ---

// A read served by a replica, token already satisfied (the steady state).
void BM_ReplicaRead(benchmark::State& state) {
  static ReplSite* site = [] {
    auto* s = new ReplSite(1);
    s->router->Query("add_machine", {"bmread.mit.edu", "VAX"}, [](Tuple) {});
    s->raw[0]->CatchUp();
    return s;
  }();
  for (auto _ : state) {
    int32_t code =
        site->router->Query("get_machine", {"BMREAD.MIT.EDU"}, [](Tuple) {});
    benchmark::DoNotOptimize(code);
  }
}
BENCHMARK(BM_ReplicaRead);

// Shipping and applying one journal entry over the wire.
void BM_CatchUpPerEntry(benchmark::State& state) {
  static ReplSite* site = new ReplSite(1);
  int i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    site->router->Query("update_user_shell",
                        {"rbench", "/bin/b" + std::to_string(i++ % 7)}, [](Tuple) {});
    state.ResumeTiming();
    int32_t code = site->raw[0]->CatchUp();
    benchmark::DoNotOptimize(code);
  }
}
BENCHMARK(BM_CatchUpPerEntry);

}  // namespace
}  // namespace moira

int main(int argc, char** argv) {
  // The report (and its acceptance gates) runs even under an unmatchable
  // --benchmark_filter, which is how scripts/check.sh smoke-tests it.
  bool ok = moira::RunReplicationReport("BENCH_replication.json");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
