// Tests for quorum-acknowledged writes and heartbeat-driven automatic
// failover (src/repl/cluster.h harness): the quorum gate and its degraded
// modes, elections and epoch fencing (split-brain regressions), asymmetric
// partitions and leader stickiness (pre-vote), torn quorum pushes, tagged
// write replay through the router, DCM read offload over a cluster replica,
// and the randomized partition/flap/crash sweep against the lost-acked-write
// oracle.
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/backup/backup.h"
#include "src/client/client.h"
#include "src/comerr/moira_errors.h"
#include "src/dcm/dcm.h"
#include "src/repl/cluster.h"
#include "src/repl/repl_fault.h"
#include "src/repl/replica.h"
#include "src/repl/router.h"
#include "src/server/server.h"
#include "src/sim/population.h"
#include "src/update/sim_host.h"
#include "src/zephyrd/zephyr_bus.h"

namespace moira {
namespace {

using HeartbeatEvent = ReplicaServer::HeartbeatEvent;

// A root-authenticated client to cluster node `i`.
MrClient MakeAdmin(ReplCluster& cluster, int i) {
  MrClient client(cluster.ClientConnector(i));
  client.SetKerberosIdentity(&cluster.realm(), "root", "rootpw");
  EXPECT_EQ(MR_SUCCESS, client.Connect());
  EXPECT_EQ(MR_SUCCESS, client.Auth("ops"));
  return client;
}

// Ticks until the cluster has exactly one writable primary (bounded), then
// returns it; nullptr if it never converges.
ReplicaServer* TickUntilPrimary(ReplCluster& cluster, int max_ticks = 20) {
  for (int i = 0; i < max_ticks; ++i) {
    cluster.Tick();
    if (ReplicaServer* p = cluster.primary(); p != nullptr) {
      return p;
    }
  }
  return cluster.primary();
}

// Ticks until some node OTHER than `old` is accepting writes: during a
// partition the deposed primary can stay writable on its side, so
// TickUntilPrimary (which wants a unique primary) would never return the
// successor.
ReplicaServer* TickUntilNewPrimary(ReplCluster& cluster, ReplicaServer* old,
                                   int max_ticks = 20) {
  for (int i = 0; i < max_ticks; ++i) {
    cluster.Tick();
    for (ReplicaServer* p : cluster.WritablePrimaries()) {
      if (p != old) {
        return p;
      }
    }
  }
  return nullptr;
}

// Ticks until every live node has applied the primary's whole journal.
void TickUntilConverged(ReplCluster& cluster, int max_ticks = 40) {
  for (int i = 0; i < max_ticks; ++i) {
    cluster.Tick();
    ReplicaServer* p = cluster.primary();
    if (p == nullptr) {
      continue;
    }
    bool all = true;
    for (int n = 0; n < cluster.size(); ++n) {
      ReplicaServer* node = cluster.node(n);
      if (node->crashed() || node == p) {
        continue;
      }
      if (node->applied_seq() < p->server().journal().last_seq()) {
        all = false;
      }
    }
    if (all) {
      return;
    }
  }
}

// --- Quorum gate ---

TEST(FailoverQuorumTest, WriteAcksOnlyAfterMajorityApplied) {
  ReplCluster cluster;
  MrClient admin = MakeAdmin(cluster, 0);
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"q1.mit.edu", "VAX"}, [](Tuple) {}));
  // The push path delivered the entry to both replicas before the ack.
  const uint64_t seq = cluster.node(0)->server().journal().last_seq();
  EXPECT_GE(cluster.node(1)->applied_seq() + cluster.node(2)->applied_seq(), seq);
  const MoiraServer::QuorumStats& qs = cluster.node(0)->server().quorum_stats();
  EXPECT_EQ(1u, qs.quorum_writes);
  EXPECT_EQ(1u, qs.quorum_acks);
  EXPECT_EQ(0u, qs.quorum_timeouts);
  // Replicas saw the write through pushes alone — no pull round needed.
  EXPECT_GE(cluster.node(1)->stats().push_batches +
                cluster.node(2)->stats().push_batches,
            1u);
}

TEST(FailoverQuorumTest, RefusePolicyReturnsSoftErrorWithoutQuorum) {
  ReplCluster cluster;  // quorum_ack_local = false: refuse
  // Cut the primary off from both replicas (requests never arrive).
  cluster.net().BlockBoth("n0", "n1");
  cluster.net().BlockBoth("n0", "n2");
  MrClient admin = MakeAdmin(cluster, 0);
  EXPECT_EQ(MR_QUORUM_TIMEOUT,
            admin.Query("add_machine", {"iso.mit.edu", "VAX"}, [](Tuple) {}));
  const MoiraServer::QuorumStats& qs = cluster.node(0)->server().quorum_stats();
  EXPECT_EQ(1u, qs.quorum_timeouts);
  EXPECT_EQ(0u, qs.quorum_acks);
  // The entry is journaled locally — the outcome is unknown, not lost; a
  // healed quorum round (next write) replicates it.
  EXPECT_GE(cluster.node(0)->server().journal().last_seq(), 1u);
  cluster.net().HealAll();
  EXPECT_EQ(MR_SUCCESS, admin.Query("add_machine", {"ok.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(cluster.node(0)->server().journal().last_seq(),
            cluster.node(1)->applied_seq());
}

TEST(FailoverQuorumTest, AckLocalPolicyDegradesWithAlarm) {
  ReplClusterOptions options;
  options.quorum_ack_local = true;
  ReplCluster cluster(options);
  std::vector<std::string> alarms;
  cluster.node(0)->server().set_quorum_alarm(
      [&](const std::string& msg) { alarms.push_back(msg); });
  cluster.net().BlockBoth("n0", "n1");
  cluster.net().BlockBoth("n0", "n2");
  MrClient admin = MakeAdmin(cluster, 0);
  EXPECT_EQ(MR_SUCCESS,
            admin.Query("add_machine", {"deg.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(1u, cluster.node(0)->server().quorum_stats().degraded_acks);
  ASSERT_EQ(1u, alarms.size());
  EXPECT_NE(alarms[0].find("quorum unreachable"), std::string::npos);
}

TEST(FailoverQuorumTest, ExplicitWriteQuorumOverridesMajority) {
  ReplClusterOptions options;
  options.write_quorum = 3;  // all three nodes must hold every write
  ReplCluster cluster(options);
  cluster.net().BlockBoth("n0", "n2");  // one replica out: 2 < 3
  MrClient admin = MakeAdmin(cluster, 0);
  EXPECT_EQ(MR_QUORUM_TIMEOUT,
            admin.Query("add_machine", {"w3.mit.edu", "VAX"}, [](Tuple) {}));
  cluster.net().HealAll();
  EXPECT_EQ(MR_SUCCESS, admin.Query("add_machine", {"w3b.mit.edu", "VAX"}, [](Tuple) {}));
}

// --- Elections and epoch fencing ---

TEST(FailoverElectionTest, CrashedPrimaryTriggersAutomaticFailover) {
  ReplCluster cluster;
  MrClient admin = MakeAdmin(cluster, 0);
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"e1.mit.edu", "VAX"}, [](Tuple) {}));
  cluster.node(0)->Crash();
  ReplicaServer* next = TickUntilPrimary(cluster);
  ASSERT_NE(nullptr, next);
  EXPECT_NE(cluster.node(0), next);
  EXPECT_GE(next->epoch(), 2u);  // a new reign, not a second epoch-1 primary
  // The quorum-acked write survived the failover (hostnames are stored
  // canonicalized to uppercase).
  std::string dump = BackupManager::DumpToString(next->db());
  EXPECT_NE(dump.find("E1.MIT.EDU"), std::string::npos);
  // The bystander adopted the winner rather than standing itself.
  int adopted = 0;
  for (int i = 1; i < cluster.size(); ++i) {
    if (cluster.node(i) != next) {
      adopted += static_cast<int>(cluster.node(i)->stats().adoptions > 0);
    }
  }
  EXPECT_EQ(1, adopted);
  // Writes flow through the new primary, quorum-acknowledged by the survivor.
  MrClient admin2 = MakeAdmin(cluster, static_cast<int>(next->name()[1] - '0'));
  EXPECT_EQ(MR_SUCCESS, admin2.Query("add_machine", {"e2.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_GE(next->server().quorum_stats().quorum_acks, 1u);
}

TEST(FailoverElectionTest, RestartedOldPrimaryRejoinsAsReplica) {
  ReplCluster cluster;
  MrClient admin = MakeAdmin(cluster, 0);
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"r1.mit.edu", "VAX"}, [](Tuple) {}));
  cluster.node(0)->Crash();
  ReplicaServer* next = TickUntilPrimary(cluster);
  ASSERT_NE(nullptr, next);
  const int next_idx = next->name()[1] - '0';
  MrClient admin2 = MakeAdmin(cluster, next_idx);
  ASSERT_EQ(MR_SUCCESS, admin2.Query("add_machine", {"r2.mit.edu", "VAX"}, [](Tuple) {}));
  cluster.node(0)->Restart();
  TickUntilConverged(cluster);
  EXPECT_FALSE(cluster.node(0)->promoted());
  EXPECT_GE(cluster.node(0)->stats().adoptions, 1u);
  // Byte-identical with the new primary, including the post-failover write.
  EXPECT_EQ(BackupManager::DumpToString(next->db()),
            BackupManager::DumpToString(cluster.node(0)->db()));
  EXPECT_NE(BackupManager::DumpToString(cluster.node(0)->db()).find("R2.MIT.EDU"),
            std::string::npos);
}

TEST(FailoverElectionTest, PartitionedPrimaryIsFencedAndStepsDownNoSplitBrain) {
  ReplCluster cluster;
  MrClient admin = MakeAdmin(cluster, 0);
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"sb0.mit.edu", "VAX"}, [](Tuple) {}));
  // Isolate the primary; it stays up and keeps thinking it is primary.
  cluster.net().BlockBoth("n0", "n1");
  cluster.net().BlockBoth("n0", "n2");
  // Writes to the isolated primary cannot reach quorum: nothing is acked, so
  // nothing can be lost when it is deposed.
  EXPECT_EQ(MR_QUORUM_TIMEOUT,
            admin.Query("add_machine", {"sb-lost.mit.edu", "VAX"}, [](Tuple) {}));
  ReplicaServer* next = TickUntilNewPrimary(cluster, cluster.node(0));
  ASSERT_NE(nullptr, next);
  ASSERT_NE(cluster.node(0), next);
  // Both sides up: two promoted nodes exist, but in DIFFERENT epochs, and
  // only the new reign can assemble a quorum.
  EXPECT_TRUE(cluster.node(0)->promoted());
  EXPECT_GT(next->epoch(), cluster.node(0)->epoch());
  // Heal.  The old primary's next quorum push meets a node that outlived it
  // and is fenced mid-gate: the unreplicated write is refused, not acked.
  cluster.net().HealAll();
  EXPECT_EQ(MR_REPL_EPOCH,
            admin.Query("add_machine", {"sb-late.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_TRUE(cluster.node(0)->server().fenced());
  // Next heartbeat: the fenced ex-primary steps down and resyncs; its dead
  // reign's suffix (sb-lost, sb-late) is discarded with it.
  TickUntilConverged(cluster);
  EXPECT_FALSE(cluster.node(0)->promoted());
  EXPECT_GE(cluster.node(0)->stats().step_downs, 1u);
  ASSERT_EQ(1u, cluster.WritablePrimaries().size());
  std::string dump = BackupManager::DumpToString(cluster.node(0)->db());
  EXPECT_EQ(BackupManager::DumpToString(next->db()), dump);
  EXPECT_NE(dump.find("SB0.MIT.EDU"), std::string::npos);
  EXPECT_EQ(dump.find("SB-LOST.MIT.EDU"), std::string::npos);
  EXPECT_EQ(dump.find("SB-LATE.MIT.EDU"), std::string::npos);
}

TEST(FailoverElectionTest, StalePromotionCannotAckWrites) {
  // Epoch-fencing regression: promote a lagging node by operator error while
  // the real primary lives.  Its first quorum round meets peers that have
  // seen... nothing newer, so instead the REAL primary's next round fences
  // the usurper's stale epoch claim — whichever pushes first, only one epoch
  // can assemble a quorum, and no epoch ever has two writable holders that
  // both ack.
  ReplCluster cluster;
  MrClient admin = MakeAdmin(cluster, 0);
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"u0.mit.edu", "VAX"}, [](Tuple) {}));
  cluster.node(2)->PromoteWithEpoch(2);  // usurper at a NEW epoch
  // The old primary's next write pushes at epoch 1 into n2 — which now
  // refuses it as stale and fences n0 on contact.
  EXPECT_EQ(MR_REPL_EPOCH,
            admin.Query("add_machine", {"u1.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_TRUE(cluster.node(0)->server().fenced());
  // Exactly one writable primary per epoch at every instant.
  std::map<uint64_t, std::string> epoch_owner;
  for (ReplicaServer* p : cluster.WritablePrimaries()) {
    auto [it, inserted] = epoch_owner.emplace(p->epoch(), p->name());
    EXPECT_TRUE(inserted) << "split brain: epoch " << p->epoch() << " held by "
                          << it->second << " and " << p->name();
  }
  // The cluster converges behind the highest epoch.
  TickUntilConverged(cluster);
  ASSERT_EQ(1u, cluster.WritablePrimaries().size());
  EXPECT_EQ(cluster.node(2), cluster.WritablePrimaries()[0]);
}

TEST(FailoverElectionTest, ElectionPrefersTheMostCompleteLog) {
  ReplCluster cluster;
  MrClient admin = MakeAdmin(cluster, 0);
  // n1 falls behind: cut n0->n1 so pushes only reach n2 (still a majority
  // with the primary itself).
  cluster.net().BlockBoth("n0", "n1");
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"ml.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_GT(cluster.node(2)->applied_seq(), cluster.node(1)->applied_seq());
  cluster.node(0)->Crash();
  cluster.net().HealAll();
  ReplicaServer* next = TickUntilPrimary(cluster);
  // Only n2 holds the acked write; the vote rule must elect it even though
  // n1's name sorts first.
  ASSERT_EQ(cluster.node(2), next);
  EXPECT_NE(BackupManager::DumpToString(next->db()).find("ML.MIT.EDU"),
            std::string::npos);
}

// --- Leader stickiness and asymmetric partitions ---

TEST(FailoverStickinessTest, AsymmetricPartitionDoesNotDeposeLivePrimary) {
  ReplClusterOptions options;
  // Agitate on the very first miss: the point of this test is that the
  // pre-vote — not a generous miss threshold — is what protects the primary.
  options.missed_heartbeats = 1;
  ReplCluster cluster(options);
  MrClient admin = MakeAdmin(cluster, 0);
  // n1 cannot reach n0, but n0 (and everyone else) reaches n1: n1's
  // heartbeats fail while the rest of the cluster is healthy.
  cluster.net().Block("n1", "n0");
  for (int round = 0; round < 6; ++round) {
    cluster.Tick();
    ASSERT_EQ(MR_SUCCESS,
              admin.Query("add_machine",
                          {"as" + std::to_string(round) + ".mit.edu", "VAX"},
                          [](Tuple) {}))
        << "writes must ride out the asymmetric partition";
  }
  // n1 agitated for election but the pre-vote failed against n2's leader
  // stickiness: nobody was deposed, no epoch floor moved.  (Once n1's log
  // falls behind n2's it stops standing and defers instead — also no
  // disruption.)
  EXPECT_GE(cluster.node(1)->stats().elections_started, 1u);
  EXPECT_EQ(0u, cluster.node(1)->stats().promotions);
  ASSERT_EQ(1u, cluster.WritablePrimaries().size());
  EXPECT_EQ(cluster.node(0), cluster.WritablePrimaries()[0]);
  EXPECT_EQ(1u, cluster.node(0)->epoch());
  // Heal: n1 simply resumes following — the failed candidacies must NOT
  // fence the healthy primary (pre-vote kept every floor at 1).
  cluster.net().HealAll();
  TickUntilConverged(cluster);
  EXPECT_FALSE(cluster.node(0)->server().fenced());
  ASSERT_EQ(1u, cluster.WritablePrimaries().size());
  EXPECT_EQ(cluster.node(0), cluster.WritablePrimaries()[0]);
  EXPECT_EQ(BackupManager::DumpToString(cluster.node(0)->db()),
            BackupManager::DumpToString(cluster.node(1)->db()));
}

TEST(FailoverStickinessTest, LostReplyPartitionForcesIdempotentRedelivery) {
  // The reply-lost direction: pushes from n0 are applied on n1 but the acks
  // vanish, so the primary re-pushes the same entries until a reply gets
  // through — duplicate deliveries must be skipped, not re-applied.
  ReplCluster cluster;
  MrClient admin = MakeAdmin(cluster, 0);
  // First write establishes and authenticates the long-lived push channels;
  // only then does the reply direction go dark (a partition that cuts an
  // edge before the handshake just kills the whole edge).
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"rl0.mit.edu", "VAX"}, [](Tuple) {}));
  cluster.net().Block("n1", "n0");  // n1's replies toward n0 are cut
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"rl1.mit.edu", "VAX"}, [](Tuple) {}));
  // n1 applied the push even though n0 never saw the ack (quorum met via n2).
  EXPECT_EQ(cluster.node(0)->server().journal().last_seq(),
            cluster.node(1)->applied_seq());
  cluster.net().HealAll();
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"rl2.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(0u, cluster.node(1)->stats().apply_failures);
  EXPECT_EQ(BackupManager::DumpToString(cluster.node(0)->db()),
            BackupManager::DumpToString(cluster.node(1)->db()));
}

// --- Torn quorum pushes ---

TEST(FailoverTornPushTest, TornPushConvergesByRepush) {
  ReplCluster cluster;
  MrClient admin = MakeAdmin(cluster, 0);
  // Batch several entries for n1 by cutting it off for a few writes.
  cluster.net().BlockBoth("n0", "n1");
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"t1.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"t2.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"t3.mit.edu", "VAX"}, [](Tuple) {}));
  cluster.net().HealAll();
  // The next push ships the whole backlog; it tears halfway and the
  // connection dies mid-reply.
  cluster.node(1)->ArmTornPush();
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"t4.mit.edu", "VAX"}, [](Tuple) {}));
  // Another write forces a re-push of the unacknowledged window; the
  // half-applied entries are skipped as duplicates and the rest lands.
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"t5.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(cluster.node(0)->server().journal().last_seq(),
            cluster.node(1)->applied_seq());
  EXPECT_EQ(0u, cluster.node(1)->stats().apply_failures);
  EXPECT_EQ(BackupManager::DumpToString(cluster.node(0)->db()),
            BackupManager::DumpToString(cluster.node(1)->db()));
}

// --- Router: tagged writes, rediscovery, idempotent replay ---

std::unique_ptr<ReplicatedClient> MakeRouter(ReplCluster& cluster) {
  auto factory = [&cluster](const ReplEndpoint& endpoint) {
    auto client = std::make_unique<MrClient>(endpoint.connector);
    client->SetKerberosIdentity(&cluster.realm(), "root", "rootpw");
    return client;
  };
  std::vector<ReplEndpoint> endpoints;
  for (int i = 0; i < cluster.size(); ++i) {
    endpoints.push_back({cluster.node_name(i), cluster.ClientConnector(i)});
  }
  auto primary = factory(endpoints[0]);
  EXPECT_EQ(MR_SUCCESS, primary->Connect());
  EXPECT_EQ(MR_SUCCESS, primary->Auth("router"));
  auto router = std::make_unique<ReplicatedClient>(std::move(primary));
  router->SetEndpoints(std::move(endpoints), factory, "router");
  router->EnableTaggedWrites("rt");
  return router;
}

TEST(FailoverRouterTest, RediscoversNewPrimaryAndReplaysInFlightWrite) {
  ReplCluster cluster;
  std::unique_ptr<ReplicatedClient> router = MakeRouter(cluster);
  ASSERT_EQ(MR_SUCCESS, router->Query("add_machine", {"f1.mit.edu", "VAX"}, [](Tuple) {}));
  cluster.node(0)->Crash();
  // In-flight write against the dead primary: no writable successor yet, so
  // the outcome stays pending inside the router.
  EXPECT_EQ(MR_ABORTED, router->Query("add_machine", {"f2.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(1u, router->pending_writes());
  ReplicaServer* next = TickUntilPrimary(cluster);
  ASSERT_NE(nullptr, next);
  // The next write rediscovers the new primary and replays f2 first.
  ASSERT_EQ(MR_SUCCESS, router->Query("add_machine", {"f3.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(0u, router->pending_writes());
  EXPECT_EQ(next->name(), router->primary_name());
  EXPECT_GE(router->stats().rediscoveries, 1u);
  EXPECT_GE(router->stats().replays, 1u);
  std::string dump = BackupManager::DumpToString(next->db());
  for (const char* name : {"F1.MIT.EDU", "F2.MIT.EDU", "F3.MIT.EDU"}) {
    EXPECT_NE(dump.find(name), std::string::npos) << name;
  }
}

TEST(FailoverRouterTest, LostAckReplayDoesNotDoubleApply) {
  ReplCluster cluster;
  std::unique_ptr<ReplicatedClient> router = MakeRouter(cluster);
  // The write reaches the primary and commits with quorum, but the ack back
  // to the client is lost.
  cluster.net().Block("n0", ReplCluster::kClientEndpoint);
  EXPECT_EQ(MR_ABORTED,
            router->Query("add_machine", {"dup.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(1u, router->pending_writes());
  EXPECT_EQ(cluster.node(0)->server().journal().last_seq(),
            cluster.node(1)->applied_seq());  // it WAS applied and replicated
  cluster.net().HealAll();
  // The replay hits the idempotency tag: acked with the original seq, no
  // second machine row.
  ASSERT_EQ(MR_SUCCESS,
            router->Query("add_machine", {"after.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(0u, router->pending_writes());
  EXPECT_GE(cluster.node(0)->server().quorum_stats().tag_hits, 1u);
  int rows = 0;
  MrClient admin = MakeAdmin(cluster, 0);
  EXPECT_EQ(MR_SUCCESS,
            admin.Query("get_machine", {"DUP.MIT.EDU"}, [&](Tuple) { ++rows; }));
  EXPECT_EQ(1, rows);
}

TEST(FailoverRouterTest, TagReplaySurvivesFailoverViaPushedTags) {
  // The ack is lost AND the primary then dies: the replay lands on the NEW
  // primary, whose journal carried the tag — still no double apply.
  ReplCluster cluster;
  std::unique_ptr<ReplicatedClient> router = MakeRouter(cluster);
  cluster.net().Block("n0", ReplCluster::kClientEndpoint);
  EXPECT_EQ(MR_ABORTED,
            router->Query("add_machine", {"x.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(cluster.node(0)->server().journal().last_seq(),
            cluster.node(1)->applied_seq());
  cluster.node(0)->Crash();
  cluster.net().HealAll();
  ReplicaServer* next = TickUntilPrimary(cluster);
  ASSERT_NE(nullptr, next);
  ASSERT_EQ(MR_SUCCESS,
            router->Query("add_machine", {"y.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_GE(next->server().quorum_stats().tag_hits, 1u);
  int rows = 0;
  const int next_idx = next->name()[1] - '0';
  MrClient admin = MakeAdmin(cluster, next_idx);
  EXPECT_EQ(MR_SUCCESS,
            admin.Query("get_machine", {"X.MIT.EDU"}, [&](Tuple) { ++rows; }));
  EXPECT_EQ(1, rows);
}

// --- DCM read offload over a live cluster replica ---

TEST(FailoverDcmTest, GenerationReadsOffloadToClusterReplicaAndDegrade) {
  ReplCluster cluster;
  MoiraContext& mc = cluster.node(0)->context();
  // Build the site directly on the primary, then force the replicas through
  // a snapshot resync so all three nodes hold the populated site.
  SiteBuilder builder(&mc, &cluster.realm());
  builder.Build(TestSiteSpec());
  cluster.node(1)->Restart();
  cluster.node(2)->Restart();
  TickUntilConverged(cluster);
  ASSERT_GE(cluster.node(1)->stats().snapshot_loads, 1u);

  ZephyrBus zephyr(&cluster.clock());
  HostDirectory directory;
  std::vector<std::unique_ptr<SimHost>> hosts =
      CreateSimHosts(mc, &cluster.realm(), &directory);
  Dcm dcm(&mc, &cluster.realm(), &zephyr, &directory);
  ConfigureStandardServices(&dcm);
  dcm.AttachJournal(&cluster.node(0)->server().journal());
  AttachDcmReadSource(&dcm, cluster.node(1));
  // Advance through Tick so node clocks stay in step with the realm clock —
  // skewed node clocks would fail every Kerberos authenticator.
  cluster.Tick(kSecondsPerDay);

  DcmRunSummary first = dcm.RunOnce();
  EXPECT_GT(first.hosts_updated, 0);
  EXPECT_EQ(0, first.generation_rows_primary);
  EXPECT_GT(first.generation_rows_replica, 0);

  // A crashed replica degrades the pass to primary reads instead of
  // breaking propagation.
  cluster.node(1)->Crash();
  cluster.Tick(25 * kSecondsPerHour);
  MrClient admin = MakeAdmin(cluster, 0);
  ASSERT_EQ(MR_SUCCESS,
            admin.Query("update_user_shell", {builder.active_logins()[0], "/bin/dg"},
                        [](Tuple) {}));
  DcmRunSummary second = dcm.RunOnce();
  EXPECT_GT(second.generation_rows_primary, 0);
  EXPECT_EQ(0, second.generation_rows_replica);
}

// FailoverSweepTest's fault mix: every replication fault dimension at once.
ReplFaultSpec SweepFaultSpec() {
  ReplFaultSpec spec;
  spec.seed = 1988;
  spec.crash_permille = 150;
  spec.flap_permille = 200;
  spec.slow_permille = 150;
  spec.slow_apply_limit = 2;
  spec.kdc_down_permille = 100;
  spec.torn_push_permille = 200;
  spec.partition_permille = 300;
  spec.asym_partition_permille = 300;
  return spec;
}

// The schedule FailoverSweepTest's spec draws on a 3-node cluster over 10
// rounds, recorded before the injectors shared one FaultSchedule: per round
// each node ("X" crashed, "o" up) and then every blocked ordered pair, plus
// the realm's outage per round ("K" down).  A change to the stream keying or
// to the draw order fails here.  (That an all-zero spec also brings the realm
// back up is ReplTest.FaultPlanInjectsDirectoryOutagesDeterministically.)
TEST(FailoverSweepTest, PinnedScheduleAndZeroSpecHeals) {
  ReplCluster cluster;
  const ReplFaultSpec spec = SweepFaultSpec();
  std::vector<ReplicaServer*> raw;
  std::vector<std::string> names;
  for (int i = 0; i < cluster.size(); ++i) {
    raw.push_back(cluster.node(i));
    names.push_back(cluster.node_name(i));
  }
  auto snapshot = [&] {
    std::string line;
    for (ReplicaServer* node : raw) {
      line += node->crashed() ? "X" : "o";
    }
    for (const std::string& from : names) {
      for (const std::string& to : names) {
        if (from != to && !cluster.net().Allowed(from, to)) {
          line += " " + from + ">" + to;
        }
      }
    }
    return line;
  };
  std::vector<std::string> rounds;
  std::string kdc;
  for (int round = 0; round < 10; ++round) {
    ArmRound(spec, raw, &cluster.realm(), round, &cluster.net(), names);
    rounds.push_back(snapshot());
    kdc += cluster.realm().down() ? "K" : "-";
  }
  EXPECT_EQ(rounds, (std::vector<std::string>{"ooo", "ooo n1>n2 n2>n1", "ooo", "ooo",
                                              "ooo", "Xoo", "ooo", "oXo n1>n0", "ooo",
                                              "oXo n1>n0"}));
  EXPECT_EQ("---------K", kdc);
  ArmRound(ReplFaultSpec{}, raw, &cluster.realm(), 10, &cluster.net(), names);
  EXPECT_EQ("ooo", snapshot());
}

// --- Randomized partition/flap/crash sweep with the lost-write oracle ---

TEST(FailoverSweepTest, RandomizedFaultsLoseNoAckedWritesNoSplitBrain) {
  ReplClusterOptions options;
  options.missed_heartbeats = 2;
  ReplCluster cluster(options);
  std::unique_ptr<ReplicatedClient> router = MakeRouter(cluster);

  const ReplFaultSpec spec = SweepFaultSpec();

  std::vector<ReplicaServer*> raw;
  std::vector<std::string> names;
  for (int i = 0; i < cluster.size(); ++i) {
    raw.push_back(cluster.node(i));
    names.push_back(cluster.node_name(i));
  }

  std::vector<std::string> acked;  // the oracle: machines whose add was acked
  std::map<uint64_t, std::string> epoch_owner;
  auto check_one_primary_per_epoch = [&] {
    for (ReplicaServer* p : cluster.WritablePrimaries()) {
      auto [it, inserted] = epoch_owner.emplace(p->epoch(), p->name());
      ASSERT_TRUE(inserted || it->second == p->name())
          << "split brain: epoch " << p->epoch() << " held by " << it->second
          << " and " << p->name();
    }
  };

  for (int round = 0; round < 25; ++round) {
    ArmRound(spec, raw, &cluster.realm(), round, &cluster.net(), names);
    for (int tick = 0; tick < 3; ++tick) {
      cluster.Tick();
      check_one_primary_per_epoch();
    }
    for (int w = 0; w < 2; ++w) {
      // Already in canonical (uppercase) hostname form so the acked list can
      // be grepped verbatim against the final dump.
      std::string name =
          "S" + std::to_string(round) + "X" + std::to_string(w) + ".MIT.EDU";
      int32_t code = router->Query("add_machine", {name, "VAX"}, [](Tuple) {});
      if (code == MR_SUCCESS) {
        acked.push_back(name);
      }
    }
    check_one_primary_per_epoch();
  }

  // Heal everything and drain.
  ArmRound(ReplFaultSpec{}, raw, &cluster.realm(), 25, &cluster.net(), names);
  ReplicaServer* final_primary = TickUntilPrimary(cluster, 40);
  ASSERT_NE(nullptr, final_primary);
  // One last write flushes the router's pending queue onto the survivor.
  ASSERT_EQ(MR_SUCCESS,
            router->Query("add_machine", {"drain.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(0u, router->pending_writes());
  TickUntilConverged(cluster, 60);
  check_one_primary_per_epoch();

  ASSERT_GT(acked.size(), 10u) << "sweep too quiet to prove anything";
  const std::string golden =
      BackupManager::DumpToString(final_primary->db());
  for (const std::string& name : acked) {
    EXPECT_NE(golden.find(name), std::string::npos)
        << "acked write lost: " << name;
  }
  // Every live node converged byte-identically.
  for (int i = 0; i < cluster.size(); ++i) {
    ReplicaServer* node = cluster.node(i);
    if (node->crashed() || node == final_primary) {
      continue;
    }
    EXPECT_EQ(golden, BackupManager::DumpToString(node->db())) << node->name();
    EXPECT_EQ(0u, node->stats().apply_failures) << node->name();
  }
}

}  // namespace
}  // namespace moira
