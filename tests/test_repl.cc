// Tests for the journal-shipping replication layer (src/repl): journal
// sequence/durability semantics, replica catch-up and snapshot fallback,
// client read routing with read-your-writes tokens, failover promotion, and
// convergence under seeded faults.
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "src/backup/backup.h"
#include "src/client/client.h"
#include "src/common/random.h"
#include "src/repl/repl_fault.h"
#include "src/repl/replica.h"
#include "src/repl/router.h"
#include "src/server/server.h"
#include "src/update/sim_host.h"
#include "tests/test_env.h"

namespace moira {
namespace {

namespace fs = std::filesystem;

fs::path TempDir(const char* name) {
  fs::path dir = fs::temp_directory_path() / "moira-test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- Journal sequence, durability, and torn-write handling ---

TEST(JournalReplTest, SequenceNumbersAreMonotone) {
  Journal journal;
  EXPECT_EQ(1u, journal.Append(JournalEntry{0, 10, "p", "c", "q", {}}));
  EXPECT_EQ(2u, journal.Append(JournalEntry{0, 11, "p", "c", "q", {}}));
  EXPECT_EQ(2u, journal.last_seq());
  EXPECT_EQ(1u, journal.first_seq());
  EXPECT_EQ(0u, journal.base_seq());
}

TEST(JournalReplTest, EntriesFromSeqAndTruncation) {
  Journal journal;
  for (int i = 0; i < 10; ++i) {
    journal.Append(JournalEntry{0, 100 + i, "p", "c", "q" + std::to_string(i), {}});
  }
  EXPECT_EQ(4u, journal.EntriesFromSeq(7).size());
  EXPECT_EQ(2u, journal.EntriesFromSeq(7, 2).size());
  EXPECT_EQ("q6", journal.EntriesFromSeq(7)[0].query);
  // Prune the first six entries, as after a nightly backup.
  EXPECT_EQ(6u, journal.TruncateThrough(6));
  EXPECT_EQ(6u, journal.base_seq());
  EXPECT_EQ(7u, journal.first_seq());
  EXPECT_EQ(10u, journal.last_seq());
  // The retained tail is still streamable; the pruned range is not.
  EXPECT_EQ(4u, journal.EntriesFromSeq(7).size());
  // Appends continue the sequence.
  EXPECT_EQ(11u, journal.Append(JournalEntry{0, 200, "p", "c", "q", {}}));
}

std::vector<uint64_t> Seqs(const std::vector<JournalEntry>& entries) {
  std::vector<uint64_t> out;
  for (const JournalEntry& entry : entries) {
    out.push_back(entry.seq);
  }
  return out;
}

TEST(JournalReplTest, EntriesFromSeqWindowBoundaries) {
  using V = std::vector<uint64_t>;
  Journal journal;
  for (int i = 0; i < 5; ++i) {
    journal.Append(JournalEntry{});
  }
  EXPECT_EQ((V{1, 2, 3, 4, 5}), Seqs(journal.EntriesFromSeq(0)));
  EXPECT_EQ((V{3, 4, 5}), Seqs(journal.EntriesFromSeq(3)));
  EXPECT_EQ((V{5}), Seqs(journal.EntriesFromSeq(5)));
  EXPECT_EQ(V{}, Seqs(journal.EntriesFromSeq(6)));
  EXPECT_EQ((V{2, 3}), Seqs(journal.EntriesFromSeq(2, 2)));
  EXPECT_EQ((V{5}), Seqs(journal.EntriesFromSeq(5, 2)));
  EXPECT_EQ(V{}, Seqs(journal.EntriesFromSeq(1, 0)));
  // A gap, as a failover leaves one: 6..9 were never held here.
  JournalEntry tenth;
  tenth.seq = 10;
  journal.Append(tenth);
  journal.Append(JournalEntry{});
  EXPECT_EQ((V{5, 10, 11}), Seqs(journal.EntriesFromSeq(5)));
  EXPECT_EQ((V{10, 11}), Seqs(journal.EntriesFromSeq(6)));
  EXPECT_EQ((V{10}), Seqs(journal.EntriesFromSeq(9, 1)));
  EXPECT_EQ((V{11}), Seqs(journal.EntriesFromSeq(11)));
  EXPECT_EQ(V{}, Seqs(journal.EntriesFromSeq(12)));
  // After pruning, a start below first_seq begins at the oldest retained
  // entry.
  EXPECT_EQ(4u, journal.TruncateThrough(4));
  EXPECT_EQ(5u, journal.first_seq());
  EXPECT_EQ((V{5, 10, 11}), Seqs(journal.EntriesFromSeq(1)));
  EXPECT_EQ((V{5, 10}), Seqs(journal.EntriesFromSeq(4, 2)));
  EXPECT_EQ(V{}, Seqs(journal.EntriesFromSeq(12)));
}

TEST(JournalReplTest, WindowAfterCarriesThePredecessorsEpoch) {
  using V = std::vector<uint64_t>;
  auto seqs = [](const Journal::Window& window) {
    V out;
    for (const JournalEntry& entry : window.entries) {
      out.push_back(entry.seq);
    }
    return out;
  };
  Journal journal;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    JournalEntry entry;
    entry.seq = seq;
    entry.epoch = seq < 4 ? 1 : 2;
    journal.Append(entry);
  }
  // From the start of history there is no predecessor to check.
  Journal::Window window = journal.WindowAfter(0);
  EXPECT_EQ((V{1, 2, 3, 4, 5}), seqs(window));
  EXPECT_EQ(0u, window.prev_epoch);
  // A count and a target seq each bound the window.
  window = journal.WindowAfter(3, 1);
  EXPECT_EQ(V{4}, seqs(window));
  EXPECT_EQ(1u, window.prev_epoch);
  window = journal.WindowAfter(2, SIZE_MAX, 4);
  EXPECT_EQ((V{3, 4}), seqs(window));
  EXPECT_EQ(1u, window.prev_epoch);
  window = journal.WindowAfter(4);
  EXPECT_EQ(V{5}, seqs(window));
  EXPECT_EQ(2u, window.prev_epoch);
  // Empty windows still name their predecessor, when it is held.
  window = journal.WindowAfter(2, SIZE_MAX, 2);
  EXPECT_EQ(V{}, seqs(window));
  EXPECT_EQ(1u, window.prev_epoch);
  window = journal.WindowAfter(5);
  EXPECT_EQ(V{}, seqs(window));
  EXPECT_EQ(2u, window.prev_epoch);
  EXPECT_EQ(0u, journal.WindowAfter(6).prev_epoch);
  // A gap is shipped as it is; only a held predecessor has an epoch.
  JournalEntry eighth;
  eighth.seq = 8;
  journal.Append(eighth);
  EXPECT_EQ(V{8}, seqs(journal.WindowAfter(5)));
  EXPECT_EQ(2u, journal.WindowAfter(5).prev_epoch);
  EXPECT_EQ(V{8}, seqs(journal.WindowAfter(6)));
  EXPECT_EQ(0u, journal.WindowAfter(6).prev_epoch);
  // A truncated predecessor is unknown.
  journal.TruncateThrough(3);
  window = journal.WindowAfter(3);
  EXPECT_EQ((V{4, 5, 8}), seqs(window));
  EXPECT_EQ(0u, window.prev_epoch);
}

TEST(JournalReplTest, AppendIsDurableBeforeAck) {
  fs::path dir = TempDir("repl-durable");
  Journal journal;
  ASSERT_EQ(0, journal.AttachDirectory(dir.string()));
  journal.Append(JournalEntry{0, 123, "p", "c", "q", {"a"}});
  // The stream is still open; the line must already be flushed to the live
  // file.
  std::ifstream in(dir / "journal");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::optional<JournalEntry> entry = JournalEntry::FromLine(line);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(1u, entry->seq);
  EXPECT_EQ("q", entry->query);
}

TEST(JournalReplTest, LineFuzzRoundTrip) {
  // Seeded fuzz over ToLine/FromLine: every generated entry survives the
  // round trip, whatever bytes land in its fields.
  SplitMix64 rng(0x5ca1ab1e);
  auto random_string = [&rng] {
    std::string s;
    const size_t len = rng.Below(12);
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>(rng.Below(256));
    }
    return s;
  };
  for (int iter = 0; iter < 300; ++iter) {
    JournalEntry entry;
    entry.seq = rng.Below(1u << 30);
    entry.epoch = rng.Below(1u << 30);
    entry.when = static_cast<UnixTime>(rng.Below(1u << 30));
    entry.principal = random_string();
    entry.client = random_string();
    entry.tag = random_string();
    entry.query = random_string();
    const size_t argc = rng.Below(4);
    for (size_t i = 0; i < argc; ++i) {
      entry.args.push_back(random_string());
    }
    std::string line = entry.ToLine();
    ASSERT_EQ('\n', line.back());
    std::optional<JournalEntry> back = JournalEntry::FromLine(line);
    ASSERT_TRUE(back.has_value()) << "iter " << iter;
    EXPECT_EQ(entry.seq, back->seq) << "iter " << iter;
    EXPECT_EQ(entry.epoch, back->epoch) << "iter " << iter;
    EXPECT_EQ(entry.when, back->when) << "iter " << iter;
    EXPECT_EQ(entry.principal, back->principal) << "iter " << iter;
    EXPECT_EQ(entry.client, back->client) << "iter " << iter;
    EXPECT_EQ(entry.tag, back->tag) << "iter " << iter;
    EXPECT_EQ(entry.query, back->query) << "iter " << iter;
    EXPECT_EQ(entry.args, back->args) << "iter " << iter;
  }
  // Garbage-line pass: random bytes never crash the parser, and anything it
  // does accept is canonically stable (reserialize → reparse → identical),
  // so a replica replaying a corrupted stream cannot drift from a primary
  // that journalled the same line.
  for (int iter = 0; iter < 300; ++iter) {
    std::string garbage;
    const size_t len = rng.Below(40);
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.Below(256));
    }
    std::optional<JournalEntry> parsed = JournalEntry::FromLine(garbage);
    if (!parsed.has_value()) {
      continue;
    }
    std::optional<JournalEntry> again = JournalEntry::FromLine(parsed->ToLine());
    ASSERT_TRUE(again.has_value()) << "iter " << iter;
    EXPECT_EQ(parsed->ToLine(), again->ToLine()) << "iter " << iter;
  }
}

// --- Replication over the wire ---

class ReplTest : public MoiraEnv {
 protected:
  void SetUp() override {
    primary_ = std::make_unique<MoiraServer>(mc_.get(), realm_.get());
    realm_->AddPrincipal("root", "rootpw");
    realm_->AddPrincipal("jrandom", "hunter2");
    // Seed the test user through the wire: replicas replay history from the
    // journal, so every mutation since the seeded defaults must go through
    // the server to be visible to them.
    MrClient admin = MakeAdmin();
    ASSERT_EQ(MR_SUCCESS,
              admin.Query("add_user",
                          {"jrandom", "100", "/bin/csh", "Lastjrandom", "Firstjrandom",
                           "Q", "1", "hashjrandom", "G"},
                          [](Tuple) {}));
  }

  MrClient::Connector PrimaryConnector() {
    return [this] { return std::make_unique<LoopbackChannel>(primary_.get()); };
  }

  static MrClient::Connector HandlerConnector(MessageHandler* handler) {
    return [handler] { return std::make_unique<LoopbackChannel>(handler); };
  }

  std::unique_ptr<ReplicaServer> MakeReplica(const std::string& name) {
    ReplicaOptions options;
    options.name = name;
    auto replica = std::make_unique<ReplicaServer>(realm_.get(), options);
    replica->SetPrimaryLink(PrimaryConnector(), "root", "rootpw");
    return replica;
  }

  // A root-authenticated client to the primary.
  MrClient MakeAdmin() {
    MrClient client(PrimaryConnector());
    client.SetKerberosIdentity(realm_.get(), "root", "rootpw");
    EXPECT_EQ(MR_SUCCESS, client.Connect());
    EXPECT_EQ(MR_SUCCESS, client.Auth("ops"));
    return client;
  }

  // An unauthenticated read client with a retry policy (so it transparently
  // reconnects after the target replica crashes and reboots).
  std::unique_ptr<MrClient> MakeReadClient(MessageHandler* handler) {
    auto client = std::make_unique<MrClient>(HandlerConnector(handler));
    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.initial_backoff = 1;
    client->SetRetryPolicy(policy, &clock_);
    client->set_sleep_fn([this](UnixTime s) { clock_.Advance(s); });
    client->Connect();
    return client;
  }

  std::string PrimaryDump() { return BackupManager::DumpToString(*db_); }

  std::unique_ptr<MoiraServer> primary_;
};

TEST_F(ReplTest, CatchUpAppliesJournalAndConverges) {
  MrClient admin = MakeAdmin();
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"rep1.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(MR_SUCCESS,
            admin.Query("update_user_shell", {"jrandom", "/bin/repl"}, [](Tuple) {}));
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  EXPECT_EQ(primary_->journal().last_seq(), replica->applied_seq());
  EXPECT_EQ(0u, replica->stats().apply_failures);
  EXPECT_EQ(0u, replica->stats().snapshot_loads);
  // Byte-identical state: same rows, same modby/modwith/modtime stamps.
  EXPECT_EQ(PrimaryDump(), BackupManager::DumpToString(replica->db()));
  // The replica serves the read.
  std::unique_ptr<MrClient> reader = MakeReadClient(replica.get());
  std::vector<Tuple> tuples;
  EXPECT_EQ(MR_SUCCESS, reader->Query("get_machine", {"REP1.MIT.EDU"}, [&](Tuple t) {
    tuples.push_back(std::move(t));
  }));
  ASSERT_EQ(1u, tuples.size());
  // The primary saw the replica and reports zero lag.
  ASSERT_EQ(1u, primary_->replicas().count("r1"));
  EXPECT_EQ(replica->applied_seq(), primary_->replicas().at("r1").applied_seq);
}

TEST_F(ReplTest, ReplicaRefusesMutations) {
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  std::unique_ptr<MrClient> client = MakeReadClient(replica.get());
  EXPECT_EQ(MR_REPL_READONLY,
            client->Query("add_machine", {"nope.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(MR_REPL_READONLY,
            client->QueryAtSeq(0, "add_machine", {"nope.mit.edu", "VAX"}, [](Tuple) {}));
}

TEST_F(ReplTest, CatchUpAfterDisconnectResumesFromAppliedSeq) {
  MrClient admin = MakeAdmin();
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"a.mit.edu", "VAX"}, [](Tuple) {}));
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  const uint64_t applied_before = replica->applied_seq();
  // The link drops; the primary keeps moving.
  replica->DropLink();
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"b.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"c.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  EXPECT_EQ(applied_before + 2, replica->applied_seq());
  EXPECT_EQ(0u, replica->stats().snapshot_loads);  // incremental, not snapshot
  EXPECT_EQ(PrimaryDump(), BackupManager::DumpToString(replica->db()));
}

TEST_F(ReplTest, SnapshotFallbackAfterJournalTruncation) {
  MrClient admin = MakeAdmin();
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine",
                                      {"t" + std::to_string(i) + ".mit.edu", "VAX"},
                                      [](Tuple) {}));
  }
  // The journal prefix is pruned (post-backup) before the replica ever
  // connects: incremental fetch is impossible.
  primary_->journal().TruncateThrough(3);
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  EXPECT_EQ(1u, replica->stats().snapshot_loads);
  EXPECT_EQ(primary_->journal().last_seq(), replica->applied_seq());
  EXPECT_EQ(PrimaryDump(), BackupManager::DumpToString(replica->db()));
  // Incremental fetching resumes on top of the snapshot.
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"after.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  EXPECT_EQ(1u, replica->stats().snapshot_loads);
  EXPECT_EQ(PrimaryDump(), BackupManager::DumpToString(replica->db()));
}

TEST_F(ReplTest, RouterGivesReadYourWrites) {
  auto primary_client = std::make_unique<MrClient>(PrimaryConnector());
  primary_client->SetKerberosIdentity(realm_.get(), "root", "rootpw");
  ASSERT_EQ(MR_SUCCESS, primary_client->Connect());
  ASSERT_EQ(MR_SUCCESS, primary_client->Auth("ops"));
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  ReplicatedClient router(std::move(primary_client));
  router.AddReplica(MakeReadClient(replica.get()));
  // Write through the router: the token becomes the assigned journal seq.
  ASSERT_EQ(MR_SUCCESS, router.Query("add_machine", {"ryw.mit.edu", "VAX"}, [](Tuple) {}));
  EXPECT_EQ(primary_->journal().last_seq(), router.write_token());
  // Immediately read it back.  The replica is behind but holds the link, so
  // it catches up on demand ("waits briefly") and serves the read itself.
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, router.Query("get_machine", {"RYW.MIT.EDU"}, [&](Tuple t) {
    tuples.push_back(std::move(t));
  }));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ(1u, router.stats().replica_reads);
  EXPECT_EQ(0u, router.stats().redirects);
  EXPECT_GE(replica->stats().read_catch_ups, 1u);
}

TEST_F(ReplTest, BehindReplicaRedirectsToPrimary) {
  auto primary_client = std::make_unique<MrClient>(PrimaryConnector());
  primary_client->SetKerberosIdentity(realm_.get(), "root", "rootpw");
  ASSERT_EQ(MR_SUCCESS, primary_client->Connect());
  ASSERT_EQ(MR_SUCCESS, primary_client->Auth("ops"));
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  // The replica loses its primary link, so its on-demand catch-up cannot
  // connect: behind tokens redirect.
  replica->SetPrimaryLink([] { return std::unique_ptr<ClientChannel>(); }, "root", "rootpw");
  ReplicatedClient router(std::move(primary_client));
  router.AddReplica(MakeReadClient(replica.get()));
  ASSERT_EQ(MR_SUCCESS, router.Query("add_machine", {"rd.mit.edu", "VAX"}, [](Tuple) {}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, router.Query("get_machine", {"RD.MIT.EDU"}, [&](Tuple t) {
    tuples.push_back(std::move(t));
  }));
  ASSERT_EQ(1u, tuples.size());  // read-your-writes held, via the primary
  EXPECT_EQ(1u, router.stats().redirects);
  EXPECT_EQ(1u, router.stats().primary_reads);
  EXPECT_EQ(1u, replica->stats().reads_behind);
  // Once the link is back and the replica catches up, the same token is
  // satisfiable locally.
  replica->SetPrimaryLink(PrimaryConnector(), "root", "rootpw");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  ASSERT_EQ(MR_SUCCESS, router.Query("get_machine", {"RD.MIT.EDU"}, [](Tuple) {}));
  EXPECT_EQ(1u, router.stats().replica_reads);
}

TEST_F(ReplTest, CrashedReplicaSkippedThenRecoversViaSnapshot) {
  auto primary_client = std::make_unique<MrClient>(PrimaryConnector());
  primary_client->SetKerberosIdentity(realm_.get(), "root", "rootpw");
  ASSERT_EQ(MR_SUCCESS, primary_client->Connect());
  ASSERT_EQ(MR_SUCCESS, primary_client->Auth("ops"));
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  ReplicatedClient router(std::move(primary_client));
  router.AddReplica(MakeReadClient(replica.get()));
  ASSERT_EQ(MR_SUCCESS, router.Query("add_machine", {"cr.mit.edu", "VAX"}, [](Tuple) {}));
  replica->Crash();
  // Reads still succeed: the dead replica is skipped, the primary answers.
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, router.Query("get_machine", {"CR.MIT.EDU"}, [&](Tuple t) {
    tuples.push_back(std::move(t));
  }));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ(1u, router.stats().redirects);
  // Reboot: state was lost, so recovery is a snapshot transfer.
  replica->Restart();
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  EXPECT_EQ(1u, replica->stats().snapshot_loads);
  EXPECT_EQ(PrimaryDump(), BackupManager::DumpToString(replica->db()));
  // And the router serves from it again.
  ASSERT_EQ(MR_SUCCESS, router.Query("get_machine", {"CR.MIT.EDU"}, [](Tuple) {}));
  EXPECT_EQ(1u, router.stats().replica_reads);
}

TEST_F(ReplTest, FailoverPromotesMostCaughtUpAndContinuesSequence) {
  MrClient admin = MakeAdmin();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine",
                                      {"f" + std::to_string(i) + ".mit.edu", "VAX"},
                                      [](Tuple) {}));
  }
  std::unique_ptr<ReplicaServer> lagging = MakeReplica("lagging");
  std::unique_ptr<ReplicaServer> current = MakeReplica("current");
  std::unique_ptr<ReplicaServer> dead = MakeReplica("dead");
  lagging->set_apply_limit(2);
  EXPECT_EQ(MR_MORE_DATA, lagging->CatchUp());
  ASSERT_EQ(MR_SUCCESS, current->CatchUp());
  ASSERT_EQ(MR_SUCCESS, dead->CatchUp());
  dead->Crash();  // most caught-up but not alive: ineligible
  std::vector<ReplicaServer*> all = {lagging.get(), current.get(), dead.get()};
  ReplicaServer* candidate = ChooseFailoverCandidate(all);
  ASSERT_EQ(current.get(), candidate);
  const uint64_t failover_seq = candidate->applied_seq();
  MoiraServer* promoted = candidate->Promote();
  EXPECT_TRUE(candidate->promoted());
  // The promoted replica accepts writes and extends the old sequence.
  MrClient writer(HandlerConnector(candidate));
  writer.SetKerberosIdentity(realm_.get(), "root", "rootpw");
  ASSERT_EQ(MR_SUCCESS, writer.Connect());
  ASSERT_EQ(MR_SUCCESS, writer.Auth("ops"));
  ASSERT_EQ(MR_SUCCESS, writer.Query("add_machine", {"post.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(1u, promoted->journal().entries().size());
  EXPECT_EQ(failover_seq + 1, promoted->journal().entries()[0].seq);
  ASSERT_EQ(1u, writer.last_fields().size());
  EXPECT_EQ(std::to_string(failover_seq + 1), writer.last_fields()[0]);
}

TEST_F(ReplTest, GetReplicaStatusIsPrivilegedAndReportsLag) {
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  MrClient admin = MakeAdmin();
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"lag.mit.edu", "VAX"}, [](Tuple) {}));
  MrClient pleb(PrimaryConnector());
  ASSERT_EQ(MR_SUCCESS, pleb.Connect());
  EXPECT_EQ(MR_PERM, pleb.Query("get_replica_status", {}, [](Tuple) {}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, admin.Query("get_replica_status", {}, [&](Tuple t) {
    tuples.push_back(std::move(t));
  }));
  ASSERT_EQ(1u, tuples.size());
  ASSERT_EQ(6u, tuples[0].size());
  EXPECT_EQ("r1", tuples[0][0]);
  EXPECT_EQ(std::to_string(replica->applied_seq()), tuples[0][1]);
  EXPECT_EQ(std::to_string(primary_->journal().last_seq()), tuples[0][2]);
  EXPECT_EQ("1", tuples[0][3]);  // one write behind
  EXPECT_EQ(std::to_string(primary_->journal().epoch()), tuples[0][5]);
}

TEST_F(ReplTest, ClientRetriesSurfaceAttemptsAndElapsed) {
  // A handler that answers nothing for the first two requests, then recovers:
  // the transport sees a dead connection each failed attempt.
  struct FlakyHandler final : MessageHandler {
    MoiraServer* inner;
    int failures_left = 2;
    explicit FlakyHandler(MoiraServer* s) : inner(s) {}
    std::string OnMessage(uint64_t conn_id, std::string_view payload) override {
      if (failures_left > 0) {
        --failures_left;
        return std::string();
      }
      return inner->OnMessage(conn_id, payload);
    }
    void OnConnect(uint64_t conn_id, std::string peer) override {
      inner->OnConnect(conn_id, std::move(peer));
    }
    void OnDisconnect(uint64_t conn_id) override { inner->OnDisconnect(conn_id); }
  } flaky(primary_.get());
  MrClient admin = MakeAdmin();
  ASSERT_EQ(MR_SUCCESS,
            admin.Query("add_machine", {"retry.mit.edu", "VAX"}, [](Tuple) {}));
  MrClient client(HandlerConnector(&flaky));
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = 2;
  client.SetRetryPolicy(policy, &clock_);
  client.set_sleep_fn([this](UnixTime s) { clock_.Advance(s); });
  ASSERT_EQ(MR_SUCCESS, client.Connect());
  EXPECT_EQ(MR_SUCCESS, client.Query("get_machine", {"RETRY.MIT.EDU"}, [](Tuple) {}));
  EXPECT_EQ(3, client.last_rpc().attempts);
  EXPECT_GT(client.last_rpc().elapsed, 0);
  // A clean RPC reports a single attempt.
  EXPECT_EQ(MR_SUCCESS, client.Noop());
  EXPECT_EQ(1, client.last_rpc().attempts);
}

TEST_F(ReplTest, CatchUpRidesOutKdcOutageOnCachedTicket) {
  MrClient admin = MakeAdmin();
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());  // caches the link's ticket
  realm_->SetDown(true);
  replica->DropLink();  // force a reconnect + re-auth during the outage
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"kdc.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  EXPECT_EQ(primary_->journal().last_seq(), replica->applied_seq());
  // A brand-new replica has no cached ticket and cannot join mid-outage.
  std::unique_ptr<ReplicaServer> fresh = MakeReplica("r2");
  EXPECT_EQ(MR_NOT_CONNECTED, fresh->CatchUp());
  realm_->SetDown(false);
  EXPECT_EQ(MR_SUCCESS, fresh->CatchUp());
}

TEST_F(ReplTest, FaultPlanInjectsDirectoryOutagesDeterministically) {
  HostDirectory hosts;
  FaultPlanSpec spec;
  spec.seed = 7;
  spec.kdc_down_permille = 1000;
  spec.hesiod_down_permille = 1000;
  ArmDirectories(spec, realm_.get(), &hosts, /*pass=*/0);
  EXPECT_TRUE(realm_->down());
  EXPECT_TRUE(hosts.down());
  // A downed directory answers no lookups; tickets are refused.
  EXPECT_EQ(nullptr, hosts.Find("anything.mit.edu"));
  Ticket ticket;
  EXPECT_EQ(MR_KDC_UNAVAILABLE,
            realm_->GetInitialTickets("root", "rootpw", kMoiraServiceName, &ticket));
  // Zero permille always heals — same API, deterministic either way.
  FaultPlanSpec clear;
  clear.seed = 7;
  ArmDirectories(clear, realm_.get(), &hosts, /*pass=*/1);
  EXPECT_FALSE(realm_->down());
  EXPECT_FALSE(hosts.down());
  // The replication injector arms the same KDC outage, and heals it the same
  // way.
  ReplFaultSpec repl;
  repl.seed = 7;
  repl.kdc_down_permille = 1000;
  ArmRound(repl, {}, realm_.get(), /*round=*/0);
  EXPECT_TRUE(realm_->down());
  ArmRound(ReplFaultSpec{}, {}, realm_.get(), /*round=*/1);
  EXPECT_FALSE(realm_->down());
}

TEST_F(ReplTest, ConvergesByteIdenticalUnderSeededFaults) {
  MrClient admin = MakeAdmin();
  std::vector<std::unique_ptr<ReplicaServer>> replicas;
  std::vector<ReplicaServer*> raw;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(MakeReplica("fr" + std::to_string(i)));
    ASSERT_EQ(MR_SUCCESS, replicas.back()->CatchUp());
    raw.push_back(replicas.back().get());
  }
  ReplFaultSpec spec;
  spec.seed = 1988;
  spec.crash_permille = 250;
  spec.flap_permille = 300;
  spec.slow_permille = 300;
  spec.slow_apply_limit = 2;
  spec.kdc_down_permille = 200;
  for (int round = 0; round < 12; ++round) {
    ArmRound(spec, raw, realm_.get(), round);
    clock_.Advance(30);
    for (int w = 0; w < 4; ++w) {
      std::string name = "m" + std::to_string(round) + "x" + std::to_string(w) + ".mit.edu";
      ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {name, "VAX"}, [](Tuple) {}));
    }
    ASSERT_EQ(MR_SUCCESS,
              admin.Query("update_user_shell", {"jrandom", "/bin/r" + std::to_string(round)},
                          [](Tuple) {}));
    for (ReplicaServer* replica : raw) {
      replica->CatchUp();  // crashed/limited replicas fall behind; that's the point
    }
  }
  // Heal everything and drain.
  ArmRound(ReplFaultSpec{}, raw, realm_.get(), 12);
  for (ReplicaServer* replica : raw) {
    ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  }
  const std::string golden = PrimaryDump();
  for (ReplicaServer* replica : raw) {
    EXPECT_EQ(replica->applied_seq(), primary_->journal().last_seq()) << replica->name();
    EXPECT_EQ(0u, replica->stats().apply_failures) << replica->name();
    EXPECT_EQ(golden, BackupManager::DumpToString(replica->db())) << replica->name();
  }
}

// "<prefix><n>.mit.edu", built by appending (GCC 12 misreports
// "literal" + std::string under -Wrestrict).
std::string MachineName(const char* prefix, uint64_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  name += ".mit.edu";
  return name;
}

// --- One log window, through either door ---
//
// Every row is a window arriving at a replica that has applied the primary's
// entries 1..4, all of epoch 1.  A push delivers it with MrClient::ReplPush;
// a fetch delivers it from a source server whose journal holds the window's
// log: entries 1..prev_seq (the last one stamped prev_epoch when that is not
// 0), then the window's entries, at the window's epoch.  After a push the
// replica catches up from that same source.

struct WindowOutcome {
  int32_t code;      // the push reply, or what CatchUp returns
  uint64_t applied;  // applied_seq() afterwards
};

struct WindowRow {
  const char* name;
  uint64_t epoch;  // the sender's epoch
  uint64_t prev_seq;
  uint64_t prev_epoch;
  std::vector<std::pair<uint64_t, uint64_t>> entries;  // (seq, epoch)
  bool mid_resync;  // a push condemned the replica before the window arrives
  WindowOutcome push;
  uint64_t push_position;              // the position the push reply reports
  std::optional<WindowOutcome> fetch;  // nullopt: no fetch reply is this window
  uint64_t resyncs;                    // divergence_resyncs afterwards
  bool snapshot;  // the next CatchUp (for a fetch, the same one) loads a snapshot
};

const std::vector<WindowRow>& WindowRows() {
  static const std::vector<WindowRow> rows = {
      {"in order", 1, 4, 1, {{5, 1}, {6, 1}}, false,
       {MR_SUCCESS, 6}, 6, WindowOutcome{MR_SUCCESS, 6}, 0, false},
      {"redelivered prefix", 1, 2, 1, {{3, 1}, {4, 1}, {5, 1}}, false,
       {MR_SUCCESS, 5}, 5, std::nullopt, 0, false},
      {"window ahead", 1, 6, 1, {{7, 1}}, false,
       {MR_REPL_BEHIND, 4}, 4, std::nullopt, 0, false},
      {"empty window ahead (the quorum gate's probe)", 1, 6, 0, {}, false,
       {MR_REPL_BEHIND, 4}, 4, std::nullopt, 0, false},
      {"gap", 1, 4, 1, {{5, 1}, {7, 1}}, false,
       {MR_REPL_BEHIND, 5}, 5, WindowOutcome{MR_INTERNAL, 5}, 0, false},
      {"prev_epoch mismatch", 2, 4, 2, {{5, 2}}, false,
       {MR_REPL_BEHIND, 4}, 0, WindowOutcome{MR_SUCCESS, 5}, 1, true},
      {"newer log ends below us", 2, 2, 1, {}, false,
       {MR_REPL_BEHIND, 4}, 0, WindowOutcome{MR_SUCCESS, 2}, 1, true},
      {"entry at our position with another epoch", 2, 3, 1, {{4, 2}, {5, 2}}, false,
       {MR_REPL_BEHIND, 4}, 0, std::nullopt, 1, true},
      {"push while mid-resync", 2, 4, 1, {{5, 2}}, true,
       {MR_REPL_BEHIND, 4}, 0, std::nullopt, 1, true},
  };
  return rows;
}

class ReplWindowTest : public ReplTest {
 protected:
  void SetUp() override {
    ReplTest::SetUp();
    MrClient admin = MakeAdmin();
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine",
                                        {MachineName("base", i), "VAX"},
                                        [](Tuple) {}));
    }
    ASSERT_EQ(4u, primary_->journal().last_seq());
  }

  JournalEntry Crafted(uint64_t seq, uint64_t epoch) {
    JournalEntry entry{seq, clock_.Now(), "root", "test", "add_machine",
                       {MachineName("w", seq), "VAX"}};
    entry.epoch = epoch;
    return entry;
  }

  // A server on the primary's database whose journal holds `row`'s log.
  std::unique_ptr<MoiraServer> Source(const WindowRow& row) {
    auto source = std::make_unique<MoiraServer>(mc_.get(), realm_.get());
    const std::vector<JournalEntry>& history = primary_->journal().entries();
    for (uint64_t seq = 1; seq <= row.prev_seq; ++seq) {
      JournalEntry entry = seq <= history.size() ? history[seq - 1] : Crafted(seq, 1);
      if (seq == row.prev_seq && row.prev_epoch != 0) {
        entry.epoch = row.prev_epoch;
      }
      source->journal().Append(std::move(entry));
    }
    for (const auto& [seq, epoch] : row.entries) {
      source->journal().Append(Crafted(seq, epoch));
    }
    source->journal().set_epoch(row.epoch);
    return source;
  }

  std::vector<std::string> Lines(const WindowRow& row) {
    std::vector<std::string> lines;
    for (const auto& [seq, epoch] : row.entries) {
      lines.push_back(Crafted(seq, epoch).ToLine());
    }
    return lines;
  }

  // A root-authenticated client to a replica, as a quorum pusher is.
  MrClient MakePusher(ReplicaServer* replica) {
    MrClient client(HandlerConnector(replica));
    client.SetKerberosIdentity(realm_.get(), "root", "rootpw");
    EXPECT_EQ(MR_SUCCESS, client.Connect());
    EXPECT_EQ(MR_SUCCESS, client.Auth("mrrepl-push"));
    return client;
  }
};

TEST_F(ReplWindowTest, EveryWindowRuleThroughThePush) {
  for (const WindowRow& row : WindowRows()) {
    SCOPED_TRACE(row.name);
    std::unique_ptr<MoiraServer> source = Source(row);
    std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
    ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
    ASSERT_EQ(4u, replica->applied_seq());
    {
      MrClient pusher = MakePusher(replica.get());
      if (row.mid_resync) {
        ASSERT_EQ(MR_REPL_BEHIND, pusher.ReplPush(row.epoch, 4, 2, {}));
      }
      EXPECT_EQ(row.push.code, pusher.ReplPush(row.epoch, row.prev_seq, row.prev_epoch,
                                               Lines(row)));
      ASSERT_EQ(2u, pusher.last_fields().size());
      EXPECT_EQ(std::to_string(row.push_position), pusher.last_fields()[0]);
    }
    EXPECT_EQ(row.push.applied, replica->applied_seq());
    EXPECT_EQ(row.resyncs, replica->stats().divergence_resyncs);
    replica->SetPrimaryLink(HandlerConnector(source.get()), "root", "rootpw");
    replica->CatchUp();
    EXPECT_EQ(row.snapshot ? 1u : 0u, replica->stats().snapshot_loads);
  }
}

TEST_F(ReplWindowTest, EveryWindowRuleThroughTheFetch) {
  int fetched = 0;
  for (const WindowRow& row : WindowRows()) {
    if (!row.fetch.has_value()) {
      continue;
    }
    ++fetched;
    SCOPED_TRACE(row.name);
    std::unique_ptr<MoiraServer> source = Source(row);
    std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
    ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
    ASSERT_EQ(4u, replica->applied_seq());
    replica->SetPrimaryLink(HandlerConnector(source.get()), "root", "rootpw");
    EXPECT_EQ(row.fetch->code, replica->CatchUp());
    EXPECT_EQ(row.fetch->applied, replica->applied_seq());
    EXPECT_EQ(row.resyncs, replica->stats().divergence_resyncs);
    EXPECT_EQ(row.snapshot ? 1u : 0u, replica->stats().snapshot_loads);
  }
  EXPECT_EQ(4, fetched);
}

// The torn-push fault applies the first half of a window and drops the
// reply; the pusher's re-push applies the rest.
TEST_F(ReplWindowTest, TornPushAppliesHalfItsWindow) {
  WindowRow row{"torn", 1, 4, 1, {{5, 1}, {6, 1}, {7, 1}, {8, 1}}, false, {}, 0,
                std::nullopt, 0, false};
  std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
  ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
  replica->ArmTornPush();
  {
    MrClient pusher = MakePusher(replica.get());
    EXPECT_EQ(MR_ABORTED, pusher.ReplPush(1, 4, 1, Lines(row)));
  }
  EXPECT_EQ(6u, replica->applied_seq());
  MrClient pusher = MakePusher(replica.get());
  EXPECT_EQ(MR_SUCCESS, pusher.ReplPush(1, 4, 1, Lines(row)));
  EXPECT_EQ(8u, replica->applied_seq());
}

// Applying a window changes what a principal may do; a cached access
// decision on the replica must not outlive it, whichever door it came in by.
TEST_F(ReplWindowTest, AppliedWindowRefreshesCachedAccess) {
  JournalEntry grant{5, clock_.Now(), "root", "test", "add_member_to_list",
                     {"dbadmin", "USER", "jrandom"}};
  grant.epoch = 1;
  for (bool push : {true, false}) {
    SCOPED_TRACE(push ? "push" : "fetch");
    WindowRow row{"grant", 1, 4, 1, {}, false, {}, 0, std::nullopt, 0, false};
    std::unique_ptr<MoiraServer> source = Source(row);
    source->journal().Append(grant);
    std::unique_ptr<ReplicaServer> replica = MakeReplica("r1");
    ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
    // dbadmin is the ACL of every query, as on a built site.
    QueryRegistry::Instance().SeedCapacls(replica->context(), "dbadmin");
    MrClient user(HandlerConnector(replica.get()));
    user.SetKerberosIdentity(realm_.get(), "jrandom", "hunter2");
    ASSERT_EQ(MR_SUCCESS, user.Connect());
    ASSERT_EQ(MR_SUCCESS, user.Auth("test"));
    EXPECT_EQ(MR_PERM, user.Access("add_machine", {"acl.mit.edu", "VAX"}));
    if (push) {
      MrClient pusher = MakePusher(replica.get());
      ASSERT_EQ(MR_SUCCESS, pusher.ReplPush(1, 4, 1, {grant.ToLine()}));
    } else {
      replica->SetPrimaryLink(HandlerConnector(source.get()), "root", "rootpw");
      ASSERT_EQ(MR_SUCCESS, replica->CatchUp());
    }
    ASSERT_EQ(5u, replica->applied_seq());
    EXPECT_EQ(MR_SUCCESS, user.Access("add_machine", {"acl.mit.edu", "VAX"}));
  }
}

// A quorum peer that acknowledges every window it is pushed, except that it
// can answer one push MR_REPL_BEHIND at a position below what it acked
// before, as a replica does after a restart or a condemned suffix.
class RewindingPeer final : public QuorumPeer {
 public:
  struct Window {
    uint64_t prev_seq = 0;
    uint64_t prev_epoch = 0;
    std::vector<uint64_t> seqs;
  };

  const std::string& name() const override { return name_; }

  int32_t Push(uint64_t epoch, uint64_t prev_seq, uint64_t prev_epoch,
               const std::vector<std::string>& lines, uint64_t* applied_seq,
               uint64_t* peer_epoch) override {
    Window window{prev_seq, prev_epoch, {}};
    for (const std::string& line : lines) {
      window.seqs.push_back(JournalEntry::FromLine(line).value().seq);
    }
    pushes.push_back(window);
    *peer_epoch = epoch;
    if (behind_at.has_value()) {
      *applied_seq = *behind_at;
      behind_at.reset();
      return MR_REPL_BEHIND;
    }
    *applied_seq = window.seqs.empty() ? prev_seq : window.seqs.back();
    return MR_SUCCESS;
  }

  std::optional<uint64_t> behind_at;
  std::vector<Window> pushes;

 private:
  std::string name_ = "peer";
};

TEST_F(ReplTest, QuorumGateRewindsToTheBehindPeersPosition) {
  ServerOptions options;
  options.write_quorum = 2;
  MoiraServer gated(mc_.get(), realm_.get(), options);
  RewindingPeer peer;
  gated.SetQuorumPeers({&peer});
  MrClient admin(HandlerConnector(&gated));
  admin.SetKerberosIdentity(realm_.get(), "root", "rootpw");
  ASSERT_EQ(MR_SUCCESS, admin.Connect());
  ASSERT_EQ(MR_SUCCESS, admin.Auth("ops"));
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine",
                                      {MachineName("q", i), "VAX"},
                                      [](Tuple) {}));
  }
  ASSERT_EQ(3u, peer.pushes.size());
  EXPECT_EQ(2u, peer.pushes[2].prev_seq);
  EXPECT_EQ(std::vector<uint64_t>{3}, peer.pushes[2].seqs);
  // The peer lost entries 2..3: it answers the next push at position 1.
  peer.behind_at = 1;
  ASSERT_EQ(MR_SUCCESS, admin.Query("add_machine", {"q4.mit.edu", "VAX"}, [](Tuple) {}));
  ASSERT_EQ(5u, peer.pushes.size());
  EXPECT_EQ(3u, peer.pushes[3].prev_seq);
  EXPECT_EQ(std::vector<uint64_t>{4}, peer.pushes[3].seqs);
  // The re-window starts right after the position the peer reported.
  EXPECT_EQ(1u, peer.pushes[4].prev_seq);
  EXPECT_EQ(1u, peer.pushes[4].prev_epoch);
  EXPECT_EQ((std::vector<uint64_t>{2, 3, 4}), peer.pushes[4].seqs);
  EXPECT_EQ(1u, gated.quorum_stats().push_failures);
}

}  // namespace
}  // namespace moira
