// Journal-shipping read replicas (DESIGN.md "Replication layer").
//
// The paper runs one central Moira server and offloads read traffic only
// through derived services (Hesiod).  The journal of section 5.2.2 already
// records every successful change as a replayable query+args line — exactly a
// replication log.  A ReplicaServer owns its own embedded database (seeded to
// the same initial state as the primary), pulls journal entries from the
// primary over the authenticated wire protocol (kReplFetch), applies them
// deterministically through the query registry with the original principal,
// client name, and timestamp — so modby/modwith/modtime stamps, and therefore
// full database dumps, come out byte-identical — and serves read-only queries
// through an embedded MoiraServer.
//
// Consistency: replicas track applied_seq, the highest journal sequence
// number applied.  A read carrying a read-your-writes token (kQueryAtSeq)
// greater than applied_seq triggers a brief on-demand catch-up pull; if the
// replica still cannot reach the token it answers MR_REPL_BEHIND and the
// client redirects to the primary.  A replica that reconnects after a
// disconnect resumes fetching from applied_seq + 1; if the primary has
// truncated its journal past that point (MR_REPL_TRUNCATED) the replica falls
// back to a full snapshot transfer (kReplSnapshot).
//
// Automatic failover (DESIGN.md "Heartbeats, elections, and epoch fencing"):
// every HeartbeatTick a replica runs one bounded catch-up against its primary
// link; transport failure counts as a missed heartbeat.  After
// ReplicaOptions::missed_heartbeats consecutive misses the replica probes its
// peers with the unauthenticated kReplHello — if a newer primary already
// exists it adopts it; otherwise, if it holds the best log among reachable
// peers (by (tail_epoch, applied_seq), name as tie-break), it stands for
// election at epoch max(seen)+1 and promotes itself once a strict majority of
// the cluster grants its kReplVote.  Elections are two-phase (Raft pre-vote):
// a non-binding round must reach a majority before the candidate raises its
// own epoch floor, so a partitioned node's hopeless candidacies cannot fence
// the healthy primary when its link heals.  Voters apply leader stickiness
// (no vote while their own primary link is healthy), so one slow link cannot
// depose a live primary.  Every repl wire exchange carries epochs: a deposed primary
// is fenced on first contact with any node that has seen the newer epoch, and
// pushes/fetches carry the predecessor entry's (seq, epoch) so a replica that
// kept a dead reign's unreplicated suffix detects the divergence and resyncs
// from a snapshot instead of silently keeping it.  Operator-driven failover
// (Promote()) remains as the manual path.
#ifndef MOIRA_SRC_REPL_REPLICA_H_
#define MOIRA_SRC_REPL_REPLICA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/client/client.h"
#include "src/common/clock.h"
#include "src/core/context.h"
#include "src/krb/kerberos.h"
#include "src/net/channel.h"
#include "src/server/server.h"

namespace moira {

struct ReplicaOptions {
  std::string name = "replica";
  // The replica seeds its database (schema + defaults) at this time; it must
  // match the primary's seed time or the two initial states diverge.
  UnixTime start_time = 568000000;
  // Consecutive missed heartbeats before the replica gives up on its primary
  // and starts failover (probe peers, adopt or stand for election).
  int missed_heartbeats = 3;
  // Options for the embedded server — a promoted replica runs quorum writes
  // under these (write_quorum, cluster_size, quorum_ack_local, ...).
  ServerOptions server_options;
};

class ReplicaServer final : public MessageHandler {
 public:
  // `realm` is the shared KDC: the embedded read server authenticates clients
  // against it, and the primary link authenticates with it.  Must outlive the
  // replica.
  explicit ReplicaServer(KerberosRealm* realm, ReplicaOptions options = {});
  ~ReplicaServer() override;

  // Configures the pull link to the primary.  `principal` must be authorized
  // for get_replica_status on the primary (root or CAPACLS member) — the
  // capability that gates journal streaming, and the identity this replica
  // will push/fetch with after adopting or winning a failover.
  void SetPrimaryLink(MrClient::Connector connector, std::string principal,
                      std::string password);

  // Registers a cluster peer (every node other than this one, including the
  // original primary) for hello probes, votes, and post-promotion quorum
  // pushes.  Uses the credentials from SetPrimaryLink.
  void AddPeer(const std::string& name, MrClient::Connector connector);

  // One catch-up run: connect/authenticate if needed (cached ticket — a KDC
  // blip does not stop a reconnect), then fetch and apply batches until
  // caught up with the primary.  Falls back to a snapshot transfer when the
  // primary's journal has been truncated past applied_seq.  Returns
  // MR_SUCCESS when fully caught up, MR_MORE_DATA when an injected apply
  // limit stopped it early, or the transport/server error otherwise.
  int32_t CatchUp();

  uint64_t applied_seq() const { return applied_seq_; }
  bool promoted() const { return promoted_; }
  // Highest replication epoch this node has seen (as primary: its reign's
  // epoch; as replica: the fencing floor it advertises on every fetch).
  uint64_t epoch() const;

  // Operator failover: start accepting writes.  The embedded server's
  // journal continues numbering from applied_seq + 1, so post-failover
  // entries extend the old primary's sequence.  Returns the now-writable
  // embedded server (its journal is the new replication source).
  MoiraServer* Promote();
  // Election-driven promotion at a specific epoch: as Promote(), and in
  // addition installs quorum push peers over the registered peer connectors,
  // so every post-failover mutation is quorum-acknowledged.
  MoiraServer* PromoteWithEpoch(uint64_t epoch);

  // What one HeartbeatTick did (see class comment for the state machine).
  enum class HeartbeatEvent {
    kPrimaryRole,   // this node is the primary; nothing to heartbeat
    kCrashed,       // crashed nodes do nothing
    kOk,            // heartbeat succeeded (caught up or made progress)
    kMiss,          // heartbeat missed, threshold not yet reached
    kAdopted,       // found and adopted a newer primary
    kPromoted,      // won an election and promoted itself
    kDeferred,      // a reachable peer has a better log; let it stand
    kElectionLost,  // stood for election, did not reach a majority
    kSteppedDown,   // was primary, found itself fenced, demoted to replica
  };
  HeartbeatEvent HeartbeatTick();

  // --- fault hooks (seeded by ArmRound, src/repl/repl_fault.h) ---
  // Crash: the replica loses its in-memory state and stops serving.
  void Crash() { crashed_ = true; }
  bool crashed() const { return crashed_; }
  // Reboot after a crash: database state is gone (next CatchUp snapshots),
  // but the epoch floor and granted vote survive — the one durable bit a
  // correct election protocol requires.  A promoted node reboots demoted.
  void Restart();
  // Link flap: drops the primary connection; the next CatchUp reconnects,
  // re-authenticates, and resumes from applied_seq + 1.
  void DropLink();
  // Tears down every open connection this node holds into its peers (primary
  // link and quorum push channels).  Harness teardown only: loopback channels
  // keep raw handler pointers into sibling nodes, so all connections must die
  // while every node is still alive.  The node keeps its credentials and can
  // reconnect afterwards.
  void DisconnectAll();
  // Slow apply: at most `limit` entries applied per CatchUp call (0 = no
  // limit).
  void set_apply_limit(int limit) { apply_limit_ = limit; }
  // One-shot torn push: the next kReplPush applies only half its entries and
  // then the connection dies mid-reply (the pusher sees a transport error and
  // must converge by re-pushing).
  void ArmTornPush() { torn_push_armed_ = true; }

  // MessageHandler — the read-serving side.
  std::string OnMessage(uint64_t conn_id, std::string_view payload) override;
  void OnConnect(uint64_t conn_id, std::string peer) override;
  void OnDisconnect(uint64_t conn_id) override;

  struct Stats {
    uint64_t entries_applied = 0;
    uint64_t apply_failures = 0;  // divergence signal: an entry failed to replay
    uint64_t fetch_rounds = 0;
    uint64_t snapshot_loads = 0;
    uint64_t reads_served = 0;
    uint64_t reads_behind = 0;     // answered MR_REPL_BEHIND
    uint64_t read_catch_ups = 0;   // on-demand pulls triggered by a token
    // Seq the last snapshot transfer was cut at.  With a checkpoint-serving
    // primary this is the checkpoint's stamped seq (bootstrap = checkpoint +
    // journal tail), not the primary's last_seq.
    uint64_t last_snapshot_seq = 0;
    // Failover-path counters.
    uint64_t push_batches = 0;       // kReplPush batches applied
    uint64_t fence_refusals = 0;     // pushes/votes refused as stale-epoch
    uint64_t heartbeat_misses = 0;
    uint64_t elections_started = 0;
    uint64_t votes_granted = 0;
    uint64_t adoptions = 0;          // switched primary link to a newer primary
    uint64_t promotions = 0;         // elections won
    uint64_t step_downs = 0;         // demotions of a fenced ex-primary
    uint64_t divergence_resyncs = 0; // dead-reign suffix detected, snapshot forced
  };
  const Stats& stats() const { return stats_; }

  const std::string& name() const { return options_.name; }
  SimulatedClock& clock() { return clock_; }
  Database& db() { return *db_; }
  MoiraContext& context() { return *mc_; }
  MoiraServer& server() { return *server_; }
  MrClient* primary_link() { return link_.get(); }

 private:
  bool EnsureLink();
  int32_t CatchUpInternal(uint64_t target_seq, int max_batches);
  int32_t LoadSnapshot();
  // Checks and applies one log window, fetched or pushed (DESIGN.md
  // "Shipping and deterministic apply").  (prev_seq, prev_epoch) name the
  // entry before the window in the sender's log, which ends at
  // source_last_seq.  Returns MR_REPL_BEHIND when it condemns our state
  // (force_snapshot_ set), when the window starts past us or at a gap, and
  // MR_MORE_DATA when it stopped after `max_apply` entries.
  int32_t AcceptWindow(uint64_t epoch, uint64_t prev_seq, uint64_t prev_epoch,
                       uint64_t source_last_seq, const std::vector<JournalEntry>& entries,
                       size_t max_apply);
  // Highest epoch this node must refuse below: max(seen, voted).
  uint64_t VoteFloor() const;
  // Epoch of the last applied entry (0 = unknown, e.g. right after a
  // snapshot bootstrap); the log-comparison half of an election vote.
  uint64_t TailEpoch() const { return applied_entry_epoch_; }
  // Re-point the primary link at a peer that is (or hosts) the new primary.
  void AdoptPrimary(const std::string& peer_name);
  // Demote a fenced ex-primary back to replica: wipe local state (the dead
  // reign's suffix may not be in the cluster history) and resync.
  void StepDown();
  // Restart and StepDown: demote, empty the tables, and re-bootstrap from a
  // snapshot.
  void ResetToReplica();
  std::string HandleReplPush(uint64_t conn_id, const MrRequest& request);
  std::string HandleReplVote(const MrRequest& request);

  ReplicaOptions options_;
  SimulatedClock clock_;
  KerberosRealm* realm_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<MoiraContext> mc_;
  std::unique_ptr<MoiraServer> server_;
  std::unique_ptr<MrClient> link_;
  bool link_authed_ = false;
  uint64_t applied_seq_ = 0;
  bool promoted_ = false;
  bool crashed_ = false;
  bool force_snapshot_ = false;
  int apply_limit_ = 0;
  // Failover state.
  std::map<std::string, MrClient::Connector> peers_;  // name -> connector
  std::string repl_principal_;
  std::string repl_password_;
  uint64_t epoch_ = 1;               // highest epoch seen
  uint64_t voted_epoch_ = 0;         // highest epoch voted in (durable)
  uint64_t applied_entry_epoch_ = 0; // epoch of the entry at applied_seq_
  int misses_ = 0;                   // consecutive missed heartbeats
  bool torn_push_armed_ = false;
  std::vector<std::unique_ptr<QuorumPeer>> push_peers_;  // installed on promotion
  Stats stats_;
};

// Operator failover helper: the most-caught-up live replica (max applied_seq,
// ties broken by name so the choice is deterministic); nullptr if none.
ReplicaServer* ChooseFailoverCandidate(const std::vector<ReplicaServer*>& replicas);

}  // namespace moira

#endif  // MOIRA_SRC_REPL_REPLICA_H_
