// The Moira server (paper section 5.4).
//
// A single-process server holding the one persistent database backend (the
// athenareg predecessor paid an Ingres-backend startup per client connection;
// Moira pays it once at daemon startup — bench_connection_startup measures
// the difference).  All remote communication goes through the wire protocol
// of section 5.3; access control and the per-connection access cache of
// section 5.5 live here.
#ifndef MOIRA_SRC_SERVER_SERVER_H_
#define MOIRA_SRC_SERVER_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/hash_table.h"
#include "src/common/stat_counter.h"
#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/krb/kerberos.h"
#include "src/net/channel.h"
#include "src/protocol/wire.h"
#include "src/server/journal.h"

namespace moira {

struct ServerOptions {
  // Per-connection (principal, query, args) -> access result cache (paper
  // section 5.5 anticipates "some form of access caching ... for performance
  // reasons"); invalidated whenever the database changes.
  bool enable_access_cache = true;
  // Simulated per-request cost of spawning a DBMS backend per connection, in
  // synthetic work iterations; 0 for the persistent-backend design.  Used by
  // bench_connection_startup to model athenareg.
  int simulated_backend_spawn_cost = 0;
  // Data directory holding the changelog segments and `checkpoint.<seq>`
  // directories (DESIGN.md "Checkpoint & changelog lifecycle").  When set,
  // kReplSnapshot streams the latest on-disk checkpoint instead of dumping
  // the live tables, so replica bootstrap costs one file read rather than a
  // full-table scan under the write lock.  The server does NOT attach the
  // journal itself — the operator wires recovery (RecoverServerState) and the
  // checkpoint cron; this option only tells the snapshot path where to look.
  std::string data_dir;

  // --- Quorum-acknowledged writes (DESIGN.md "Replication layer") ----------
  // Acks needed (including the primary's own journal append) before a
  // mutation is acknowledged to the client.  No ack is on disk yet: the
  // append flushes a stream it never syncs, and a replica applies in memory
  // (ROADMAP "Real durability").  0 = automatic majority,
  // ceil(cluster_size / 2); with no quorum peers installed the gate is a
  // no-op, so single-server deployments are unaffected.
  int write_quorum = 0;
  // Total voting members the majority is computed over (self + push peers +
  // any members currently unreachable, e.g. a deposed primary).  0 = push
  // peers + 1.  A promoted replica sets this so the old primary still counts
  // toward the denominator.
  int cluster_size = 0;
  // Degraded-mode policy when quorum stays unreachable: false = refuse the
  // ack (client sees MR_QUORUM_TIMEOUT; the write is journalled locally and
  // may still commit — replaying its tag resolves the ambiguity), true =
  // acknowledge locally and fire the quorum alarm (availability over
  // durability; such writes can be lost to failover).
  bool quorum_ack_local = false;
};

// One push target of the quorum gate: ships journal lines primary -> replica
// synchronously.  Implemented over the wire by the replication layer
// (src/repl); the server only sees this interface so it never depends on the
// client library.
class QuorumPeer {
 public:
  virtual ~QuorumPeer() = default;
  virtual const std::string& name() const = 0;
  // Ships epoch-stamped journal lines.  (prev_seq, prev_epoch) identify the
  // entry just before the window in the pusher's log (0 = start of history /
  // unknown), so the receiver can detect a diverged suffix instead of
  // silently keeping it.  On contact sets *applied_seq to the replica's
  // applied position and *peer_epoch to its epoch floor, returning MR_SUCCESS
  // (applied), MR_REPL_BEHIND (window does not extend the replica's prefix),
  // or MR_REPL_EPOCH (this primary is fenced).  Transport failures return
  // MR_NOT_CONNECTED/MR_ABORTED.
  virtual int32_t Push(uint64_t epoch, uint64_t prev_seq, uint64_t prev_epoch,
                       const std::vector<std::string>& lines,
                       uint64_t* applied_seq, uint64_t* peer_epoch) = 0;
};

class MoiraServer final : public MessageHandler {
 public:
  MoiraServer(MoiraContext* mc, KerberosRealm* realm, ServerOptions options = {});

  // MessageHandler.  Every request runs on the thread that pumps the
  // transport; a round's batch takes the default in-order loop.
  std::string OnMessage(uint64_t conn_id, std::string_view payload) override;
  void OnConnect(uint64_t conn_id, std::string peer) override;
  void OnDisconnect(uint64_t conn_id) override;

  // Hook invoked by a successful Trigger_DCM request.
  void set_dcm_trigger(std::function<void()> trigger) { dcm_trigger_ = std::move(trigger); }

  Journal& journal() { return journal_; }

  // Installs the quorum push targets (non-owning).  While any peers are set,
  // every mutation is acknowledged only after ServerOptions::write_quorum
  // members (counting this server) hold it: journalled here, applied in
  // memory on a replica (ROADMAP "Real durability").
  void SetQuorumPeers(std::vector<QuorumPeer*> peers);

  // Called when quorum is unreachable and the degraded policy acks locally
  // (the "alarm" of ack-local-with-alarm).
  void set_quorum_alarm(std::function<void(const std::string&)> alarm) {
    quorum_alarm_ = std::move(alarm);
  }

  // A fenced primary has observed a newer epoch (a successor was elected);
  // it refuses every further mutation and quorum push with MR_REPL_EPOCH.
  bool fenced() const { return fenced_; }
  void Fence(uint64_t newer_epoch);
  // Re-arms a fenced server when its owning ReplicaServer is promoted again
  // at a newer epoch (the only legitimate path back to writability).
  void UnfenceAt(uint64_t epoch) {
    journal_.set_epoch(epoch);
    fenced_ = false;
  }

  // Access check on behalf of an embedding ReplicaServer, which intercepts
  // repl wire requests before they reach this server but shares its
  // connection/authentication state.  MR_INTERNAL for an unknown connection.
  int32_t CheckConnPrivilege(uint64_t conn_id, const std::string& query);

  // Records an applied idempotency tag -> seq (FIFO-bounded by
  // kIdempotencyWindow, server.cc).  Also called by ReplicaServer while
  // replaying journal entries, so replayed-tag dedup survives a failover.
  void RecordAppliedTag(const std::string& tag, uint64_t seq);

  // Invalidates per-connection access caches.  Called by the replication
  // layer after applying journal entries directly through the query registry
  // (which bypasses HandleQuery and so would otherwise leave cached access
  // decisions stale).
  void InvalidateAccessCaches() { ++mutation_epoch_; }

  // One replica as seen by the primary, fed by its kReplFetch/kReplSnapshot
  // requests and surfaced through the privileged get_replica_status query.
  struct ReplicaInfo {
    uint64_t applied_seq = 0;  // last seq the replica reported applied
    UnixTime last_contact = 0;
    uint64_t fetches = 0;
    uint64_t snapshots = 0;
    uint64_t pushes = 0;  // quorum pushes acknowledged by this replica
  };
  const std::map<std::string, ReplicaInfo>& replicas() const { return replicas_; }

  struct Stats {
    // All bumped on the request thread.  requests/queries are StatCounters
    // so another thread may read them while that thread runs (a test or
    // benchmark client watching the server it drives).
    StatCounter requests = 0;
    StatCounter queries = 0;
    uint64_t access_checks = 0;
    uint64_t access_cache_hits = 0;
    uint64_t auth_successes = 0;
    uint64_t auth_failures = 0;
  };
  const Stats& stats() const { return stats_; }

  struct QuorumStats {
    uint64_t quorum_writes = 0;    // mutations that ran the quorum gate
    uint64_t quorum_acks = 0;      // ... that reached quorum
    uint64_t push_rounds = 0;      // individual peer pushes attempted
    uint64_t push_failures = 0;    // pushes that failed or fell short
    uint64_t quorum_timeouts = 0;  // gate gave up (refuse policy)
    uint64_t degraded_acks = 0;    // gate gave up but acked locally (alarm)
    uint64_t fence_refusals = 0;   // mutations/pushes refused while fenced
    uint64_t tag_hits = 0;         // tagged replays answered from the tag map
  };
  const QuorumStats& quorum_stats() const { return quorum_stats_; }

  // Access-path counters summed over every table in the attached database:
  // how the executor actually answered this server's queries (see
  // TableStats).
  struct AccessPathStats {
    uint64_t index_hits = 0;
    uint64_t prefix_scans = 0;
    uint64_t range_scans = 0;
    uint64_t full_scans = 0;
    uint64_t rows_examined = 0;
    uint64_t rows_emitted = 0;
    uint64_t join_reorders = 0;
    // List-closure cache (MoiraContext) counters, not per-table.
    uint64_t closure_cache_hits = 0;
    uint64_t closure_cache_misses = 0;
  };
  AccessPathStats access_path_stats() const;

  size_t connected_clients() const { return connections_.size(); }

 private:
  struct ConnState {
    std::string principal;      // empty until authenticated
    std::string client_name;    // program acting on behalf of the user
    std::string peer;
    UnixTime connect_time = 0;
    uint64_t client_number = 0;
    uint64_t cache_epoch = 0;
    MrHashTable<int32_t> access_cache;
  };

  std::string HandleRequest(ConnState& conn, const MrRequest& request);
  std::string HandleQuery(ConnState& conn, const MrRequest& request,
                          const std::string& tag = std::string());
  std::string HandleQueryTagged(ConnState& conn, const MrRequest& request);
  std::string HandleAccess(ConnState& conn, const MrRequest& request);
  std::string HandleAuth(ConnState& conn, const MrRequest& request);
  std::string HandleListUsers(const MrRequest& request);
  std::string HandleReplicaStatus(ConnState& conn);
  std::string HandleReplFetch(ConnState& conn, const MrRequest& request);
  std::string HandleReplSnapshot(ConnState& conn, const MrRequest& request);
  std::string HandleReplPush(ConnState& conn, const MrRequest& request);
  std::string HandleReplHello();
  int32_t CachedAccessCheck(ConnState& conn, const std::string& query,
                            const std::vector<std::string>& args);
  // Runs the quorum gate for the journalled write at target_seq: pushes each
  // unacked peer's missing window until write_quorum members hold it or
  // kQuorumAttempts sweeps (server.cc) are exhausted.  Returns MR_SUCCESS,
  // MR_QUORUM_TIMEOUT, or MR_REPL_EPOCH (a peer fenced us).
  int32_t QuorumGate(uint64_t target_seq);
  // Pushes `peer` the journal window after `after_seq` through `through_seq`.
  // On contact returns MR_SUCCESS with *acked at the peer's position;
  // otherwise MR_REPL_EPOCH (this server is now fenced) or the transport
  // error.
  int32_t PushWindow(QuorumPeer* peer, uint64_t after_seq, uint64_t through_seq,
                     uint64_t* acked);

  MoiraContext* mc_;
  ServiceVerifier verifier_;
  ServerOptions options_;
  Journal journal_;
  std::function<void()> dcm_trigger_;
  std::map<uint64_t, ConnState> connections_;
  std::map<std::string, ReplicaInfo> replicas_;
  uint64_t next_client_number_ = 1;
  uint64_t mutation_epoch_ = 1;  // bumped on every successful mutation
  Stats stats_;

  // Quorum replication state.
  std::vector<QuorumPeer*> quorum_peers_;
  std::map<std::string, uint64_t> peer_acked_;  // peer name -> acked seq
  bool fenced_ = false;
  std::function<void(const std::string&)> quorum_alarm_;
  QuorumStats quorum_stats_;
  std::map<std::string, uint64_t> applied_tags_;  // idempotency tag -> seq
  std::deque<std::string> tag_order_;             // FIFO eviction order
};

}  // namespace moira

#endif  // MOIRA_SRC_SERVER_SERVER_H_
