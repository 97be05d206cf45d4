// Client-side read/write routing over a replicated Moira deployment.
//
// ReplicatedClient presents the ordinary MoiraClientApi but splits traffic:
// mutations go to the primary, retrieval queries fan out round-robin across
// the read replicas.  Read-your-writes consistency rides on a sequence token:
// every successful write records the journal sequence number the primary
// assigned (surfaced in the final reply), and every read is sent as
// kQueryAtSeq carrying the highest token seen.  A replica that cannot reach
// the token (MR_REPL_BEHIND) — or that is down (transport failure) — is
// skipped; if no replica can serve, the read redirects to the primary, which
// trivially satisfies any token it issued.
//
// Failover (DESIGN.md "Heartbeats, elections, and epoch fencing"): with
// endpoints registered and tagged writes enabled, every mutation carries a
// router-generated idempotency tag and is queued until a definitive verdict
// arrives.  When the primary stops answering — transport failure, fencing
// (MR_REPL_EPOCH), a demoted node (MR_REPL_READONLY), or a quorum timeout —
// the router probes every endpoint with the unauthenticated kReplHello,
// adopts the writable node with the highest epoch as its new primary, and
// replays the queued writes in order.  The tags make the replay idempotent:
// a write the old primary applied (and replicated) before dying is recognized
// by the new primary and acked without re-running, so an ack lost in flight
// cannot become a double apply.
#ifndef MOIRA_SRC_REPL_ROUTER_H_
#define MOIRA_SRC_REPL_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/client/client.h"

namespace moira {

// A named node the router can probe and adopt during primary rediscovery.
struct ReplEndpoint {
  std::string name;
  MrClient::Connector connector;
};

class ReplicatedClient final : public MoiraClientApi {
 public:
  // The clients arrive configured (identity, retry policy) and are owned by
  // the router; connect/auth state is managed per client as usual.
  explicit ReplicatedClient(std::unique_ptr<MrClient> primary);

  void AddReplica(std::unique_ptr<MrClient> replica);

  // Routes by query class: retrieval queries to a replica (with the
  // read-your-writes token), everything else — mutations, unknown names, and
  // the server-state queries (_list_users, get_replica_status) — to the
  // primary.
  int32_t Query(std::string_view name, const std::vector<std::string>& args,
                const TupleSink& sink) override;
  int32_t Access(std::string_view name, const std::vector<std::string>& args) override;

  // The read-your-writes token: the highest journal seq this client's writes
  // have been assigned.  Exposed for failover handoff and tests.
  uint64_t write_token() const { return token_; }
  void set_write_token(uint64_t token) { token_ = token; }

  MrClient& primary() { return *primary_; }
  size_t replica_count() const { return replicas_.size(); }
  MrClient& replica(size_t i) { return *replicas_[i]; }

  // Builds a configured (identity, retry policy) but unconnected client for
  // an endpoint; the router connects and authenticates it itself.
  using ClientFactory = std::function<std::unique_ptr<MrClient>(const ReplEndpoint&)>;

  // Registers the probe/adopt endpoint set for automatic primary
  // rediscovery.  `client_name` is the program name used when the router
  // authenticates an adopted primary.
  void SetEndpoints(std::vector<ReplEndpoint> endpoints, ClientFactory factory,
                    std::string client_name);

  // Turns on tagged (idempotent, replayable) writes.  Tags are
  // "<prefix>:<n>" with n counting up — unique per router lifetime, which is
  // exactly the dedup horizon an in-flight replay needs.
  void EnableTaggedWrites(std::string tag_prefix);

  // Writes whose outcome is still unknown (sent, no definitive verdict).
  // Non-empty after a quorum timeout or an exhausted failover search; the
  // next write (or explicit Flush via any mutation) replays them first.
  size_t pending_writes() const { return pending_.size(); }
  // The endpoint name of the currently adopted primary ("" until the first
  // rediscovery picks one).
  const std::string& primary_name() const { return primary_name_; }

  struct Stats {
    uint64_t writes = 0;
    uint64_t replica_reads = 0;  // reads a replica answered
    uint64_t primary_reads = 0;  // reads the primary answered
    uint64_t redirects = 0;      // reads that fell back to the primary
    uint64_t rediscoveries = 0;  // hello sweeps that adopted a new primary
    uint64_t replays = 0;        // tagged writes re-sent after a failover
  };
  const Stats& stats() const { return stats_; }

 private:
  struct PendingWrite {
    std::string tag;
    std::string name;
    std::vector<std::string> args;
  };

  // True for verdicts that mean "this primary cannot serve writes (or its
  // answer was lost)" rather than "the query itself failed".
  static bool IsFailoverError(int32_t code);
  void NoteWriteToken();
  // Sends queued writes in order; pops each on a definitive verdict.  `sink`
  // receives only the final (newest) write's tuples.  Returns MR_SUCCESS when
  // the queue drained, else the first verdict that stopped it.
  int32_t TryDrain(const TupleSink& sink, bool replaying);
  // TryDrain plus rediscovery: on a failover error, hello-probe the
  // endpoints, adopt the writable max-epoch node, and replay.
  int32_t DrainWithFailover(const TupleSink& sink);
  bool RediscoverPrimary();

  std::unique_ptr<MrClient> primary_;
  std::vector<std::unique_ptr<MrClient>> replicas_;
  size_t next_replica_ = 0;
  uint64_t token_ = 0;
  std::vector<ReplEndpoint> endpoints_;
  ClientFactory factory_;
  std::string auth_client_name_;
  std::string primary_name_;
  bool tagged_writes_ = false;
  std::string tag_prefix_;
  uint64_t tag_counter_ = 0;
  std::vector<PendingWrite> pending_;
  Stats stats_;
};

}  // namespace moira

#endif  // MOIRA_SRC_REPL_ROUTER_H_
