// A hermetic, uniform replication cluster for failover tests and benches
// (DESIGN.md "Heartbeats, elections, and epoch fencing").
//
// Every node is a ReplicaServer — the initial primary is simply node 0
// promoted at epoch 1 — wired all-to-all through loopback connectors that
// pass every byte through a directional NetworkPartition matrix.  That makes
// the interesting failure shapes one-liners: a full partition blocks both
// directions, an asymmetric partition blocks one (requests arrive but
// replies are lost, or vice versa), and healing is instantaneous.  Tick()
// advances every clock and runs one heartbeat round in deterministic (index)
// order, which is all the scheduling the decentralized election needs.
#ifndef MOIRA_SRC_REPL_CLUSTER_H_
#define MOIRA_SRC_REPL_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/client/client.h"
#include "src/dcm/dcm.h"
#include "src/krb/kerberos.h"
#include "src/net/channel.h"
#include "src/repl/replica.h"

namespace moira {

// Directional reachability between named endpoints.  Everything is allowed
// until blocked; blocking ("a", "b") drops a->b traffic only (requests from
// a, and — because the transport is request/reply — replies travelling back
// to a are cut by the matching Recv check on the same edge).
class NetworkPartition {
 public:
  void Block(const std::string& from, const std::string& to) {
    blocked_.insert({from, to});
  }
  void BlockBoth(const std::string& a, const std::string& b) {
    Block(a, b);
    Block(b, a);
  }
  void HealAll() { blocked_.clear(); }
  bool Allowed(const std::string& from, const std::string& to) const {
    return blocked_.find({from, to}) == blocked_.end();
  }

  // A connector from `from` to `to`'s handler whose channel consults this
  // matrix on every exchange: Send drops when from->to is blocked (the
  // request never arrives), Recv drops when to->from is blocked (the request
  // WAS delivered and applied, but the reply is lost — the asymmetric case
  // that forces idempotent re-delivery).  The matrix must outlive every
  // channel built here.
  MrClient::Connector Connector(std::string from, std::string to,
                                MessageHandler* handler) const;

 private:
  std::set<std::pair<std::string, std::string>> blocked_;
};

struct ReplClusterOptions {
  int nodes = 3;
  // Heartbeat misses before a replica starts failover.
  int missed_heartbeats = 2;
  // Quorum configuration stamped into every node's embedded server.
  // write_quorum 0 = majority of cluster_size (= nodes).
  int write_quorum = 0;
  bool quorum_ack_local = false;
  UnixTime start_time = 568000000;
};

class ReplCluster {
 public:
  explicit ReplCluster(ReplClusterOptions options = {});
  ~ReplCluster();

  int size() const { return static_cast<int>(nodes_.size()); }
  ReplicaServer* node(int i) { return nodes_[static_cast<size_t>(i)].get(); }
  const std::string& node_name(int i) const {
    return names_[static_cast<size_t>(i)];
  }
  NetworkPartition& net() { return net_; }
  KerberosRealm& realm() { return *realm_; }
  SimulatedClock& clock() { return clock_; }

  // One simulated heartbeat interval: advances the shared clock and every
  // node clock by `dt` seconds, then runs HeartbeatTick on every node in
  // index order.  Returns each node's event (crashed nodes report kCrashed).
  std::vector<ReplicaServer::HeartbeatEvent> Tick(UnixTime dt = 1);

  // The unique live, unfenced primary — nullptr if none or several (several
  // should be impossible; the split-brain tests assert via WritablePrimaries).
  ReplicaServer* primary();
  // Every node currently accepting writes (promoted, alive, unfenced).
  std::vector<ReplicaServer*> WritablePrimaries();

  // A partition-aware connector from the external "client" endpoint to node
  // i (client traffic can be partitioned too, but is allowed by default).
  MrClient::Connector ClientConnector(int i);

  static constexpr const char* kClientEndpoint = "client";

 private:
  ReplClusterOptions options_;
  SimulatedClock clock_;  // realm + external-client clock
  std::unique_ptr<KerberosRealm> realm_;
  NetworkPartition net_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ReplicaServer>> nodes_;
};

// Satellite glue: route a DCM's generation reads through a live cluster
// replica.  The catch-up hook pulls the replica over its wire link and
// reports whether it reached the pass's high-water seq; on false the DCM
// falls back to primary reads (its existing contract), so a crashed or
// partitioned replica degrades rather than breaks propagation.
void AttachDcmReadSource(Dcm* dcm, ReplicaServer* replica);

}  // namespace moira

#endif  // MOIRA_SRC_REPL_CLUSTER_H_
