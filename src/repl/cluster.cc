#include "src/repl/cluster.h"

#include "src/comerr/moira_errors.h"

namespace moira {
namespace {

// Loopback channel with a partition check on both halves of the exchange.
class PartitionChannel final : public ClientChannel {
 public:
  PartitionChannel(const NetworkPartition* net, std::string from, std::string to,
                   MessageHandler* handler)
      : net_(net), from_(std::move(from)), to_(std::move(to)), inner_(handler) {}

  int32_t Send(std::string_view framed) override {
    if (!net_->Allowed(from_, to_)) {
      return MR_ABORTED;  // request dropped on the floor
    }
    return inner_.Send(framed);
  }

  int32_t Recv(std::string* payload) override {
    if (!net_->Allowed(to_, from_)) {
      // The request was delivered and possibly applied, but the reply path
      // is down: the caller sees a dead connection and must treat the
      // outcome as unknown.
      return MR_ABORTED;
    }
    return inner_.Recv(payload);
  }

 private:
  const NetworkPartition* net_;
  std::string from_;
  std::string to_;
  LoopbackChannel inner_;
};

}  // namespace

MrClient::Connector NetworkPartition::Connector(std::string from, std::string to,
                                                MessageHandler* handler) const {
  const NetworkPartition* net = this;
  return [net, from = std::move(from), to = std::move(to), handler] {
    return std::make_unique<PartitionChannel>(net, from, to, handler);
  };
}

ReplCluster::ReplCluster(ReplClusterOptions options)
    : options_(options), clock_(options.start_time) {
  realm_ = std::make_unique<KerberosRealm>(&clock_);
  realm_->AddPrincipal("root", "rootpw");
  for (int i = 0; i < options_.nodes; ++i) {
    names_.push_back("n" + std::to_string(i));
  }
  for (int i = 0; i < options_.nodes; ++i) {
    ReplicaOptions ropts;
    ropts.name = names_[static_cast<size_t>(i)];
    ropts.start_time = options_.start_time;
    ropts.missed_heartbeats = options_.missed_heartbeats;
    ropts.server_options.write_quorum = options_.write_quorum;
    ropts.server_options.cluster_size = options_.nodes;
    ropts.server_options.quorum_ack_local = options_.quorum_ack_local;
    nodes_.push_back(std::make_unique<ReplicaServer>(realm_.get(), ropts));
  }
  // All-to-all peer wiring through the partition matrix, then the initial
  // roles: node 0 is the epoch-1 primary, everyone else pulls from it.
  for (int i = 0; i < options_.nodes; ++i) {
    for (int j = 0; j < options_.nodes; ++j) {
      if (i == j) {
        continue;
      }
      nodes_[static_cast<size_t>(i)]->AddPeer(
          names_[static_cast<size_t>(j)],
          net_.Connector(names_[static_cast<size_t>(i)],
                         names_[static_cast<size_t>(j)],
                         nodes_[static_cast<size_t>(j)].get()));
    }
  }
  for (int i = 1; i < options_.nodes; ++i) {
    nodes_[static_cast<size_t>(i)]->SetPrimaryLink(
        net_.Connector(names_[static_cast<size_t>(i)], names_[0], nodes_[0].get()),
        "root", "rootpw");
  }
  // The initial primary needs the push credentials too (SetPrimaryLink is
  // what records them), even though it never pulls from anyone.
  nodes_[0]->SetPrimaryLink(
      net_.Connector(names_[0], names_[0], nodes_[0].get()), "root", "rootpw");
  nodes_[0]->PromoteWithEpoch(1);
}

ReplCluster::~ReplCluster() {
  // Every open channel holds a raw MessageHandler pointer into a sibling
  // node; tear all connections down while every node is still alive, or the
  // channel destructors dereference freed nodes.
  for (const std::unique_ptr<ReplicaServer>& node : nodes_) {
    node->DisconnectAll();
  }
}

std::vector<ReplicaServer::HeartbeatEvent> ReplCluster::Tick(UnixTime dt) {
  clock_.Advance(dt);
  std::vector<ReplicaServer::HeartbeatEvent> events;
  events.reserve(nodes_.size());
  for (const std::unique_ptr<ReplicaServer>& node : nodes_) {
    node->clock().Advance(dt);
    events.push_back(node->HeartbeatTick());
  }
  return events;
}

ReplicaServer* ReplCluster::primary() {
  std::vector<ReplicaServer*> writable = WritablePrimaries();
  return writable.size() == 1 ? writable[0] : nullptr;
}

std::vector<ReplicaServer*> ReplCluster::WritablePrimaries() {
  std::vector<ReplicaServer*> out;
  for (const std::unique_ptr<ReplicaServer>& node : nodes_) {
    if (node->promoted() && !node->crashed() && !node->server().fenced()) {
      out.push_back(node.get());
    }
  }
  return out;
}

MrClient::Connector ReplCluster::ClientConnector(int i) {
  return net_.Connector(kClientEndpoint, names_[static_cast<size_t>(i)],
                        nodes_[static_cast<size_t>(i)].get());
}

void AttachDcmReadSource(Dcm* dcm, ReplicaServer* replica) {
  dcm->SetReadSource(&replica->context(), [replica](uint64_t high_water) {
    if (replica->crashed() || replica->promoted()) {
      // A promoted replica IS the primary; reading "the replica" would not
      // offload anything, and a crashed one cannot serve.
      return replica->promoted() && !replica->crashed() &&
             replica->server().journal().last_seq() >= high_water;
    }
    replica->CatchUp();
    return replica->applied_seq() >= high_water;
  });
}

}  // namespace moira
