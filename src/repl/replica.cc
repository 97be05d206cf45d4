#include "src/repl/replica.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/backup/backup.h"
#include "src/comerr/moira_errors.h"
#include "src/common/strutil.h"
#include "src/core/schema.h"

namespace moira {
namespace {

// Batch size of one kReplFetch round trip.
constexpr int kMaxEntriesPerFetch = 256;
// On-demand fetch batches a read ahead of applied_seq waits for before it is
// answered MR_REPL_BEHIND.
constexpr int kReadCatchUpBatches = 4;

std::string SingleReply(int32_t code) {
  return EncodeReply(MrReply{kMrProtocolVersion, code, {}});
}

// Quorum push target over the authenticated wire: a promoted replica installs
// one of these per cluster peer, so the embedded server's QuorumGate ships
// journal windows exactly as a from-birth primary would.
class WirePushPeer final : public QuorumPeer {
 public:
  WirePushPeer(std::string name, MrClient::Connector connector, KerberosRealm* realm,
               std::string principal, std::string password)
      : name_(std::move(name)), client_(std::make_unique<MrClient>(std::move(connector))) {
    client_->SetKerberosIdentity(realm, std::move(principal), std::move(password));
  }

  const std::string& name() const override { return name_; }

  int32_t Push(uint64_t epoch, uint64_t prev_seq, uint64_t prev_epoch,
               const std::vector<std::string>& lines, uint64_t* applied_seq,
               uint64_t* peer_epoch) override {
    if (!Ensure()) {
      return MR_NOT_CONNECTED;
    }
    int32_t code = client_->ReplPush(epoch, prev_seq, prev_epoch, lines);
    if (code == MR_ABORTED || code == MR_NOT_CONNECTED) {
      authed_ = false;  // the channel died; reconnect and re-auth next round
      return code;
    }
    const std::vector<std::string>& fields = client_->last_fields();
    if (fields.size() >= 2) {
      *applied_seq = static_cast<uint64_t>(ParseInt(fields[0]).value_or(0));
      *peer_epoch = static_cast<uint64_t>(ParseInt(fields[1]).value_or(0));
    }
    return code;
  }

 private:
  bool Ensure() {
    if (!client_->connected()) {
      if (client_->Connect() != MR_SUCCESS) {
        return false;
      }
      authed_ = false;
    }
    if (!authed_) {
      if (client_->Auth("mrrepl-push") != MR_SUCCESS) {
        client_->Disconnect();
        return false;
      }
      authed_ = true;
    }
    return true;
  }

  std::string name_;
  std::unique_ptr<MrClient> client_;
  bool authed_ = false;
};

// One peer as its unauthenticated hello reports it.
struct PeerView {
  std::string name;
  uint64_t applied = 0;
  uint64_t epoch = 0;
  uint64_t tail_epoch = 0;
  bool writable = false;
};

// Hello-probes one peer: nullopt when it is unreachable or its reply is short.
std::optional<PeerView> ProbePeer(const std::string& name,
                                  const MrClient::Connector& connector) {
  MrClient probe(connector);
  if (probe.Connect() != MR_SUCCESS || probe.ReplHello() != MR_SUCCESS) {
    return std::nullopt;
  }
  const std::vector<std::string>& f = probe.last_fields();
  if (f.size() < 3) {
    return std::nullopt;
  }
  PeerView view;
  view.name = name;
  view.applied = static_cast<uint64_t>(ParseInt(f[0]).value_or(0));
  view.epoch = static_cast<uint64_t>(ParseInt(f[1]).value_or(0));
  view.writable = f[2] == "1";
  view.tail_epoch = f.size() >= 4 ? static_cast<uint64_t>(ParseInt(f[3]).value_or(0)) : 0;
  return view;
}

}  // namespace

ReplicaServer::ReplicaServer(KerberosRealm* realm, ReplicaOptions options)
    : options_(std::move(options)), clock_(options_.start_time), realm_(realm) {
  db_ = std::make_unique<Database>(&clock_);
  CreateMoiraSchema(db_.get());
  SeedMoiraDefaults(db_.get());
  mc_ = std::make_unique<MoiraContext>(db_.get());
  server_ = std::make_unique<MoiraServer>(mc_.get(), realm, options_.server_options);
}

ReplicaServer::~ReplicaServer() = default;

void ReplicaServer::SetPrimaryLink(MrClient::Connector connector, std::string principal,
                                   std::string password) {
  // Keep the credentials: adopting a new primary after failover (or pushing
  // as one) re-authenticates with the same identity.
  repl_principal_ = principal;
  repl_password_ = password;
  link_ = std::make_unique<MrClient>(std::move(connector));
  link_->SetKerberosIdentity(realm_, std::move(principal), std::move(password));
  link_authed_ = false;
}

void ReplicaServer::AddPeer(const std::string& name, MrClient::Connector connector) {
  peers_[name] = std::move(connector);
}

bool ReplicaServer::EnsureLink() {
  if (link_ == nullptr) {
    return false;
  }
  if (!link_->connected()) {
    if (link_->Connect() != MR_SUCCESS) {
      return false;
    }
    link_authed_ = false;
  }
  if (!link_authed_) {
    // Auth reuses the cached Kerberos ticket for its lifetime, so a
    // reconnect during a KDC outage still succeeds (the cached-ticket path).
    if (link_->Auth("mrrepl-" + options_.name) != MR_SUCCESS) {
      link_->Disconnect();
      return false;
    }
    link_authed_ = true;
  }
  return true;
}

void ReplicaServer::DropLink() {
  if (link_ != nullptr && link_->connected()) {
    link_->Disconnect();
  }
  link_authed_ = false;
}

void ReplicaServer::DisconnectAll() {
  DropLink();
  server_->SetQuorumPeers({});
  push_peers_.clear();
}

uint64_t ReplicaServer::VoteFloor() const { return std::max(epoch_, voted_epoch_); }

uint64_t ReplicaServer::epoch() const {
  return promoted_ ? server_->journal().epoch() : std::max(epoch_, voted_epoch_);
}

void ReplicaServer::Restart() {
  crashed_ = false;
  // The in-memory state died with the process: everything — including the
  // seeded defaults — comes back via a full snapshot transfer.  epoch_ and
  // voted_epoch_ survive on purpose: they are the one durable bit a correct
  // election needs (cf. Raft's persisted votedFor), keeping a rebooted node
  // from helping elect two primaries in the same epoch.  A primary reboots
  // as a replica; re-promotion takes a fresh election.
  ResetToReplica();
}

void ReplicaServer::StepDown() {
  // This reign is over and its local suffix may contain writes no quorum
  // acknowledged (that is exactly why MR_QUORUM_TIMEOUT is a soft error):
  // condemn the whole local state and resync from the new primary's history.
  ResetToReplica();
  ++stats_.step_downs;
}

void ReplicaServer::ResetToReplica() {
  promoted_ = false;
  push_peers_.clear();
  server_->SetQuorumPeers({});
  db_->ClearAllRows();
  applied_seq_ = 0;
  applied_entry_epoch_ = 0;
  force_snapshot_ = true;
  server_->InvalidateAccessCaches();
  DropLink();
  misses_ = options_.missed_heartbeats;  // probe for the primary at once
}

void ReplicaServer::AdoptPrimary(const std::string& peer_name) {
  auto it = peers_.find(peer_name);
  if (it == peers_.end()) {
    return;
  }
  SetPrimaryLink(it->second, repl_principal_, repl_password_);
  misses_ = 0;
  ++stats_.adoptions;
}

int32_t ReplicaServer::LoadSnapshot() {
  db_->ClearAllRows();
  applied_seq_ = 0;
  bool malformed = false;
  ++stats_.snapshot_loads;
  int32_t code = link_->ReplSnapshot(options_.name, [&](Tuple tuple) {
    if (malformed) {
      return;
    }
    if (tuple.size() != 2) {
      malformed = true;
      return;
    }
    Table* table = db_->GetTable(tuple[0]);
    if (table == nullptr) {
      malformed = true;
      return;
    }
    std::vector<Value> row;
    if (!BackupManager::LineToRow(tuple[1], table->schema(), &row)) {
      malformed = true;
      return;
    }
    table->Append(std::move(row));
  });
  if (code != MR_SUCCESS) {
    DropLink();
    return code;
  }
  if (malformed) {
    return MR_INTERNAL;
  }
  const std::vector<std::string>& fields = link_->last_fields();
  // A snapshot can be the first contact with a node, so the epoch check
  // happens here, on the reply: never bootstrap from a primary older than an
  // epoch we have already seen or voted in.
  if (fields.size() >= 3) {
    uint64_t snapshot_epoch = static_cast<uint64_t>(ParseInt(fields[2]).value_or(0));
    if (snapshot_epoch < VoteFloor()) {
      DropLink();
      return MR_REPL_EPOCH;
    }
    if (snapshot_epoch > epoch_) {
      epoch_ = snapshot_epoch;
    }
  }
  if (fields.size() >= 2) {
    applied_seq_ = static_cast<uint64_t>(ParseInt(fields[0]).value_or(0));
    stats_.last_snapshot_seq = applied_seq_;
    UnixTime primary_now = ParseInt(fields[1]).value_or(0);
    if (primary_now > 0) {
      clock_.Set(primary_now);
    }
  }
  // The epoch of the entry at the snapshot cut is unknown; 0 marks it
  // "trusted, by construction a prefix of the source's log".
  applied_entry_epoch_ = 0;
  force_snapshot_ = false;
  server_->InvalidateAccessCaches();
  return MR_SUCCESS;
}

int32_t ReplicaServer::CatchUp() {
  return CatchUpInternal(UINT64_MAX, INT32_MAX);
}

int32_t ReplicaServer::CatchUpInternal(uint64_t target_seq, int max_batches) {
  if (crashed_) {
    return MR_ABORTED;
  }
  if (link_ == nullptr) {
    return MR_NOT_CONNECTED;
  }
  int applied_this_call = 0;
  for (int batch = 0; batch < max_batches; ++batch) {
    if (!EnsureLink()) {
      return MR_NOT_CONNECTED;
    }
    if (force_snapshot_) {
      if (int32_t code = LoadSnapshot(); code != MR_SUCCESS) {
        return code;
      }
      if (applied_seq_ >= target_seq) {
        return MR_SUCCESS;
      }
      continue;  // resume incremental fetching from snapshot_seq + 1
    }
    std::vector<JournalEntry> entries;
    bool parse_error = false;
    ++stats_.fetch_rounds;
    // The fetch carries the highest epoch we have SEEN (not VoteFloor): a
    // deposed primary is fenced on first contact with any node that lived
    // under its successor, but a failed candidacy — voted_epoch_ raised with
    // no election won anywhere — must not depose a healthy primary when the
    // flapped link heals.  Split-brain safety never rests on this floor; the
    // push and vote paths check the full VoteFloor.
    int32_t code = link_->ReplFetch(
        options_.name, applied_seq_ + 1, kMaxEntriesPerFetch, epoch_,
        [&](Tuple tuple) {
          std::optional<JournalEntry> entry =
              tuple.empty() ? std::nullopt : JournalEntry::FromLine(tuple[0]);
          if (entry.has_value()) {
            entries.push_back(std::move(*entry));
          } else {
            parse_error = true;
          }
        });
    if (code == MR_REPL_TRUNCATED) {
      // The primary pruned its journal past our position; only a full
      // snapshot can resynchronize us.
      force_snapshot_ = true;
      continue;
    }
    if (code != MR_SUCCESS) {
      DropLink();
      return code;
    }
    if (parse_error) {
      return MR_INTERNAL;
    }
    uint64_t primary_seq = 0;
    UnixTime primary_now = 0;
    uint64_t primary_epoch = 0;
    uint64_t prev_epoch = 0;
    const std::vector<std::string>& fields = link_->last_fields();
    if (fields.size() >= 2) {
      primary_seq = static_cast<uint64_t>(ParseInt(fields[0]).value_or(0));
      primary_now = ParseInt(fields[1]).value_or(0);
    }
    if (fields.size() >= 3) {
      primary_epoch = static_cast<uint64_t>(ParseInt(fields[2]).value_or(0));
      if (primary_epoch > epoch_) {
        epoch_ = primary_epoch;
      }
    }
    if (fields.size() >= 4) {
      prev_epoch = static_cast<uint64_t>(ParseInt(fields[3]).value_or(0));
    }
    const uint64_t position = applied_seq_;
    const size_t max_apply = apply_limit_ > 0
                                 ? static_cast<size_t>(apply_limit_ - applied_this_call)
                                 : SIZE_MAX;
    const int32_t accepted =
        AcceptWindow(primary_epoch, position, prev_epoch, primary_seq, entries, max_apply);
    if (force_snapshot_) {
      continue;  // condemned: only a snapshot resync cures a diverged prefix
    }
    applied_this_call += static_cast<int>(applied_seq_ - position);
    // Applying rewound our clock to each entry's original time; step back to
    // the primary's present so client authenticators stay within skew.
    if (primary_now > clock_.Now()) {
      clock_.Set(primary_now);
    }
    if (accepted == MR_MORE_DATA) {
      return MR_MORE_DATA;  // injected slow apply: stop with work outstanding
    }
    if (accepted != MR_SUCCESS) {
      return MR_INTERNAL;  // a gap in the primary's log
    }
    if (applied_seq_ >= target_seq && target_seq != UINT64_MAX) {
      return MR_SUCCESS;  // a token read needs no directory-freshness fetch
    }
    if (applied_seq_ >= primary_seq) {
      if (entries.empty()) {
        return MR_SUCCESS;
      }
      // One more (empty) fetch so the primary's replica directory records our
      // final position before this catch-up reports success.
      continue;
    }
    if (entries.empty()) {
      return MR_INTERNAL;  // behind but the primary sent nothing: a gap
    }
  }
  return applied_seq_ >= target_seq ? MR_SUCCESS : MR_MORE_DATA;
}

int32_t ReplicaServer::AcceptWindow(uint64_t epoch, uint64_t prev_seq, uint64_t prev_epoch,
                                    uint64_t source_last_seq,
                                    const std::vector<JournalEntry>& entries,
                                    size_t max_apply) {
  // Divergence checks (DESIGN.md "Shipping and deterministic apply"): our
  // applied prefix must be a prefix of the sender's log.  Any mismatch means
  // our tail came from a dead reign that the elected history replaced — the
  // only cure is a snapshot resync, and until then we count toward no quorum.
  auto condemn = [this] {
    ++stats_.divergence_resyncs;
    force_snapshot_ = true;
    return MR_REPL_BEHIND;
  };
  const bool tail_known = applied_entry_epoch_ != 0;
  if (prev_seq == applied_seq_ && prev_epoch != 0 && tail_known &&
      prev_epoch != applied_entry_epoch_) {
    return condemn();
  }
  if (source_last_seq < applied_seq_ && tail_known && epoch > applied_entry_epoch_) {
    return condemn();  // a newer log ends below our position: our suffix is dead
  }
  for (const JournalEntry& entry : entries) {
    if (entry.seq == applied_seq_ && entry.epoch != 0 && tail_known &&
        entry.epoch != applied_entry_epoch_) {
      return condemn();
    }
  }
  if (prev_seq > applied_seq_) {
    return MR_REPL_BEHIND;  // starts past our position; the sender re-sends from it
  }
  int32_t code = MR_SUCCESS;
  size_t applied = 0;
  for (const JournalEntry& entry : entries) {
    if (entry.seq <= applied_seq_) {
      continue;  // redelivery (a re-push after a lost reply)
    }
    if (entry.seq != applied_seq_ + 1) {
      code = MR_REPL_BEHIND;  // a gap: the sender re-sends from our position
      break;
    }
    if (applied == max_apply) {
      code = MR_MORE_DATA;
      break;
    }
    // Replay with the entry's original timestamp, principal, and client so
    // modtime/modby/modwith stamps — and therefore full dumps — are
    // byte-identical to the primary's.
    if (BackupManager::ReplayEntry(mc_.get(), entry, &clock_) == MR_SUCCESS) {
      ++stats_.entries_applied;
    } else {
      ++stats_.apply_failures;
    }
    applied_seq_ = entry.seq;
    applied_entry_epoch_ = entry.epoch;
    epoch_ = std::max(epoch_, entry.epoch);
    // Tag dedup must survive failover: record it on the embedded server so a
    // client replaying the tag after this node's promotion is acknowledged
    // with the original seq instead of double-applying.
    server_->RecordAppliedTag(entry.tag, entry.seq);
    ++applied;
  }
  if (applied > 0) {
    server_->InvalidateAccessCaches();
  }
  return code;
}

MoiraServer* ReplicaServer::Promote() {
  // Operator-driven failover keeps the historical entry point; the epoch
  // still advances so the deposed primary is fenced on first contact.
  return PromoteWithEpoch(VoteFloor() + 1);
}

MoiraServer* ReplicaServer::PromoteWithEpoch(uint64_t epoch) {
  promoted_ = true;
  if (epoch > epoch_) {
    epoch_ = epoch;
  }
  // A primary pulls from nobody.  Dropping the link matters after a crash:
  // a restarted ex-primary with a live link would happily "catch up" from a
  // stale source instead of probing for the reign that replaced it.
  link_.reset();
  link_authed_ = false;
  server_->UnfenceAt(epoch_);
  // Post-failover mutations extend the old primary's sequence, so surviving
  // replicas (and routing clients' tokens) stay meaningful.  RebaseTo also
  // discards any stale entries left from an earlier reign of this node.
  server_->journal().RebaseTo(applied_seq_ + 1);
  // Every registered peer becomes a quorum push target: post-failover writes
  // are quorum-acknowledged exactly like the old primary's were.
  push_peers_.clear();
  std::vector<QuorumPeer*> raw;
  for (const auto& [peer_name, connector] : peers_) {
    push_peers_.push_back(std::make_unique<WirePushPeer>(
        peer_name, connector, realm_, repl_principal_, repl_password_));
    raw.push_back(push_peers_.back().get());
  }
  server_->SetQuorumPeers(std::move(raw));
  server_->InvalidateAccessCaches();
  misses_ = 0;
  return server_.get();
}

ReplicaServer::HeartbeatEvent ReplicaServer::HeartbeatTick() {
  if (crashed_) {
    return HeartbeatEvent::kCrashed;
  }
  if (promoted_) {
    if (server_->fenced()) {
      // A successor exists; a fenced primary that stayed up rejoins as a
      // replica rather than refusing writes forever.
      StepDown();
      return HeartbeatEvent::kSteppedDown;
    }
    // An idle primary is only fenced when one of its own pushes meets a node
    // that outlived it — which never happens without writes.  Probe the
    // peers so a deposed primary that sat out a partition discovers the
    // successor reign promptly; only a WRITABLE peer at a higher epoch
    // proves a new reign exists (a raised vote floor alone might be a failed
    // candidacy, and stepping down on that would sacrifice the one live
    // primary).
    for (const auto& [peer_name, connector] : peers_) {
      std::optional<PeerView> view = ProbePeer(peer_name, connector);
      if (view.has_value() && view->writable && view->epoch > server_->journal().epoch()) {
        server_->Fence(view->epoch);
        StepDown();
        return HeartbeatEvent::kSteppedDown;
      }
    }
    return HeartbeatEvent::kPrimaryRole;
  }
  // 1. Heartbeat: one bounded catch-up batch against the primary link.
  // Contact (even partial progress) is a heartbeat; transport failure or a
  // fenced/stale primary is a miss.
  if (link_ != nullptr) {
    int32_t code = CatchUpInternal(UINT64_MAX, 1);
    if (code == MR_SUCCESS || code == MR_MORE_DATA) {
      misses_ = 0;
      return HeartbeatEvent::kOk;
    }
  }
  ++misses_;
  ++stats_.heartbeat_misses;
  if (link_ != nullptr && misses_ < options_.missed_heartbeats) {
    return HeartbeatEvent::kMiss;
  }
  if (peers_.empty()) {
    return HeartbeatEvent::kMiss;  // nobody to fail over with
  }
  // 2. Probe every peer with the unauthenticated hello: who is reachable,
  // how far along is their log, and is one of them already primary?
  std::vector<PeerView> views;
  for (const auto& [peer_name, connector] : peers_) {
    if (std::optional<PeerView> view = ProbePeer(peer_name, connector)) {
      views.push_back(std::move(*view));
    }
  }
  // 2a. Someone is already primary at an acceptable epoch: adopt it (this
  // also heals a plain link flap, where the old primary is alive and well).
  const PeerView* best_primary = nullptr;
  for (const PeerView& v : views) {
    if (v.writable && v.epoch >= VoteFloor() &&
        (best_primary == nullptr || v.epoch > best_primary->epoch)) {
      best_primary = &v;
    }
  }
  if (best_primary != nullptr) {
    AdoptPrimary(best_primary->name);
    return HeartbeatEvent::kAdopted;
  }
  // 2b. Candidacy self-check: stand only with the best log among reachable
  // peers — compare (tail_epoch, applied_seq), name as the deterministic
  // tie-break — so at most one node starts an election per round.
  for (const PeerView& v : views) {
    if (std::make_pair(v.tail_epoch, v.applied) >
            std::make_pair(TailEpoch(), applied_seq_) ||
        (v.tail_epoch == TailEpoch() && v.applied == applied_seq_ &&
         v.name < options_.name)) {
      return HeartbeatEvent::kDeferred;
    }
  }
  // 3. Stand for election one epoch past everything seen or reported — in
  // two phases.  The pre-vote round binds nobody: only once a majority says
  // it WOULD grant does the candidate raise its own floor and collect real
  // votes.  Without this, a node on the wrong side of an asymmetric
  // partition inflates voted_epoch_ with every hopeless candidacy and
  // fences the healthy primary the moment its link heals.
  uint64_t election_epoch = VoteFloor();
  for (const PeerView& v : views) {
    election_epoch = std::max(election_epoch, v.epoch);
  }
  ++election_epoch;
  ++stats_.elections_started;
  const int cluster = static_cast<int>(peers_.size()) + 1;
  const int needed = cluster / 2 + 1;  // strict majority
  auto solicit = [&](bool pre) {
    int votes = 1;  // self
    for (const PeerView& v : views) {
      if (v.writable) {
        continue;  // a primary never grants votes
      }
      MrClient voter(peers_[v.name]);
      if (voter.Connect() != MR_SUCCESS) {
        continue;
      }
      if (voter.ReplVote(election_epoch, applied_seq_, TailEpoch(), options_.name,
                         pre) != MR_SUCCESS) {
        continue;
      }
      const std::vector<std::string>& f = voter.last_fields();
      if (!f.empty() && f[0] == "1") {
        ++votes;
      }
    }
    return votes;
  };
  if (solicit(/*pre=*/true) < needed) {
    return HeartbeatEvent::kElectionLost;
  }
  voted_epoch_ = election_epoch;  // vote for self, binding from here on
  if (solicit(/*pre=*/false) >= needed) {
    PromoteWithEpoch(election_epoch);
    ++stats_.promotions;
    return HeartbeatEvent::kPromoted;
  }
  return HeartbeatEvent::kElectionLost;
}

std::string ReplicaServer::HandleReplPush(uint64_t conn_id, const MrRequest& request) {
  if (request.args.size() < 3) {
    return SingleReply(MR_ARGS);
  }
  // Same capability as journal streaming: applying pushed entries is the
  // write half of the replication stream.
  if (int32_t code = server_->CheckConnPrivilege(conn_id, "get_replica_status");
      code != MR_SUCCESS) {
    return SingleReply(code);
  }
  std::optional<int64_t> push_epoch = ParseInt(request.args[0]);
  std::optional<int64_t> prev_seq = ParseInt(request.args[1]);
  std::optional<int64_t> prev_epoch = ParseInt(request.args[2]);
  if (!push_epoch.has_value() || *push_epoch < 1 || !prev_seq.has_value() ||
      *prev_seq < 0 || !prev_epoch.has_value() || *prev_epoch < 0) {
    return SingleReply(MR_ARGS);
  }
  const uint64_t epoch = static_cast<uint64_t>(*push_epoch);
  auto reply = [&](int32_t code, uint64_t applied) {
    return EncodeReply(MrReply{kMrProtocolVersion, code,
                               {std::to_string(applied), std::to_string(VoteFloor())}});
  };
  if (epoch < VoteFloor()) {
    ++stats_.fence_refusals;
    return reply(MR_REPL_EPOCH, applied_seq_);
  }
  if (epoch > epoch_) {
    epoch_ = epoch;
  }
  if (force_snapshot_) {
    // Mid-resync: nothing may be applied onto a condemned state.  Reporting
    // position 0 keeps the pusher from counting us toward its quorum until
    // the pull path has re-bootstrapped us.
    return reply(MR_REPL_BEHIND, 0);
  }
  std::vector<JournalEntry> entries;
  for (size_t i = 3; i < request.args.size(); ++i) {
    std::optional<JournalEntry> entry = JournalEntry::FromLine(request.args[i]);
    if (!entry.has_value()) {
      return SingleReply(MR_INTERNAL);
    }
    entries.push_back(std::move(*entry));
  }
  // An armed torn push applies only half its window and then the connection
  // dies mid-reply — the pusher must treat the batch as unacknowledged and
  // converge by re-pushing.
  const bool torn = torn_push_armed_ && !entries.empty();
  if (torn) {
    torn_push_armed_ = false;
  }
  const uint64_t window_top = entries.empty() ? static_cast<uint64_t>(*prev_seq)
                                              : entries.back().seq;
  const UnixTime before = clock_.Now();
  const uint64_t position = applied_seq_;
  const int32_t code = AcceptWindow(epoch, static_cast<uint64_t>(*prev_seq),
                                    static_cast<uint64_t>(*prev_epoch), window_top, entries,
                                    torn ? entries.size() / 2 : SIZE_MAX);
  if (before > clock_.Now()) {
    clock_.Set(before);  // applying never rewinds our present
  }
  if (applied_seq_ != position) {
    ++stats_.push_batches;
  }
  if (torn) {
    return std::string();  // the connection died before the reply
  }
  // A condemned replica reports position 0, like one mid-resync.
  return reply(code, force_snapshot_ ? 0 : applied_seq_);
}

std::string ReplicaServer::HandleReplVote(const MrRequest& request) {
  // Unauthenticated by design, like the hello probe: failover liveness must
  // not depend on the KDC, and a vote grant is fenced by epoch monotonicity.
  if (request.args.size() < 4) {
    return SingleReply(MR_ARGS);
  }
  std::optional<int64_t> vote_epoch = ParseInt(request.args[0]);
  std::optional<int64_t> cand_applied = ParseInt(request.args[1]);
  std::optional<int64_t> cand_tail = ParseInt(request.args[2]);
  if (!vote_epoch.has_value() || *vote_epoch < 1 || !cand_applied.has_value() ||
      *cand_applied < 0 || !cand_tail.has_value() || *cand_tail < 0) {
    return SingleReply(MR_ARGS);
  }
  const uint64_t epoch = static_cast<uint64_t>(*vote_epoch);
  // A 5th argument marks a pre-vote: answer whether we WOULD grant, without
  // recording anything (Raft pre-vote) — the candidate only stands for real
  // once a majority says yes, so a partitioned node's hopeless candidacies
  // never inflate any epoch floor.
  const bool pre = request.args.size() >= 5 && request.args[4] == "pre";
  bool granted = false;
  // Grant iff (a) the epoch is new to us, (b) the candidate's log is at
  // least as complete as ours — (tail_epoch, applied_seq) lexicographically,
  // the Raft log-comparison rule, which guarantees every quorum-acked write
  // survives into the new reign — and (c) leader stickiness: we have missed
  // at least one heartbeat ourselves, so a candidate with a broken link
  // cannot depose a primary the rest of the cluster still sees.
  if (epoch > VoteFloor() &&
      std::make_pair(static_cast<uint64_t>(*cand_tail),
                     static_cast<uint64_t>(*cand_applied)) >=
          std::make_pair(TailEpoch(), applied_seq_) &&
      (misses_ >= 1 || link_ == nullptr)) {
    granted = true;
    if (!pre) {
      voted_epoch_ = epoch;
      ++stats_.votes_granted;
    }
  } else if (epoch <= VoteFloor() && !pre) {
    ++stats_.fence_refusals;
  }
  return EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS,
                             {granted ? "1" : "0", std::to_string(VoteFloor())}});
}

std::string ReplicaServer::OnMessage(uint64_t conn_id, std::string_view payload) {
  if (crashed_) {
    // A crashed replica answers nothing; the client's Recv sees a dead
    // connection (MR_ABORTED) and its router tries the next replica.
    return std::string();
  }
  std::optional<MrRequest> request = DecodeRequest(payload);
  if (!request.has_value() || request->version != kMrProtocolVersion) {
    return server_->OnMessage(conn_id, payload);  // let the server report it
  }
  const QueryRegistry& registry = QueryRegistry::Instance();
  switch (request->major) {
    case MajorRequest::kQuery: {
      if (!promoted_ && !request->args.empty()) {
        const QueryDef* def = registry.Find(request->args[0]);
        if (def != nullptr && def->qclass != QueryClass::kRetrieve) {
          return SingleReply(MR_REPL_READONLY);
        }
      }
      return server_->OnMessage(conn_id, payload);
    }
    case MajorRequest::kQueryTagged: {
      if (!promoted_) {
        // Tagged writes are a primary-only operation; the router redirects.
        return SingleReply(MR_REPL_READONLY);
      }
      return server_->OnMessage(conn_id, payload);
    }
    case MajorRequest::kReplPush: {
      if (promoted_) {
        // The embedded server fences the stale pusher (or is fenced by it).
        return server_->OnMessage(conn_id, payload);
      }
      return HandleReplPush(conn_id, *request);
    }
    case MajorRequest::kReplHello: {
      if (promoted_) {
        return server_->OnMessage(conn_id, payload);
      }
      return EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS,
                                 {std::to_string(applied_seq_),
                                  std::to_string(VoteFloor()), "0",
                                  std::to_string(TailEpoch())}});
    }
    case MajorRequest::kReplVote: {
      if (promoted_) {
        return server_->OnMessage(conn_id, payload);  // primaries never grant
      }
      return HandleReplVote(*request);
    }
    case MajorRequest::kQueryAtSeq: {
      if (request->args.size() < 2) {
        return SingleReply(MR_ARGS);
      }
      std::optional<int64_t> token = ParseInt(request->args[0]);
      if (!token.has_value() || *token < 0) {
        return SingleReply(MR_ARGS);
      }
      if (!promoted_) {
        const QueryDef* def = registry.Find(request->args[1]);
        if (def != nullptr && def->qclass != QueryClass::kRetrieve) {
          return SingleReply(MR_REPL_READONLY);
        }
        uint64_t want = static_cast<uint64_t>(*token);
        if (want > applied_seq_) {
          // Behind the caller's token: wait briefly (a bounded on-demand
          // pull) before giving up and redirecting them to the primary.
          if (link_ != nullptr) {
            ++stats_.read_catch_ups;
            CatchUpInternal(want, kReadCatchUpBatches);
          }
          if (want > applied_seq_) {
            ++stats_.reads_behind;
            return SingleReply(MR_REPL_BEHIND);
          }
        }
      }
      ++stats_.reads_served;
      // The embedded server strips the (now satisfied) token and serves.
      return server_->OnMessage(conn_id, payload);
    }
    default:
      return server_->OnMessage(conn_id, payload);
  }
}

void ReplicaServer::OnConnect(uint64_t conn_id, std::string peer) {
  server_->OnConnect(conn_id, std::move(peer));
}

void ReplicaServer::OnDisconnect(uint64_t conn_id) {
  server_->OnDisconnect(conn_id);
}

ReplicaServer* ChooseFailoverCandidate(const std::vector<ReplicaServer*>& replicas) {
  ReplicaServer* best = nullptr;
  for (ReplicaServer* replica : replicas) {
    if (replica == nullptr || replica->crashed() || replica->promoted()) {
      continue;
    }
    if (best == nullptr || replica->applied_seq() > best->applied_seq() ||
        (replica->applied_seq() == best->applied_seq() &&
         replica->name() < best->name())) {
      best = replica;
    }
  }
  return best;
}

}  // namespace moira
