#include "src/server/server.h"

#include <filesystem>
#include <fstream>

#include "src/comerr/moira_errors.h"
#include "src/common/strutil.h"

namespace moira {
namespace {

std::string SingleReply(int32_t code) {
  return EncodeReply(MrReply{kMrProtocolVersion, code, {}});
}

// One snapshot row, serialized exactly like a backup line (minus the trailing
// newline, which the wire tuple does not need).
std::string SnapshotRowField(const Row& row) {
  std::string line;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) {
      line += ':';
    }
    line += JournalEscape(row[i].ToString());
  }
  return line;
}

// Burns deterministic work to model the cost athenareg paid forking an
// Ingres backend for every client connection.
void SimulateBackendSpawn(int iterations) {
  volatile uint64_t sink = 0;
  for (int i = 0; i < iterations; ++i) {
    sink = sink * 6364136223846793005ull + 1442695040888963407ull;
  }
}

}  // namespace

MoiraServer::MoiraServer(MoiraContext* mc, KerberosRealm* realm, ServerOptions options)
    : mc_(mc),
      verifier_(kMoiraServiceName, realm->RegisterService(kMoiraServiceName),
                &mc->db().clock()),
      options_(options) {
  RegisterMoiraErrorTable();
}

void MoiraServer::OnConnect(uint64_t conn_id, std::string peer) {
  ConnState conn;
  conn.peer = std::move(peer);
  conn.connect_time = mc_->Now();
  conn.client_number = next_client_number_++;
  connections_.emplace(conn_id, std::move(conn));
  if (options_.simulated_backend_spawn_cost > 0) {
    SimulateBackendSpawn(options_.simulated_backend_spawn_cost);
  }
}

void MoiraServer::OnDisconnect(uint64_t conn_id) { connections_.erase(conn_id); }

MoiraServer::AccessPathStats MoiraServer::access_path_stats() const {
  AccessPathStats out;
  const Database& db = mc_->db();
  for (const std::string& name : db.TableNames()) {
    const TableStats& stats = db.GetTable(name)->stats();
    out.index_hits += stats.index_hits;
    out.prefix_scans += stats.prefix_scans;
    out.range_scans += stats.range_scans;
    out.full_scans += stats.full_scans;
    out.rows_examined += stats.rows_examined;
    out.rows_emitted += stats.rows_emitted;
    out.join_reorders += stats.join_reorders;
    out.probe_cache_hits += stats.probe_cache_hits;
  }
  const ListClosureStats& closure = mc_->closure_stats();
  out.closure_cache_hits += closure.hits;
  out.closure_cache_misses += closure.misses;
  return out;
}

std::string MoiraServer::OnMessage(uint64_t conn_id, std::string_view payload) {
  ++stats_.requests;
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    // Transport delivered a message for an unknown connection.
    return SingleReply(MR_INTERNAL);
  }
  std::optional<MrRequest> request = DecodeRequest(payload);
  if (!request.has_value()) {
    return SingleReply(MR_ABORTED);
  }
  // Version skew is reported cleanly (paper section 5.3).
  if (request->version != kMrProtocolVersion) {
    return SingleReply(request->version > kMrProtocolVersion ? MR_VERSION_HIGH
                                                             : MR_VERSION_LOW);
  }
  return HandleRequest(it->second, *request);
}

std::string MoiraServer::HandleRequest(ConnState& conn, const MrRequest& request) {
  switch (request.major) {
    case MajorRequest::kNoop:
      return SingleReply(MR_SUCCESS);
    case MajorRequest::kAuthenticate:
      return HandleAuth(conn, request);
    case MajorRequest::kQuery:
      return HandleQuery(conn, request);
    case MajorRequest::kAccess:
      return HandleAccess(conn, request);
    case MajorRequest::kTriggerDcm: {
      int32_t code = CachedAccessCheck(conn, "trigger_dcm", {});
      if (code == MR_SUCCESS && dcm_trigger_) {
        dcm_trigger_();
      }
      return SingleReply(code);
    }
    case MajorRequest::kReplFetch:
      return HandleReplFetch(conn, request);
    case MajorRequest::kReplSnapshot:
      return HandleReplSnapshot(conn, request);
    case MajorRequest::kReplPush:
      return HandleReplPush(conn, request);
    case MajorRequest::kReplHello:
      return HandleReplHello();
    case MajorRequest::kReplVote: {
      // A primary never grants votes; its liveness is the reply.  The refusal
      // carries our epoch so a candidate can pick a higher one next time.
      MrReply reply{kMrProtocolVersion, MR_SUCCESS,
                    {"0", std::to_string(journal_.epoch())}};
      return EncodeReply(reply);
    }
    case MajorRequest::kQueryTagged:
      return HandleQueryTagged(conn, request);
    case MajorRequest::kQueryAtSeq: {
      // The primary is authoritative: every sequence number it ever issued is
      // already applied here, so the token is trivially satisfied — strip it
      // and serve the query.  (ReplicaServer intercepts this major request
      // and enforces the token against its own applied_seq.)
      if (request.args.size() < 2 || !ParseInt(request.args[0]).has_value()) {
        return SingleReply(MR_ARGS);
      }
      MrRequest inner{request.version, MajorRequest::kQuery,
                      {request.args.begin() + 1, request.args.end()}};
      return HandleQuery(conn, inner);
    }
  }
  return SingleReply(MR_UNKNOWN_PROC);
}

std::string MoiraServer::HandleAuth(ConnState& conn, const MrRequest& request) {
  if (request.args.empty() || request.args.size() > 2) {
    return SingleReply(MR_ARGS);
  }
  VerifiedIdentity identity;
  int32_t code = verifier_.Verify(request.args[0], &identity);
  if (code != MR_SUCCESS) {
    ++stats_.auth_failures;
    return SingleReply(code);
  }
  ++stats_.auth_successes;
  conn.principal = identity.principal;
  if (request.args.size() == 2) {
    conn.client_name = request.args[1];
  }
  // Identity changed: cached access decisions no longer apply.
  conn.access_cache.Clear();
  return SingleReply(MR_SUCCESS);
}

std::string MoiraServer::HandleListUsers(const MrRequest& request) {
  (void)request;
  std::string out;
  for (const auto& [conn_id, conn] : connections_) {
    MrReply tuple{kMrProtocolVersion, MR_MORE_DATA,
                  {conn.principal.empty() ? "(unauthenticated)" : conn.principal, conn.peer,
                   std::to_string(conn.connect_time), std::to_string(conn.client_number)}};
    out += EncodeReply(tuple);
  }
  out += EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS, {}});
  return out;
}

std::string MoiraServer::HandleQuery(ConnState& conn, const MrRequest& request,
                                     const std::string& tag) {
  if (request.args.empty()) {
    return SingleReply(MR_ARGS);
  }
  ++stats_.queries;
  const std::string& name = request.args[0];
  // _list_users is answered from server connection state, not the database
  // (paper section 7.0.8).
  if (name == "_list_users" || name == "lusr") {
    return HandleListUsers(request);
  }
  // get_replica_status is likewise answered from server state: the replica
  // directory fed by kReplFetch/kReplSnapshot requests.
  if (name == "get_replica_status" || name == "grst") {
    return HandleReplicaStatus(conn);
  }
  const QueryRegistry& registry = QueryRegistry::Instance();
  const QueryDef* def = registry.Find(name);
  const bool is_mutation = def != nullptr && def->qclass != QueryClass::kRetrieve;
  if (is_mutation && fenced_) {
    // A newer primary was elected; accepting this change would fork history.
    ++quorum_stats_.fence_refusals;
    return SingleReply(MR_REPL_EPOCH);
  }
  std::vector<std::string> args(request.args.begin() + 1, request.args.end());
  std::string out;
  TupleSink emit = [&out](Tuple tuple) {
    out += EncodeReply(MrReply{kMrProtocolVersion, MR_MORE_DATA, std::move(tuple)});
  };
  int32_t code = registry.Execute(*mc_, conn.principal, conn.client_name, name, args, emit);
  std::vector<std::string> final_fields;
  if (code == MR_SUCCESS && is_mutation) {
    // Successful change: journal it (with the assigned sequence number
    // reported back so routing clients can carry a read-your-writes token)
    // and invalidate caches.  The entry is durable locally before the quorum
    // gate runs, so MR_QUORUM_TIMEOUT means "outcome unknown", never "lost".
    JournalEntry entry{0, mc_->Now(), conn.principal, conn.client_name,
                       std::string(def->name), args};
    entry.tag = tag;
    uint64_t seq = journal_.Append(std::move(entry));
    final_fields.push_back(std::to_string(seq));
    ++mutation_epoch_;
    RecordAppliedTag(tag, seq);
    code = QuorumGate(seq);
  }
  out += EncodeReply(MrReply{kMrProtocolVersion, code, std::move(final_fields)});
  return out;
}

std::string MoiraServer::HandleQueryTagged(ConnState& conn, const MrRequest& request) {
  if (request.args.size() < 2) {
    return SingleReply(MR_ARGS);
  }
  const std::string& tag = request.args[0];
  if (!tag.empty()) {
    if (auto it = applied_tags_.find(tag); it != applied_tags_.end()) {
      // Replay of an already-applied mutation (a retry after an ambiguous
      // outcome, possibly against a newly promoted primary): acknowledge the
      // original seq instead of re-executing — but only once quorum holds it,
      // so a replay cannot launder an under-replicated write into an ack.
      ++quorum_stats_.tag_hits;
      int32_t code = fenced_ ? MR_REPL_EPOCH : QuorumGate(it->second);
      return EncodeReply(MrReply{kMrProtocolVersion, code,
                                 {std::to_string(it->second)}});
    }
  }
  MrRequest inner{request.version, MajorRequest::kQuery,
                  {request.args.begin() + 1, request.args.end()}};
  return HandleQuery(conn, inner, tag);
}

std::string MoiraServer::HandleReplicaStatus(ConnState& conn) {
  if (int32_t code = CachedAccessCheck(conn, "get_replica_status", {});
      code != MR_SUCCESS) {
    return SingleReply(code);
  }
  const uint64_t primary_seq = journal_.last_seq();
  std::string out;
  for (const auto& [name, info] : replicas_) {
    uint64_t lag = primary_seq > info.applied_seq ? primary_seq - info.applied_seq : 0;
    MrReply tuple{kMrProtocolVersion, MR_MORE_DATA,
                  {name, std::to_string(info.applied_seq), std::to_string(primary_seq),
                   std::to_string(lag), std::to_string(info.last_contact),
                   std::to_string(journal_.epoch())}};
    out += EncodeReply(tuple);
  }
  out += EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS, {}});
  return out;
}

std::string MoiraServer::HandleReplFetch(ConnState& conn, const MrRequest& request) {
  // Streaming the journal reveals every change in the database; gate it on
  // the same capability as the replica-status query.
  if (int32_t code = CachedAccessCheck(conn, "get_replica_status", {});
      code != MR_SUCCESS) {
    return SingleReply(code);
  }
  if (request.args.size() != 3 && request.args.size() != 4) {
    return SingleReply(MR_ARGS);
  }
  std::optional<int64_t> from_seq = ParseInt(request.args[1]);
  std::optional<int64_t> max_entries = ParseInt(request.args[2]);
  if (!from_seq.has_value() || *from_seq < 1 || !max_entries.has_value() ||
      *max_entries < 1) {
    return SingleReply(MR_ARGS);
  }
  // The optional 4th argument is the replica's epoch floor: a replica that
  // has seen a newer primary fences this one on contact.
  if (request.args.size() == 4) {
    std::optional<int64_t> replica_epoch = ParseInt(request.args[3]);
    if (!replica_epoch.has_value() || *replica_epoch < 0) {
      return SingleReply(MR_ARGS);
    }
    if (static_cast<uint64_t>(*replica_epoch) > journal_.epoch()) {
      Fence(static_cast<uint64_t>(*replica_epoch));
    }
  }
  if (fenced_) {
    ++quorum_stats_.fence_refusals;
    return SingleReply(MR_REPL_EPOCH);
  }
  ReplicaInfo& info = replicas_[request.args[0]];
  info.applied_seq = static_cast<uint64_t>(*from_seq) - 1;
  info.last_contact = mc_->Now();
  ++info.fetches;
  if (static_cast<uint64_t>(*from_seq) <= journal_.base_seq()) {
    // The requested range predates the retained log (pruned after a backup);
    // the replica must fall back to a snapshot transfer.
    return SingleReply(MR_REPL_TRUNCATED);
  }
  std::string out;
  for (const JournalEntry& entry : journal_.EntriesFromSeq(
           static_cast<uint64_t>(*from_seq), static_cast<size_t>(*max_entries))) {
    out += EncodeReply(MrReply{kMrProtocolVersion, MR_MORE_DATA, {entry.ToLine()}});
  }
  // prev_epoch: epoch of our entry just before the requested range, so the
  // replica can verify its applied prefix is a prefix of this log (0 =
  // start of history or truncated away — the replica skips the check).
  uint64_t prev_epoch = 0;
  if (*from_seq > 1) {
    std::vector<JournalEntry> prev =
        journal_.EntriesFromSeq(static_cast<uint64_t>(*from_seq) - 1, 1);
    if (!prev.empty() && prev[0].seq == static_cast<uint64_t>(*from_seq) - 1) {
      prev_epoch = prev[0].epoch;
    }
  }
  out += EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS,
                             {std::to_string(journal_.last_seq()),
                              std::to_string(mc_->Now()),
                              std::to_string(journal_.epoch()),
                              std::to_string(prev_epoch)}});
  return out;
}

std::string MoiraServer::HandleReplSnapshot(ConnState& conn, const MrRequest& request) {
  if (int32_t code = CachedAccessCheck(conn, "get_replica_status", {});
      code != MR_SUCCESS) {
    return SingleReply(code);
  }
  if (request.args.size() != 1) {
    return SingleReply(MR_ARGS);
  }
  if (fenced_) {
    // A deposed primary must not seed replicas: its tables may hold a dead
    // reign's unreplicated suffix.
    ++quorum_stats_.fence_refusals;
    return SingleReply(MR_REPL_EPOCH);
  }
  ReplicaInfo& info = replicas_[request.args[0]];
  info.last_contact = mc_->Now();
  ++info.snapshots;
  const Database& db = mc_->db();
  // Checkpoint+tail bootstrap: with a data directory configured, stream the
  // newest on-disk checkpoint (its table files are exactly the snapshot wire
  // format) cut at its stamped seq; the replica replays the journal tail from
  // there.  The checkpoint must not predate the retained log, or the replica's
  // follow-up fetch would come back MR_REPL_TRUNCATED and loop forever —
  // fall back to a live dump in that (operator-error) case, and when no
  // checkpoint exists yet.
  if (!options_.data_dir.empty()) {
    std::vector<CheckpointRef> checkpoints = ListCheckpoints(options_.data_dir);
    if (!checkpoints.empty() && checkpoints.back().seq >= journal_.base_seq()) {
      const CheckpointRef& checkpoint = checkpoints.back();
      std::string out;
      bool ok = true;
      for (const std::string& table_name : db.TableNames()) {
        std::ifstream in(std::filesystem::path(checkpoint.path) / table_name,
                         std::ios::binary);
        if (!in) {
          continue;  // a missing file is an empty relation, as in Restore
        }
        std::string line;
        while (std::getline(in, line)) {
          if (line.empty()) {
            continue;
          }
          out += EncodeReply(MrReply{kMrProtocolVersion, MR_MORE_DATA, {table_name, line}});
        }
        if (in.bad()) {
          ok = false;
          break;
        }
      }
      if (ok) {
        out += EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS,
                                   {std::to_string(checkpoint.seq),
                                    std::to_string(mc_->Now()),
                                    std::to_string(journal_.epoch())}});
        return out;
      }
    }
  }
  // The live snapshot is cut at the current last_seq: every journalled change
  // is already in the tables being streamed, so the receiving replica resumes
  // fetching from snapshot_seq + 1.
  const uint64_t snapshot_seq = journal_.last_seq();
  std::string out;
  for (const std::string& table_name : db.TableNames()) {
    db.GetTable(table_name)->Scan([&](size_t, const Row& row) {
      out += EncodeReply(MrReply{kMrProtocolVersion, MR_MORE_DATA,
                                 {table_name, SnapshotRowField(row)}});
      return true;
    });
  }
  out += EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS,
                             {std::to_string(snapshot_seq), std::to_string(mc_->Now()),
                              std::to_string(journal_.epoch())}});
  return out;
}

std::string MoiraServer::HandleReplPush(ConnState& conn, const MrRequest& request) {
  // A MoiraServer is always a primary: any push arriving here is from another
  // node that believes itself primary.  Refuse it — and when the pusher's
  // epoch is newer, it won an election we missed, so fence ourselves.
  if (int32_t code = CachedAccessCheck(conn, "get_replica_status", {});
      code != MR_SUCCESS) {
    return SingleReply(code);
  }
  if (request.args.empty()) {
    return SingleReply(MR_ARGS);
  }
  std::optional<int64_t> push_epoch = ParseInt(request.args[0]);
  if (!push_epoch.has_value() || *push_epoch < 1) {
    return SingleReply(MR_ARGS);
  }
  if (static_cast<uint64_t>(*push_epoch) > journal_.epoch()) {
    Fence(static_cast<uint64_t>(*push_epoch));
  }
  ++quorum_stats_.fence_refusals;
  return EncodeReply(MrReply{kMrProtocolVersion, MR_REPL_EPOCH,
                             {std::to_string(journal_.last_seq()),
                              std::to_string(journal_.epoch())}});
}

std::string MoiraServer::HandleReplHello() {
  // Unauthenticated liveness/role probe: reveals only the applied position,
  // epoch, and whether this node accepts writes — what any failed connection
  // attempt would reveal over time anyway.  Heartbeats and primary discovery
  // must work before a client can authenticate against a candidate.
  return EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS,
                             {std::to_string(journal_.last_seq()),
                              std::to_string(journal_.epoch()),
                              fenced_ ? "0" : "1",
                              std::to_string(journal_.epoch())}});
}

void MoiraServer::SetQuorumPeers(std::vector<QuorumPeer*> peers) {
  quorum_peers_ = std::move(peers);
  // Positions recorded under an earlier reign may be stale in either
  // direction; the first push round re-learns them from the replies.
  peer_acked_.clear();
}

int32_t MoiraServer::CheckConnPrivilege(uint64_t conn_id, const std::string& query) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return MR_INTERNAL;
  }
  return CachedAccessCheck(it->second, query, {});
}

void MoiraServer::Fence(uint64_t newer_epoch) {
  if (!fenced_) {
    fenced_ = true;
    if (quorum_alarm_) {
      quorum_alarm_("fenced: epoch " + std::to_string(newer_epoch) +
                    " supersedes " + std::to_string(journal_.epoch()));
    }
  }
}

void MoiraServer::RecordAppliedTag(const std::string& tag, uint64_t seq) {
  if (tag.empty() || options_.idempotency_window == 0) {
    return;
  }
  auto [it, inserted] = applied_tags_.emplace(tag, seq);
  if (!inserted) {
    return;  // first application wins; replays keep acking the original seq
  }
  tag_order_.push_back(tag);
  while (tag_order_.size() > options_.idempotency_window) {
    applied_tags_.erase(tag_order_.front());
    tag_order_.pop_front();
  }
}

int32_t MoiraServer::QuorumGate(uint64_t target_seq) {
  if (quorum_peers_.empty()) {
    return MR_SUCCESS;  // single-server deployment: local durability is the ack
  }
  ++quorum_stats_.quorum_writes;
  const int cluster = options_.cluster_size > 0
                          ? options_.cluster_size
                          : static_cast<int>(quorum_peers_.size()) + 1;
  const int needed =
      options_.write_quorum > 0 ? options_.write_quorum : (cluster + 1) / 2;
  const uint64_t epoch = journal_.epoch();
  const int attempts = options_.quorum_attempts > 0 ? options_.quorum_attempts : 1;
  for (int sweep = 0; sweep < attempts; ++sweep) {
    int acks = 1;  // self: Journal::Append flushed before we got here
    for (QuorumPeer* peer : quorum_peers_) {
      uint64_t& acked = peer_acked_[peer->name()];
      if (acked >= target_seq) {
        ++acks;
        continue;
      }
      if (acked < journal_.base_seq()) {
        // The peer's last known position predates the retained log.  That is
        // routine right after a promotion rebased the journal (positions
        // reset to zero), so probe with an empty window anchored at the base
        // to learn where the peer really is; only a peer genuinely below the
        // base is left to the pull path's snapshot.
        uint64_t probed = 0;
        uint64_t probe_epoch = 0;
        ++quorum_stats_.push_rounds;
        int32_t probe = peer->Push(epoch, journal_.base_seq(), 0, {}, &probed,
                                   &probe_epoch);
        if (probe == MR_REPL_EPOCH) {
          Fence(probe_epoch);
          ++quorum_stats_.fence_refusals;
          return MR_REPL_EPOCH;
        }
        if ((probe != MR_SUCCESS && probe != MR_REPL_BEHIND) ||
            probed < journal_.base_seq()) {
          ++quorum_stats_.push_failures;
          continue;
        }
        acked = probed;
        ReplicaInfo& info = replicas_[peer->name()];
        if (acked > info.applied_seq) {
          info.applied_seq = acked;
        }
        info.last_contact = mc_->Now();
        if (acked >= target_seq) {
          ++acks;
          continue;
        }
      }
      std::vector<std::string> lines;
      for (const JournalEntry& entry : journal_.EntriesFromSeq(acked + 1)) {
        if (entry.seq > target_seq) {
          break;
        }
        lines.push_back(entry.ToLine());
      }
      // The predecessor of the window lets the peer verify its applied prefix
      // really is a prefix of ours (prev_epoch 0 = start of history or
      // truncated away — epoch check skipped).
      uint64_t prev_epoch = 0;
      if (acked > 0) {
        std::vector<JournalEntry> prev = journal_.EntriesFromSeq(acked, 1);
        if (!prev.empty() && prev[0].seq == acked) {
          prev_epoch = prev[0].epoch;
        }
      }
      uint64_t applied = 0;
      uint64_t peer_epoch = 0;
      ++quorum_stats_.push_rounds;
      int32_t code = peer->Push(epoch, acked, prev_epoch, lines, &applied, &peer_epoch);
      if (code == MR_REPL_EPOCH) {
        // The peer has seen a newer primary: we lost an election we did not
        // witness.  Never ack this write — a quorum assembled now could
        // contradict the new primary's history.
        Fence(peer_epoch);
        ++quorum_stats_.fence_refusals;
        return MR_REPL_EPOCH;
      }
      if (code == MR_SUCCESS || code == MR_REPL_BEHIND) {
        if (code == MR_REPL_BEHIND) {
          // The replica's applied prefix is authoritative — it can move
          // backward when a crashed replica restarts empty.
          acked = applied;
        } else if (applied > acked) {
          acked = applied;
        }
        ReplicaInfo& info = replicas_[peer->name()];
        if (acked > info.applied_seq) {
          info.applied_seq = acked;
        }
        info.last_contact = mc_->Now();
        ++info.pushes;
        if (acked >= target_seq) {
          ++acks;
          continue;
        }
      }
      ++quorum_stats_.push_failures;
    }
    if (acks >= needed) {
      ++quorum_stats_.quorum_acks;
      return MR_SUCCESS;
    }
  }
  if (options_.quorum_ack_local) {
    ++quorum_stats_.degraded_acks;
    if (quorum_alarm_) {
      quorum_alarm_("quorum unreachable; acked seq " + std::to_string(target_seq) +
                    " locally");
    }
    return MR_SUCCESS;
  }
  ++quorum_stats_.quorum_timeouts;
  return MR_QUORUM_TIMEOUT;
}

int32_t MoiraServer::CachedAccessCheck(ConnState& conn, const std::string& query,
                                       const std::vector<std::string>& args) {
  ++stats_.access_checks;
  std::string key;
  if (options_.enable_access_cache) {
    key = conn.principal;
    key += '\0';
    key += query;
    for (const std::string& arg : args) {
      key += '\0';
      key += arg;
    }
    if (conn.cache_epoch == mutation_epoch_) {
      if (const int32_t* cached = conn.access_cache.Fetch(key)) {
        ++stats_.access_cache_hits;
        return *cached;
      }
    } else {
      conn.access_cache.Clear();
      conn.cache_epoch = mutation_epoch_;
    }
  }
  int32_t code = QueryRegistry::Instance().CheckAccess(*mc_, conn.principal, query, args);
  if (options_.enable_access_cache) {
    conn.access_cache.Store(key, code);
  }
  return code;
}

std::string MoiraServer::HandleAccess(ConnState& conn, const MrRequest& request) {
  if (request.args.empty()) {
    return SingleReply(MR_ARGS);
  }
  std::vector<std::string> args(request.args.begin() + 1, request.args.end());
  return SingleReply(CachedAccessCheck(conn, request.args[0], args));
}

}  // namespace moira
