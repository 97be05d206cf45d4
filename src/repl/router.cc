#include "src/repl/router.h"

#include <utility>

#include "src/comerr/moira_errors.h"
#include "src/common/strutil.h"

namespace moira {
namespace {

// Server-state queries are answered from the primary's connection and replica
// directories, which replicas do not have.
bool PrimaryOnly(std::string_view name) {
  return name == "_list_users" || name == "lusr" || name == "get_replica_status" ||
         name == "grst";
}

}  // namespace

ReplicatedClient::ReplicatedClient(std::unique_ptr<MrClient> primary)
    : primary_(std::move(primary)) {}

void ReplicatedClient::AddReplica(std::unique_ptr<MrClient> replica) {
  replicas_.push_back(std::move(replica));
}

void ReplicatedClient::SetEndpoints(std::vector<ReplEndpoint> endpoints,
                                    ClientFactory factory, std::string client_name) {
  endpoints_ = std::move(endpoints);
  factory_ = std::move(factory);
  auth_client_name_ = std::move(client_name);
}

void ReplicatedClient::EnableTaggedWrites(std::string tag_prefix) {
  tagged_writes_ = true;
  tag_prefix_ = std::move(tag_prefix);
}

bool ReplicatedClient::IsFailoverError(int32_t code) {
  // MR_QUORUM_TIMEOUT is here on purpose: the write is applied locally but
  // not quorum-acked, so its fate is unknown — the idempotent replay either
  // hits the tag (already applied, possibly now quorum-acked) or re-runs it.
  return code == MR_ABORTED || code == MR_NOT_CONNECTED || code == MR_REPL_EPOCH ||
         code == MR_REPL_READONLY || code == MR_QUORUM_TIMEOUT;
}

void ReplicatedClient::NoteWriteToken() {
  if (primary_->last_fields().empty()) {
    return;
  }
  std::optional<int64_t> seq = ParseInt(primary_->last_fields()[0]);
  if (seq.has_value() && static_cast<uint64_t>(*seq) > token_) {
    token_ = static_cast<uint64_t>(*seq);
  }
}

int32_t ReplicatedClient::TryDrain(const TupleSink& sink, bool replaying) {
  while (!pending_.empty()) {
    const PendingWrite& write = pending_.front();
    const bool newest = pending_.size() == 1;
    int32_t code = primary_->QueryTagged(write.tag, write.name, write.args,
                                         newest ? sink : TupleSink([](Tuple) {}));
    if (IsFailoverError(code)) {
      return code;  // outcome unknown; keep it queued for the replay
    }
    // A definitive verdict — success or a genuine query error — settles the
    // write whether or not it succeeded.
    if (code == MR_SUCCESS) {
      NoteWriteToken();
    }
    if (replaying) {
      ++stats_.replays;
    }
    pending_.erase(pending_.begin());
    if (code != MR_SUCCESS) {
      return code;
    }
  }
  return MR_SUCCESS;
}

int32_t ReplicatedClient::DrainWithFailover(const TupleSink& sink) {
  int32_t code = TryDrain(sink, /*replaying=*/false);
  if (!IsFailoverError(code)) {
    return code;
  }
  // One rediscovery attempt per endpoint: each failed adoption means that
  // node died (or was fenced) after answering the hello, and another sweep
  // may find its successor.  More rounds than endpoints cannot help.
  for (size_t attempt = 0; attempt < endpoints_.size(); ++attempt) {
    if (!RediscoverPrimary()) {
      return code;  // no writable primary anywhere; surface the soft error
    }
    code = TryDrain(sink, /*replaying=*/true);
    if (!IsFailoverError(code)) {
      return code;
    }
  }
  return code;
}

bool ReplicatedClient::RediscoverPrimary() {
  if (endpoints_.empty() || factory_ == nullptr) {
    return false;
  }
  // Hello sweep: adopt the writable node with the highest epoch (ties by
  // applied seq) — the same rule the replicas' own adoption logic uses, so
  // the router and the cluster converge on the same primary.
  int best = -1;
  uint64_t best_epoch = 0;
  uint64_t best_applied = 0;
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    std::unique_ptr<MrClient> probe = factory_(endpoints_[i]);
    if (probe == nullptr || probe->Connect() != MR_SUCCESS ||
        probe->ReplHello() != MR_SUCCESS) {
      continue;
    }
    const std::vector<std::string>& fields = probe->last_fields();
    if (fields.size() < 3 || fields[2] != "1") {
      continue;  // not writable
    }
    const uint64_t applied =
        static_cast<uint64_t>(ParseInt(fields[0]).value_or(0));
    const uint64_t epoch = static_cast<uint64_t>(ParseInt(fields[1]).value_or(0));
    if (best < 0 || epoch > best_epoch ||
        (epoch == best_epoch && applied > best_applied)) {
      best = static_cast<int>(i);
      best_epoch = epoch;
      best_applied = applied;
    }
  }
  if (best < 0) {
    return false;
  }
  std::unique_ptr<MrClient> adopted = factory_(endpoints_[static_cast<size_t>(best)]);
  if (adopted == nullptr || adopted->Connect() != MR_SUCCESS ||
      adopted->Auth(auth_client_name_) != MR_SUCCESS) {
    return false;
  }
  primary_ = std::move(adopted);
  primary_name_ = endpoints_[static_cast<size_t>(best)].name;
  ++stats_.rediscoveries;
  return true;
}

int32_t ReplicatedClient::Access(std::string_view name,
                                 const std::vector<std::string>& args) {
  return primary_->Access(name, args);
}

int32_t ReplicatedClient::Query(std::string_view name,
                                const std::vector<std::string>& args,
                                const TupleSink& sink) {
  const QueryDef* def = QueryRegistry::Instance().Find(name);
  const bool is_read =
      def != nullptr && def->qclass == QueryClass::kRetrieve && !PrimaryOnly(name);
  if (!is_read) {
    ++stats_.writes;
    const bool is_mutation =
        def != nullptr && def->qclass != QueryClass::kRetrieve && !PrimaryOnly(name);
    if (tagged_writes_ && is_mutation) {
      // Queue behind any still-unsettled writes so replay order matches
      // submission order, then drain through the failover machinery.
      pending_.push_back(
          {tag_prefix_ + ":" + std::to_string(++tag_counter_), std::string(name), args});
      return DrainWithFailover(sink);
    }
    int32_t code = primary_->Query(name, args, sink);
    if (code == MR_SUCCESS && def != nullptr && def->qclass != QueryClass::kRetrieve &&
        !primary_->last_fields().empty()) {
      // The final reply of a successful mutation carries the journal seq the
      // primary assigned: our new read-your-writes floor.
      std::optional<int64_t> seq = ParseInt(primary_->last_fields()[0]);
      if (seq.has_value() && static_cast<uint64_t>(*seq) > token_) {
        token_ = static_cast<uint64_t>(*seq);
      }
    }
    return code;
  }
  // Round-robin across replicas, skipping any that is down or behind.
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const size_t pick = (next_replica_ + i) % replicas_.size();
    MrClient* replica = replicas_[pick].get();
    int32_t code = replica->QueryAtSeq(token_, name, args, sink);
    if (code == MR_REPL_BEHIND || code == MR_ABORTED || code == MR_NOT_CONNECTED) {
      continue;
    }
    next_replica_ = (pick + 1) % replicas_.size();
    ++stats_.replica_reads;
    return code;  // a genuine query verdict (success, MR_NO_MATCH, MR_PERM, ...)
  }
  if (!replicas_.empty()) {
    ++stats_.redirects;
  }
  ++stats_.primary_reads;
  return primary_->Query(name, args, sink);
}

}  // namespace moira
