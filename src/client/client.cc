#include "src/client/client.h"

#include "src/comerr/moira_errors.h"
#include "src/protocol/wire.h"

namespace moira {

MrClient::MrClient(Connector connector) : connector_(std::move(connector)) {
  RegisterMoiraErrorTable();
}

void MrClient::SetKerberosIdentity(KerberosRealm* realm, std::string principal,
                                   std::string password) {
  realm_ = realm;
  principal_ = std::move(principal);
  password_ = std::move(password);
  has_ticket_ = false;
}

void MrClient::SetRetryPolicy(const RetryPolicy& policy, const Clock* clock) {
  retry_policy_ = policy;
  clock_ = clock;
}

int32_t MrClient::Connect() {
  if (channel_ != nullptr) {
    return MR_ALREADY_CONNECTED;
  }
  channel_ = connector_();
  if (channel_ == nullptr) {
    return MR_ABORTED;
  }
  return MR_SUCCESS;
}

int32_t MrClient::Disconnect() {
  if (channel_ == nullptr) {
    return MR_NOT_CONNECTED;
  }
  channel_.reset();
  authed_ = false;
  return MR_SUCCESS;
}

int32_t MrClient::EnsureTicket(Ticket* out) {
  if (realm_ == nullptr) {
    return MR_KRB_NO_TKT;
  }
  const UnixTime now = realm_->clock().Now();
  if (has_ticket_ && now < ticket_.issued + ticket_.lifetime) {
    *out = ticket_;
    return MR_SUCCESS;
  }
  ++ticket_requests_;
  int32_t code =
      realm_->GetInitialTickets(principal_, password_, kMoiraServiceName, &ticket_);
  if (code == MR_KDC_UNAVAILABLE && has_ticket_ &&
      now < ticket_.issued + ticket_.lifetime) {
    // KDC blip: ride it out on the still-valid cached ticket.
    *out = ticket_;
    return MR_SUCCESS;
  }
  has_ticket_ = code == MR_SUCCESS;
  if (code == MR_SUCCESS) {
    *out = ticket_;
  }
  return code;
}

bool MrClient::Reconnect() {
  channel_ = connector_();
  if (channel_ == nullptr) {
    return false;
  }
  if (!authed_) {
    return true;
  }
  // Restore the authenticated identity before the request is replayed.
  Ticket ticket;
  if (EnsureTicket(&ticket) != MR_SUCCESS) {
    return false;
  }
  MrRequest auth{kMrProtocolVersion,
                 MajorRequest::kAuthenticate,
                 {realm_->MakeAuthenticator(ticket), auth_client_name_}};
  return TryRoundTrip(auth, nullptr) == MR_SUCCESS;
}

int32_t MrClient::TryRoundTrip(const MrRequest& request, const TupleSink* sink) {
  if (channel_ == nullptr) {
    return MR_NOT_CONNECTED;
  }
  if (int32_t code = channel_->Send(EncodeRequest(request)); code != MR_SUCCESS) {
    channel_.reset();
    return MR_ABORTED;
  }
  // Consume MR_MORE_DATA tuples until the final reply arrives.  Tuples are
  // buffered and only delivered once the exchange completes, so a retried
  // request cannot hand the sink a partial run twice.
  std::vector<Tuple> buffered;
  while (true) {
    std::string payload;
    if (int32_t code = channel_->Recv(&payload); code != MR_SUCCESS) {
      channel_.reset();
      return MR_ABORTED;
    }
    std::optional<MrReply> reply = DecodeReply(payload);
    if (!reply.has_value()) {
      channel_.reset();
      return MR_ABORTED;
    }
    if (reply->version != kMrProtocolVersion) {
      channel_.reset();
      return reply->version > kMrProtocolVersion ? MR_VERSION_LOW : MR_VERSION_HIGH;
    }
    if (reply->code == MR_MORE_DATA) {
      buffered.push_back(std::move(reply->fields));
      continue;
    }
    last_fields_ = std::move(reply->fields);
    if (sink != nullptr) {
      for (Tuple& tuple : buffered) {
        (*sink)(std::move(tuple));
      }
    }
    return reply->code;
  }
}

int32_t MrClient::RoundTrip(const MrRequest& request, const TupleSink* sink) {
  last_rpc_ = {};
  if (clock_ == nullptr) {
    // No retry policy installed: historical single-attempt behaviour.
    ++last_rpc_.attempts;
    return TryRoundTrip(request, sink);
  }
  RetryController retry(retry_policy_, clock_);
  const UnixTime start = clock_->Now();
  int32_t code;
  while (true) {
    ++last_rpc_.attempts;
    code = TryRoundTrip(request, sink);
    // Only transport-layer failures are retried; server verdicts are final.
    if (code != MR_ABORTED && code != MR_NOT_CONNECTED) {
      break;
    }
    UnixTime backoff = retry.RecordFailure();
    if (backoff < 0) {
      break;  // attempt budget or deadline exhausted
    }
    if (sleep_fn_ && backoff > 0) {
      sleep_fn_(backoff);
    }
    if (!Reconnect()) {
      channel_.reset();
    }
  }
  last_rpc_.elapsed = clock_->Now() - start;
  return code;
}

int32_t MrClient::Noop() {
  return RoundTrip(MrRequest{kMrProtocolVersion, MajorRequest::kNoop, {}}, nullptr);
}

int32_t MrClient::Auth(std::string_view client_name) {
  if (channel_ == nullptr) {
    return MR_NOT_CONNECTED;
  }
  Ticket ticket;
  if (int32_t code = EnsureTicket(&ticket); code != MR_SUCCESS) {
    return code;
  }
  MrRequest request{kMrProtocolVersion,
                    MajorRequest::kAuthenticate,
                    {realm_->MakeAuthenticator(ticket), std::string(client_name)}};
  int32_t code = RoundTrip(request, nullptr);
  if (code == MR_SUCCESS) {
    authed_ = true;
    auth_client_name_ = std::string(client_name);
  }
  return code;
}

int32_t MrClient::Access(std::string_view name, const std::vector<std::string>& args) {
  MrRequest request{kMrProtocolVersion, MajorRequest::kAccess, {}};
  request.args.reserve(args.size() + 1);
  request.args.emplace_back(name);
  request.args.insert(request.args.end(), args.begin(), args.end());
  return RoundTrip(request, nullptr);
}

int32_t MrClient::Query(std::string_view name, const std::vector<std::string>& args,
                        const TupleSink& sink) {
  MrRequest request{kMrProtocolVersion, MajorRequest::kQuery, {}};
  request.args.reserve(args.size() + 1);
  request.args.emplace_back(name);
  request.args.insert(request.args.end(), args.begin(), args.end());
  return RoundTrip(request, &sink);
}

int32_t MrClient::QueryAtSeq(uint64_t min_seq, std::string_view name,
                             const std::vector<std::string>& args,
                             const TupleSink& sink) {
  MrRequest request{kMrProtocolVersion, MajorRequest::kQueryAtSeq, {}};
  request.args.reserve(args.size() + 2);
  request.args.push_back(std::to_string(min_seq));
  request.args.emplace_back(name);
  request.args.insert(request.args.end(), args.begin(), args.end());
  return RoundTrip(request, &sink);
}

int32_t MrClient::ReplFetch(std::string_view replica_name, uint64_t from_seq,
                            int max_entries, uint64_t epoch, const TupleSink& sink) {
  MrRequest request{kMrProtocolVersion,
                    MajorRequest::kReplFetch,
                    {std::string(replica_name), std::to_string(from_seq),
                     std::to_string(max_entries), std::to_string(epoch)}};
  return RoundTrip(request, &sink);
}

int32_t MrClient::ReplPush(uint64_t epoch, uint64_t prev_seq, uint64_t prev_epoch,
                           const std::vector<std::string>& lines) {
  MrRequest request{kMrProtocolVersion, MajorRequest::kReplPush, {}};
  request.args.reserve(lines.size() + 3);
  request.args.push_back(std::to_string(epoch));
  request.args.push_back(std::to_string(prev_seq));
  request.args.push_back(std::to_string(prev_epoch));
  request.args.insert(request.args.end(), lines.begin(), lines.end());
  return RoundTrip(request, nullptr);
}

int32_t MrClient::ReplHello() {
  return RoundTrip(MrRequest{kMrProtocolVersion, MajorRequest::kReplHello, {}}, nullptr);
}

int32_t MrClient::ReplVote(uint64_t epoch, uint64_t candidate_applied_seq,
                           uint64_t candidate_tail_epoch,
                           std::string_view candidate_name, bool pre) {
  MrRequest request{kMrProtocolVersion,
                    MajorRequest::kReplVote,
                    {std::to_string(epoch), std::to_string(candidate_applied_seq),
                     std::to_string(candidate_tail_epoch), std::string(candidate_name)}};
  if (pre) {
    request.args.push_back("pre");
  }
  return RoundTrip(request, nullptr);
}

int32_t MrClient::QueryTagged(std::string_view tag, std::string_view name,
                              const std::vector<std::string>& args,
                              const TupleSink& sink) {
  MrRequest request{kMrProtocolVersion, MajorRequest::kQueryTagged, {}};
  request.args.reserve(args.size() + 2);
  request.args.emplace_back(tag);
  request.args.emplace_back(name);
  request.args.insert(request.args.end(), args.begin(), args.end());
  return RoundTrip(request, &sink);
}

int32_t MrClient::ReplSnapshot(std::string_view replica_name, const TupleSink& sink) {
  MrRequest request{kMrProtocolVersion, MajorRequest::kReplSnapshot,
                    {std::string(replica_name)}};
  return RoundTrip(request, &sink);
}

int32_t MrClient::TriggerDcm() {
  return RoundTrip(MrRequest{kMrProtocolVersion, MajorRequest::kTriggerDcm, {}}, nullptr);
}

DirectClient::DirectClient(MoiraContext* mc, std::string client_name)
    : mc_(mc), client_name_(std::move(client_name)) {
  RegisterMoiraErrorTable();
}

int32_t DirectClient::Query(std::string_view name, const std::vector<std::string>& args,
                            const TupleSink& sink) {
  return QueryRegistry::Instance().Execute(*mc_, "root", client_name_, name, args, sink);
}

int32_t DirectClient::Access(std::string_view name, const std::vector<std::string>& args) {
  return QueryRegistry::Instance().CheckAccess(*mc_, "root", name, args);
}

TupleSink WrapCallback(MrCallbackProc callproc, void* callarg) {
  return [callproc, callarg](Tuple tuple) {
    std::vector<const char*> argv;
    argv.reserve(tuple.size());
    for (const std::string& field : tuple) {
      argv.push_back(field.c_str());
    }
    callproc(static_cast<int>(argv.size()), argv.data(), callarg);
  };
}

}  // namespace moira
