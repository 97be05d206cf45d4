// The Moira application library (paper section 5.6).
//
// Applications never touch the database; they call this library, which speaks
// the Moira protocol to the server.  For the DCM and other utilities running
// on the database host there is a "glue" version (DirectClient) presenting
// the exact same interface but calling the query layer directly, without
// Kerberos authentication, for throughput (paper section 5.6 "direct calls to
// Ingres, rather than going through the server").
#ifndef MOIRA_SRC_CLIENT_CLIENT_H_
#define MOIRA_SRC_CLIENT_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/retry.h"
#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/krb/kerberos.h"
#include "src/net/channel.h"
#include "src/protocol/wire.h"

namespace moira {

// Common query interface shared by the RPC client and the direct glue
// client, so the DCM and applications are transport-agnostic.
class MoiraClientApi {
 public:
  virtual ~MoiraClientApi() = default;

  // Runs a named query; `sink` is called once per returned tuple.
  virtual int32_t Query(std::string_view name, const std::vector<std::string>& args,
                        const TupleSink& sink) = 0;

  // Checks access without executing (mr_access).
  virtual int32_t Access(std::string_view name, const std::vector<std::string>& args) = 0;
};

// RPC client: mr_connect / mr_auth / mr_query / ... of section 5.6.2.
//
// Resilience (ROADMAP PR-4 residual): with SetRetryPolicy installed, every
// RPC that fails at the transport layer is transparently retried under the
// clock-driven policy — reconnecting through the connector and replaying the
// authentication with the cached Kerberos ticket — and the attempt count and
// elapsed time are surfaced via last_rpc().  Tuples are buffered until the
// final reply arrives so a replayed request never delivers duplicates to the
// sink.  Without a policy the historical single-attempt behaviour is kept.
class MrClient final : public MoiraClientApi {
 public:
  // Produces a connected channel; invoked by Connect().  Returning nullptr
  // maps to ECONNREFUSED-style failure.
  using Connector = std::function<std::unique_ptr<ClientChannel>()>;

  explicit MrClient(Connector connector);

  // Supplies the identity used by Auth().  The realm must outlive the client.
  void SetKerberosIdentity(KerberosRealm* realm, std::string principal,
                           std::string password);

  // Installs the transport retry policy.  `clock` drives backoff and elapsed
  // accounting and must outlive the client; pass the realm's clock.
  void SetRetryPolicy(const RetryPolicy& policy, const Clock* clock);
  // How backoffs wait; tests install a hook advancing their SimulatedClock.
  void set_sleep_fn(std::function<void(UnixTime)> fn) { sleep_fn_ = std::move(fn); }

  // mr_connect: connects without authenticating (cheap read-only queries may
  // not need authentication).  MR_ALREADY_CONNECTED if connected.
  int32_t Connect();

  // mr_disconnect: MR_NOT_CONNECTED if there was no connection.
  int32_t Disconnect();

  // mr_noop: protocol handshake for testing and performance measurement.
  int32_t Noop();

  // mr_auth: authenticates as the configured identity; `client_name` is the
  // program acting on behalf of the user.  The initial ticket is cached for
  // its Kerberos lifetime, so re-authentication after a reconnect works even
  // through a KDC outage (MakeAuthenticator never contacts the KDC).
  int32_t Auth(std::string_view client_name);

  // mr_access / mr_query.
  int32_t Access(std::string_view name, const std::vector<std::string>& args) override;
  int32_t Query(std::string_view name, const std::vector<std::string>& args,
                const TupleSink& sink) override;

  // Read with a read-your-writes token: the serving replica must have applied
  // at least `min_seq` (the primary trivially satisfies any token it issued).
  int32_t QueryAtSeq(uint64_t min_seq, std::string_view name,
                     const std::vector<std::string>& args, const TupleSink& sink);

  // Replication stream RPCs (replica side; privileged on the server).  Each
  // ReplFetch tuple is one journal line; each ReplSnapshot tuple is
  // [table, row_line].  The final reply fields land in last_fields().
  // ReplFetch carries the replica's epoch floor, so a deposed primary is
  // fenced on contact (MR_REPL_EPOCH); a caller with no floor passes 0.
  int32_t ReplFetch(std::string_view replica_name, uint64_t from_seq, int max_entries,
                    uint64_t epoch, const TupleSink& sink);
  int32_t ReplSnapshot(std::string_view replica_name, const TupleSink& sink);

  // Quorum replication + failover RPCs (DESIGN.md "Replication layer").
  // ReplPush ships epoch-stamped journal lines primary -> replica; the final
  // reply (last_fields()) is [applied_seq, replica_epoch].  ReplHello is the
  // unauthenticated liveness/role probe, final reply
  // [applied_seq, epoch, writable].  ReplVote solicits an election vote,
  // final reply [granted, voter_epoch_floor]; with `pre` set the voter
  // answers whether it WOULD grant without binding itself (Raft pre-vote),
  // so a candidate that cannot win never poisons its own epoch floor.
  // QueryTagged runs a mutation under an idempotency tag: replaying the tag
  // acks the original seq.
  int32_t ReplPush(uint64_t epoch, uint64_t prev_seq, uint64_t prev_epoch,
                   const std::vector<std::string>& lines);
  int32_t ReplHello();
  int32_t ReplVote(uint64_t epoch, uint64_t candidate_applied_seq,
                   uint64_t candidate_tail_epoch, std::string_view candidate_name,
                   bool pre = false);
  int32_t QueryTagged(std::string_view tag, std::string_view name,
                      const std::vector<std::string>& args, const TupleSink& sink);

  // Asks the server to spawn a DCM immediately (Trigger_DCM).
  int32_t TriggerDcm();

  bool connected() const { return channel_ != nullptr; }

  // Observability for the retry satellite and the replication router.
  struct RpcStats {
    int attempts = 0;      // transport attempts of the last RPC (>= 1)
    UnixTime elapsed = 0;  // clock seconds the last RPC took (0 without clock)
  };
  const RpcStats& last_rpc() const { return last_rpc_; }
  // Fields of the last final (non-MORE_DATA) reply; a successful mutation
  // carries [assigned_journal_seq].
  const std::vector<std::string>& last_fields() const { return last_fields_; }
  // KDC round trips made (ticket-cache observability).
  int ticket_requests() const { return ticket_requests_; }

 private:
  int32_t RoundTrip(const MrRequest& request, const TupleSink* sink);
  int32_t TryRoundTrip(const MrRequest& request, const TupleSink* sink);
  int32_t EnsureTicket(Ticket* out);
  // Re-establishes channel and, if this client had authenticated,
  // re-authenticates with the cached/refreshed ticket.
  bool Reconnect();

  Connector connector_;
  std::unique_ptr<ClientChannel> channel_;
  KerberosRealm* realm_ = nullptr;
  std::string principal_;
  std::string password_;
  RetryPolicy retry_policy_;
  const Clock* clock_ = nullptr;  // non-null once a retry policy is installed
  std::function<void(UnixTime)> sleep_fn_;
  Ticket ticket_;
  bool has_ticket_ = false;
  int ticket_requests_ = 0;
  bool authed_ = false;
  std::string auth_client_name_;
  RpcStats last_rpc_;
  std::vector<std::string> last_fields_;
};

// Glue client: same interface, direct execution, fixed root identity, no
// Kerberos.  Used by the DCM and the backup programs.
class DirectClient final : public MoiraClientApi {
 public:
  explicit DirectClient(MoiraContext* mc, std::string client_name = "direct");

  int32_t Query(std::string_view name, const std::vector<std::string>& args,
                const TupleSink& sink) override;
  int32_t Access(std::string_view name, const std::vector<std::string>& args) override;

 private:
  MoiraContext* mc_;
  std::string client_name_;
};

// Historical C-style callback signature (paper section 5.6.2): callproc is
// called with the tuple size, the tuple fields, and the caller's argument.
using MrCallbackProc = void (*)(int argc, const char** argv, void* callarg);

// Adapts the historical callback to a TupleSink.
TupleSink WrapCallback(MrCallbackProc callproc, void* callarg);

}  // namespace moira

#endif  // MOIRA_SRC_CLIENT_CLIENT_H_
