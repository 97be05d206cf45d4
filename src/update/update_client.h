// DCM side of the Moira-to-server update protocol (paper section 5.9).
//
// Strategy: a transfer phase (authenticate, ship the data file with a
// checksum, ship the install instruction sequence, flush), then an execution
// phase triggered by a single command, then a confirmation recorded by the
// DCM.  Failures are classified soft (likely transient: connection refused,
// crash, checksum) or hard (the install script itself failed).
//
// Resilience layer (DESIGN.md): soft failures are retried in-pass under a
// clock-driven RetryPolicy, each protocol phase runs under its own deadline,
// and the outcome reports how many attempts were made, how long the update
// took, and how far the protocol got — the DCM's circuit breaker feeds on
// those.  The DCM's update ticket is cached for its Kerberos lifetime so a
// fleet-wide scan costs one KDC round trip, not one per host.
#ifndef MOIRA_SRC_UPDATE_UPDATE_CLIENT_H_
#define MOIRA_SRC_UPDATE_UPDATE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/retry.h"
#include "src/krb/kerberos.h"
#include "src/update/sim_host.h"

namespace moira {

// How far an update attempt got before it stopped.
enum class UpdatePhase {
  kNone,      // no host / no attempt
  kAuth,      // obtaining tickets or opening the session
  kTransfer,  // shipping the data file and instruction sequence
  kExecute,   // running the install instructions
  kConfirm,   // recording the success
  kDone,
};

struct UpdateOutcome {
  int32_t code = 0;
  bool hard = false;      // true: operator attention needed; false: retry later
  std::string message;
  int attempts = 0;       // protocol attempts made this pass (>= 1 if reachable)
  UnixTime elapsed = 0;   // seconds from first attempt to final outcome
  UpdatePhase phase = UpdatePhase::kNone;  // furthest phase reached
};

// Per-phase wall-clock budgets, in seconds; 0 = unbounded.  A phase that
// overruns its budget fails soft with MR_UPDATE_TIMEOUT (a stuck host is
// indistinguishable from a slow one; later passes or the breaker decide).
struct UpdateDeadlines {
  UnixTime transfer = 0;
  UnixTime execute = 0;
  UnixTime confirm = 0;
};

class UpdateClient {
 public:
  // `principal`/`password` identify the DCM to the update service on each
  // host ("Kerberos is used to verify the identity of both ends at
  // connection set-up time", section 5.9.2).
  UpdateClient(KerberosRealm* realm, std::string principal, std::string password);

  // Runs the full three-phase update of one host, retrying soft failures
  // in-pass under the configured policy.  `single_attempt` suppresses the
  // retry loop (used for half-open circuit-breaker probes).
  UpdateOutcome Update(SimHost* host, const std::string& target,
                       const std::string& payload, const std::string& script,
                       bool single_attempt = false);

  // In-pass retry policy for soft failures; default is one attempt.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  void set_deadlines(const UpdateDeadlines& deadlines) { deadlines_ = deadlines; }
  // How backoffs wait.  Unset, retries re-attempt immediately; tests and
  // benches install a hook that advances their SimulatedClock.
  void set_sleep_fn(std::function<void(UnixTime)> fn) { sleep_fn_ = std::move(fn); }

  // KDC round trips made so far (observability for the ticket cache).
  int ticket_requests() const { return ticket_requests_; }

 private:
  UpdateOutcome AttemptOnce(SimHost* host, const std::string& target,
                            const std::string& payload, const std::string& script);
  // Returns MR_SUCCESS with a usable cached or freshly-fetched ticket.
  int32_t EnsureTicket(bool force_refresh);

  KerberosRealm* realm_;
  std::string principal_;
  std::string password_;
  RetryPolicy retry_policy_;
  UpdateDeadlines deadlines_;
  std::function<void(UnixTime)> sleep_fn_;
  Ticket ticket_;
  bool has_ticket_ = false;
  int ticket_requests_ = 0;
};

}  // namespace moira

#endif  // MOIRA_SRC_UPDATE_UPDATE_CLIENT_H_
