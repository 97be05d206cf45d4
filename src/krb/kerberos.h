// Simulated Kerberos private-key authentication (paper sections 4, 5.9.2,
// 5.10).
//
// Moira authenticates every mutating client with Kerberos [2] and uses
// srvtab-srvtab authentication between the registration server and the
// Kerberos admin server.  This module reproduces the moving parts Moira
// exercises: a principal database (the KDC), initial-ticket issuance,
// per-connection authenticators with timestamps, ticket lifetimes, and a
// replay cache ("safe from ... replay of transactions").
//
// SUBSTITUTION (see DESIGN.md): tickets and authenticators are sealed with
// the toy PCBC cipher of block_cipher.h rather than DES.  The handshake
// shape, failure codes, and replay semantics match the paper; the
// cryptography does not pretend to.
#ifndef MOIRA_SRC_KRB_KERBEROS_H_
#define MOIRA_SRC_KRB_KERBEROS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "src/common/clock.h"

namespace moira {

class FaultSchedule;

// The Kerberos service name the Moira server registers and authenticates as.
inline constexpr char kMoiraServiceName[] = "moira";

// A ticket as held by a client: the sealed part is opaque to the client and
// only the named service can open it.
struct Ticket {
  std::string client;         // principal the ticket was issued to
  std::string service;        // service it is good for
  UnixTime issued = 0;
  UnixTime lifetime = 0;      // seconds
  uint64_t session_key = 0;   // shared with the service via the sealed part
  std::string sealed;         // encrypted under the service key
};

// Identity and session key established by a successful verification.
struct VerifiedIdentity {
  std::string principal;
  uint64_t session_key = 0;
};

// The realm: principal database plus ticket-granting.  In this simulation the
// KDC object is shared (by reference) between client and server code, exactly
// as the real KDC is shared via the network.
class KerberosRealm {
 public:
  // Default ticket lifetime, as in Athena practice.
  static constexpr UnixTime kDefaultLifetime = 10 * kSecondsPerHour;
  // Maximum allowed clock skew for authenticator timestamps.
  static constexpr UnixTime kMaxSkew = 5 * kSecondsPerMinute;

  explicit KerberosRealm(const Clock* clock);

  // --- Admin server operations (used by the registration server over its
  // srvtab-srvtab channel) ---

  // Adds a principal; MR_EXISTS if already present.
  int32_t AddPrincipal(std::string_view name, std::string_view password);
  // Changes a password; MR_KRB_NO_PRINC if absent.
  int32_t SetPassword(std::string_view name, std::string_view password);
  int32_t DeletePrincipal(std::string_view name);
  bool HasPrincipal(std::string_view name) const;

  // Registers a service principal and returns its key (the "srvtab").
  uint64_t RegisterService(std::string_view name);
  // Returns 0 if unknown.
  uint64_t ServiceKey(std::string_view name) const;

  // --- Client operations ---

  // Obtains initial tickets for `service`.  Returns MR_SUCCESS and fills
  // `out`, or MR_KRB_NO_PRINC / MR_KRB_BAD_PASSWORD, or MR_KDC_UNAVAILABLE
  // during an injected KDC outage.  Userreg uses exactly this call to probe
  // whether a login name is free (paper section 5.10).
  int32_t GetInitialTickets(std::string_view principal, std::string_view password,
                            std::string_view service, Ticket* out);

  // Directory-outage injection (fault harness): while down, the
  // ticket-granting path fails with MR_KDC_UNAVAILABLE.  Already-issued
  // tickets keep working — MakeAuthenticator and server-side Verify never
  // contact the KDC, which is exactly the cached-ticket path clients ride
  // out a KDC blip on.
  void SetDown(bool down) { down_ = down; }
  bool down() const { return down_; }

  // Builds a wire authenticator from a ticket: sealed ticket + a fresh
  // {client, timestamp, nonce} sealed under the session key.
  std::string MakeAuthenticator(const Ticket& ticket);

  const Clock& clock() const { return *clock_; }

 private:
  const Clock* clock_;
  std::map<std::string, std::string, std::less<>> principals_;  // name -> password
  std::map<std::string, uint64_t, std::less<>> services_;       // name -> key
  uint64_t nonce_counter_ = 1;
  bool down_ = false;  // injected KDC outage
};

// Seeded KDC outage for `round`, drawn from the schedule's KDC target: the
// realm goes down with probability permille/1000.  It always sets the realm,
// so permille 0 brings it back up.  Both the DCM and the replication fault
// injectors arm the KDC through this call.  A null realm is left alone.
void ArmKdcOutage(const FaultSchedule& schedule, int round, int permille,
                  KerberosRealm* realm);

// Server-side verifier: owned by each authenticating service, holds the
// service key and the replay cache.
class ServiceVerifier {
 public:
  ServiceVerifier(std::string service, uint64_t service_key, const Clock* clock);

  // Verifies a wire authenticator.  Returns MR_SUCCESS and fills `out`, or
  // MR_BAD_AUTH (garbled / wrong service), MR_KRB_TKT_EXPIRED, or
  // MR_KRB_REPLAY.
  int32_t Verify(std::string_view authenticator, VerifiedIdentity* out);

  // Drops replay-cache entries older than the skew window.
  void ExpireReplayCache();

  size_t replay_cache_size() const { return replay_cache_.size(); }

 private:
  std::string service_;
  uint64_t service_key_;
  const Clock* clock_;
  std::set<std::pair<UnixTime, uint64_t>> replay_cache_;  // (timestamp, nonce)
};

// Internal wire helpers, exposed for tests: length-prefixed field packing.
void PackField(std::string* out, std::string_view field);
bool UnpackField(std::string_view* in, std::string* field);

}  // namespace moira

#endif  // MOIRA_SRC_KRB_KERBEROS_H_
