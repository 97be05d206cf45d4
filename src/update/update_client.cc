#include "src/update/update_client.h"

#include "src/comerr/moira_errors.h"
#include "src/common/checksum.h"

namespace moira {

UpdateClient::UpdateClient(KerberosRealm* realm, std::string principal,
                           std::string password)
    : realm_(realm), principal_(std::move(principal)), password_(std::move(password)) {}

int32_t UpdateClient::EnsureTicket(bool force_refresh) {
  const UnixTime now = realm_->clock().Now();
  if (!force_refresh && has_ticket_ && now < ticket_.issued + ticket_.lifetime) {
    return MR_SUCCESS;
  }
  ++ticket_requests_;
  int32_t code =
      realm_->GetInitialTickets(principal_, password_, kUpdateServiceName, &ticket_);
  has_ticket_ = code == MR_SUCCESS;
  return code;
}

UpdateOutcome UpdateClient::AttemptOnce(SimHost* host, const std::string& target,
                                        const std::string& payload,
                                        const std::string& script) {
  const Clock& clock = realm_->clock();
  if (int32_t code = EnsureTicket(/*force_refresh=*/false); code != MR_SUCCESS) {
    // A KDC outage is transient — retry later like any soft failure; a
    // missing principal or bad password needs an operator.
    return UpdateOutcome{code, /*hard=*/code != MR_KDC_UNAVAILABLE,
                         "cannot obtain update tickets", 0, 0, UpdatePhase::kAuth};
  }
  // Phase A: transfer, under its own deadline.
  const UnixTime transfer_start = clock.Now();
  auto transfer_overran = [&] {
    return deadlines_.transfer > 0 && clock.Now() - transfer_start > deadlines_.transfer;
  };
  int32_t code = host->BeginSession(realm_->MakeAuthenticator(ticket_));
  if (code == MR_BAD_AUTH) {
    // The cached ticket may have gone stale server-side; refresh once.
    if (EnsureTicket(/*force_refresh=*/true) == MR_SUCCESS) {
      code = host->BeginSession(realm_->MakeAuthenticator(ticket_));
    }
  }
  if (code != MR_SUCCESS) {
    return UpdateOutcome{code, /*hard=*/code == MR_BAD_AUTH,
                         "connection/authentication failed", 0, 0, UpdatePhase::kAuth};
  }
  if (int32_t c = host->ReceiveFile(target, payload, Crc32(payload)); c != MR_SUCCESS) {
    return UpdateOutcome{c, /*hard=*/false, "file transfer failed", 0, 0,
                         UpdatePhase::kTransfer};
  }
  if (transfer_overran()) {
    return UpdateOutcome{MR_UPDATE_TIMEOUT, /*hard=*/false, "transfer phase overran", 0,
                         0, UpdatePhase::kTransfer};
  }
  if (int32_t c = host->ReceiveScript(script); c != MR_SUCCESS) {
    return UpdateOutcome{c, /*hard=*/false, "script transfer failed", 0, 0,
                         UpdatePhase::kTransfer};
  }
  if (int32_t c = host->Flush(); c != MR_SUCCESS) {
    return UpdateOutcome{c, /*hard=*/false, "flush failed", 0, 0, UpdatePhase::kTransfer};
  }
  if (transfer_overran()) {
    return UpdateOutcome{MR_UPDATE_TIMEOUT, /*hard=*/false, "transfer phase overran", 0,
                         0, UpdatePhase::kTransfer};
  }
  // Phase B: execute, under its own deadline.
  const UnixTime execute_start = clock.Now();
  std::string errmsg;
  code = host->ExecuteInstructions(&errmsg);
  if (code == MR_SUCCESS &&
      deadlines_.execute > 0 && clock.Now() - execute_start > deadlines_.execute) {
    return UpdateOutcome{MR_UPDATE_TIMEOUT, /*hard=*/false, "execute phase overran", 0, 0,
                         UpdatePhase::kExecute};
  }
  if (code == MR_UPDATE_EXEC) {
    return UpdateOutcome{code, /*hard=*/true, errmsg, 0, 0, UpdatePhase::kExecute};
  }
  if (code != MR_SUCCESS) {
    return UpdateOutcome{code, /*hard=*/false,
                         errmsg.empty() ? "update interrupted" : errmsg, 0, 0,
                         UpdatePhase::kExecute};
  }
  // Phase C: confirmation (the DCM records it; the budget still applies so a
  // stuck recording path cannot hang the pass).
  const UnixTime confirm_start = clock.Now();
  if (deadlines_.confirm > 0 && clock.Now() - confirm_start > deadlines_.confirm) {
    return UpdateOutcome{MR_UPDATE_TIMEOUT, /*hard=*/false, "confirm phase overran", 0, 0,
                         UpdatePhase::kConfirm};
  }
  return UpdateOutcome{MR_SUCCESS, false, "", 0, 0, UpdatePhase::kDone};
}

UpdateOutcome UpdateClient::Update(SimHost* host, const std::string& target,
                                   const std::string& payload, const std::string& script,
                                   bool single_attempt) {
  if (host == nullptr) {
    // An unknown host cannot heal without an operator fixing the machine or
    // serverhosts relation: hard, never retried.
    return UpdateOutcome{MR_UPDATE_CONN, /*hard=*/true, "no such host", 0, 0,
                         UpdatePhase::kNone};
  }
  const Clock& clock = realm_->clock();
  RetryPolicy policy = retry_policy_;
  if (single_attempt) {
    policy.max_attempts = 1;
  }
  RetryController retry(policy, &clock);
  const UnixTime start = clock.Now();
  UpdateOutcome outcome;
  int attempts = 0;
  while (true) {
    outcome = AttemptOnce(host, target, payload, script);
    ++attempts;
    if (outcome.code == MR_SUCCESS || outcome.hard) {
      break;
    }
    if (outcome.code == MR_UPDATE_PATCH) {
      // A patch-base mismatch is deterministic — the installed file will not
      // change by retrying.  Soft (the host is healthy), but handed straight
      // back so the DCM can fall back to a full-archive ship.
      break;
    }
    UnixTime backoff = retry.RecordFailure();
    if (backoff < 0) {
      break;  // attempt budget or overall deadline exhausted
    }
    if (sleep_fn_ && backoff > 0) {
      sleep_fn_(backoff);
    }
  }
  outcome.attempts = attempts;
  outcome.elapsed = clock.Now() - start;
  return outcome;
}

}  // namespace moira
