#include "src/common/retry.h"

namespace moira {

RetryController::RetryController(const RetryPolicy& policy, const Clock* clock)
    : policy_(policy),
      clock_(clock),
      jitter_(policy.seed),
      start_(clock->Now()),
      next_backoff_(policy.initial_backoff) {}

bool RetryController::WithinDeadline() const {
  return policy_.deadline <= 0 || clock_->Now() - start_ < policy_.deadline;
}

UnixTime RetryController::RecordFailure() {
  ++attempts_;
  if (attempts_ >= policy_.max_attempts) {
    return -1;
  }
  UnixTime backoff = next_backoff_;
  if (backoff < 0) {
    backoff = 0;
  }
  if (backoff > 0 && policy_.jitter_permille > 0) {
    // Deterministic scale in [1000 - j, 1000 + j] permille.
    uint64_t span = 2 * policy_.jitter_permille + 1;
    int64_t scale =
        1000 - policy_.jitter_permille + static_cast<int64_t>(jitter_.Below(span));
    backoff = backoff * scale / 1000;
  }
  next_backoff_ = next_backoff_ * policy_.multiplier;
  if (next_backoff_ > policy_.max_backoff) {
    next_backoff_ = policy_.max_backoff;
  }
  if (policy_.deadline > 0 && clock_->Now() - start_ + backoff >= policy_.deadline) {
    return -1;  // the wait itself would overrun the overall deadline
  }
  return backoff;
}

}  // namespace moira
