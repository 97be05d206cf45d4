#include "src/repl/repl_fault.h"

#include <utility>

#include "src/common/fault_schedule.h"
#include "src/repl/cluster.h"

namespace moira {
namespace {

// Two distinct node indices below n, drawn in order (n >= 2).
std::pair<size_t, size_t> DrawPair(FaultDice& dice, size_t n) {
  const size_t a = static_cast<size_t>(dice.Below(n));
  size_t b = static_cast<size_t>(dice.Below(n - 1));
  if (b >= a) {
    ++b;
  }
  return {a, b};
}

}  // namespace

void ArmRound(const ReplFaultSpec& spec, const std::vector<ReplicaServer*>& replicas,
              KerberosRealm* realm, int round, NetworkPartition* net,
              const std::vector<std::string>& names) {
  const FaultSchedule schedule(spec.seed);
  if (net != nullptr) {
    net->HealAll();  // last round's cuts heal; this round re-draws below
  }
  for (size_t i = 0; i < replicas.size(); ++i) {
    ReplicaServer* replica = replicas[i];
    if (replica == nullptr) {
      continue;
    }
    if (replica->crashed()) {
      replica->Restart();  // last round's crash heals; state resyncs via snapshot
    }
    FaultDice dice = schedule.Dice(round, i);
    const bool crash = dice.Roll(spec.crash_permille);
    const bool flap = dice.Roll(spec.flap_permille);
    const bool slow = dice.Roll(spec.slow_permille);
    const bool torn = dice.Roll(spec.torn_push_permille);
    if (crash) {
      replica->Crash();
      continue;  // a dead replica neither flaps nor applies slowly
    }
    if (flap) {
      replica->DropLink();
    }
    if (torn) {
      replica->ArmTornPush();
    }
    replica->set_apply_limit(slow ? spec.slow_apply_limit : 0);
  }
  ArmKdcOutage(schedule, round, spec.kdc_down_permille, realm);
  if (net != nullptr && names.size() >= 2) {
    FaultDice dice = schedule.Dice(round, FaultSchedule::kNetworkTarget);
    if (dice.Roll(spec.partition_permille)) {
      auto [a, b] = DrawPair(dice, names.size());
      net->BlockBoth(names[a], names[b]);
    }
    if (dice.Roll(spec.asym_partition_permille)) {
      auto [a, b] = DrawPair(dice, names.size());
      net->Block(names[a], names[b]);
    }
  }
}

}  // namespace moira
