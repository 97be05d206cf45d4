// The one seeded fault schedule behind every fault injector: the DCM fleet
// and its directory servers (src/update/sim_host.h), the replication cluster
// (src/repl/repl_fault.h) and the quota telemetry transport
// (src/quota/quota.h).  See DESIGN.md "Deterministic fault injection".
//
// Every (round, target) pair owns an independent SplitMix64 stream derived
// from the seed, so what one target draws in one round never shifts another
// target's dice, and a run replays the same faults however many draws any
// round consumes.  Each layer keeps its own spec struct listing its fault
// dimensions as permille rates; a dimension at 0 consumes no draw, so adding
// a dimension at 0 leaves every existing schedule unchanged.
#ifndef MOIRA_SRC_COMMON_FAULT_SCHEDULE_H_
#define MOIRA_SRC_COMMON_FAULT_SCHEDULE_H_

#include <cstdint>

#include "src/common/random.h"

namespace moira {

// The dice of one (round, target) stream.
class FaultDice {
 public:
  explicit FaultDice(uint64_t state) : rng_(state) {}

  // Fires with probability permille/1000.  At permille <= 0 it draws nothing.
  bool Roll(int permille) {
    return permille > 0 && rng_.Chance(static_cast<uint64_t>(permille), 1000);
  }

  // Uniform in [0, bound): picks which node or how many, once a Roll fired.
  uint64_t Below(uint64_t bound) { return rng_.Below(bound); }

 private:
  SplitMix64 rng_;
};

class FaultSchedule {
 public:
  // Targets are host, replica or server indices, which stay below
  // kNetworkTarget; the three above them are shared by every injector.
  static constexpr uint64_t kNetworkTarget = 8189;  // partitions between nodes
  static constexpr uint64_t kKdcTarget = 8190;      // the Kerberos realm
  static constexpr uint64_t kHesiodTarget = 8191;   // the host directory

  explicit FaultSchedule(uint64_t seed) : seed_(seed) {}

  FaultDice Dice(int round, uint64_t target) const {
    return FaultDice(seed_ + 0x9e3779b97f4a7c15ull *
                                 (static_cast<uint64_t>(round) * 8192 + target));
  }

 private:
  uint64_t seed_;
};

}  // namespace moira

#endif  // MOIRA_SRC_COMMON_FAULT_SCHEDULE_H_
