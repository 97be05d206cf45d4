// Seeded fault injection for the replication layer.
//
// Every fault draw comes from the FaultSchedule stream of (seed, round,
// replica index), or of a reserved target for the realm and the network, so
// a given seed produces the same fault schedule regardless of how many random
// draws any round consumes.  Faults modelled per round:
//   - crash: the replica dies (stops answering) for one round, then reboots
//     with its state lost and must resynchronize via a snapshot transfer;
//   - link flap: the primary link drops; the next catch-up reconnects,
//     re-authenticates, and resumes from applied_seq + 1;
//   - slow apply: the replica applies at most `slow_apply_limit` entries per
//     catch-up call, building observable lag;
//   - KDC outage: the realm refuses new initial tickets (cached tickets keep
//     working — the catch-up path must ride it out).
//   - torn push: the replica's next kReplPush applies only half its entries
//     and dies mid-reply — the mid-FlushWrites partial write of a quorum
//     batch; the pusher must converge by idempotent re-push;
//   - partition: a random node pair loses both directions for the round;
//   - asymmetric partition: a random ordered pair loses one direction only
//     (requests arrive but replies vanish, or vice versa).
#ifndef MOIRA_SRC_REPL_REPL_FAULT_H_
#define MOIRA_SRC_REPL_REPL_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/krb/kerberos.h"
#include "src/repl/replica.h"

namespace moira {

class NetworkPartition;

struct ReplFaultSpec {
  uint64_t seed = 1988;
  int crash_permille = 0;       // replica crashes for the round
  int flap_permille = 0;        // primary link drops
  int slow_permille = 0;        // apply limit engaged for the round
  int slow_apply_limit = 8;     // entries per catch-up call while slowed
  int kdc_down_permille = 0;    // realm refuses new tickets for the round
  int torn_push_permille = 0;   // next quorum push tears halfway through
  int partition_permille = 0;   // a random pair partitions (both directions)
  int asym_partition_permille = 0;  // a random ordered pair loses one direction
};

// Applies round `round`'s draws.  First it heals last round's faults, so
// each lasts exactly one round: the partition matrix is cleared and crashed
// replicas reboot (their state resyncs via snapshot).  Then it rolls each
// replica's crash/flap/slow/torn-push fate, the realm-wide KDC outage, and,
// when `net` is given, this round's full and asymmetric partitions between
// the nodes named in `names`.  So an all-zero spec heals every fault except
// a torn push that is armed and not yet spent.  `realm` and `net` may be
// null (those draws are skipped; the per-replica schedule is the same either
// way).
void ArmRound(const ReplFaultSpec& spec, const std::vector<ReplicaServer*>& replicas,
              KerberosRealm* realm, int round, NetworkPartition* net = nullptr,
              const std::vector<std::string>& names = {});

}  // namespace moira

#endif  // MOIRA_SRC_REPL_REPL_FAULT_H_
