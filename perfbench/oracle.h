// The benchmark's answer oracle.
//
// SiteModel is read from the database once, right after SiteBuilder::Build
// and before any timed operation; from then on the benchmark updates it only
// from the writes it saw acknowledged.  Every answer the program gives is
// checked against it, using the access rules the paper states: a user may
// read and change their own records, anyone may read public information, a
// list's ACE and the database administrators may see a hidden list, and a
// dbadmin member may do everything.  An answer that disagrees is counted as a
// failure, by class; it never stops the run.
#ifndef MOIRA_PERFBENCH_ORACLE_H_
#define MOIRA_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/context.h"
#include "src/core/registry.h"

namespace perfbench {

struct UserInfo {
  std::string login;  // "#<uid>" until registered
  int64_t users_id = 0;
  int64_t uid = 0;
  std::string first;
  std::string last;
  std::string middle;
  int64_t status = 0;
  std::string shell;
  std::string fullname;
  std::string potype;
  int index = -1;  // generation index: ID number 910000000 + index (-1: admin)
};

struct ListInfo {
  std::string name;
  bool hidden = false;
  bool is_public = false;
  int64_t ace_user = 0;      // users_id of a USER ACE (0: another ACE type)
  std::set<int64_t> users;   // direct USER members
  size_t other_members = 0;  // LIST and STRING members
};

using Partition = std::pair<std::string, std::string>;  // (machine, directory)

class SiteModel {
 public:
  // Reads the generated site.  `admin` is the dbadmin member's login.
  static SiteModel Read(moira::MoiraContext& mc, const std::string& admin);

  const std::string& admin() const { return admin_; }
  const UserInfo* User(std::string_view login) const;
  UserInfo* MutableUser(std::string_view login);
  const UserInfo* UserById(int64_t users_id) const;
  const UserInfo* UserByIndex(int index) const;
  const ListInfo* List(std::string_view name) const;
  // Names of the lists `users_id` is a direct member of.
  const std::set<std::string>& ListsOf(int64_t users_id) const;

  // Logins of active users other than the admin, in users_id order.
  const std::vector<std::string>& active_logins() const { return active_logins_; }
  // Every list name, in list_id order.
  const std::vector<std::string>& list_names() const { return list_names_; }
  // Public lists any user may join or leave.
  const std::vector<std::string>& public_lists() const { return public_lists_; }
  // Project group lists (Hesiod grplist entries), not personal groups.
  const std::vector<std::string>& group_lists() const { return group_lists_; }
  // Generation indexes of users still on the registrar's tape (status 0).
  const std::vector<int>& unregistered() const { return unregistered_; }
  const std::vector<Partition>& partitions() const { return partitions_; }
  const std::vector<std::string>& clusters() const { return clusters_; }

  size_t ClusterMachines(const std::string& cluster) const;
  // Users whose first name is `first` and whose last name starts with
  // `last_prefix`.
  size_t UsersNamed(std::string_view first, std::string_view last_prefix) const;
  // login -> quota on one partition.
  const std::map<std::string, int64_t>& Quotas(const Partition& partition) const;
  const Partition* HomePartition(std::string_view login) const;

  // Updates after acknowledged writes.
  void SetQuota(const std::string& login, int64_t quota);
  void AddMember(const std::string& list, int64_t users_id);
  void RemoveMember(const std::string& list, int64_t users_id);
  // A registration: the tape row `index` now has `login`, is active, has a
  // POP box and a personal group list.
  void Register(int index, const std::string& login);

 private:
  std::string admin_;
  std::vector<UserInfo> users_;
  std::map<std::string, size_t, std::less<>> by_login_;
  std::map<int64_t, size_t> by_id_;
  std::map<int, size_t> by_index_;
  std::map<std::string, ListInfo, std::less<>> lists_;
  std::map<int64_t, std::set<std::string>> lists_of_;
  std::vector<std::string> active_logins_;
  std::vector<std::string> list_names_;
  std::vector<std::string> public_lists_;
  std::vector<std::string> group_lists_;
  std::vector<int> unregistered_;
  std::vector<Partition> partitions_;
  std::vector<std::string> clusters_;
  std::map<std::string, size_t> cluster_machines_;
  std::map<Partition, std::map<std::string, int64_t>> quotas_;
  std::map<std::string, Partition, std::less<>> home_;
};

// One answer from the program: the final code and the tuples it streamed.
struct Answer {
  int32_t code = 0;
  std::vector<moira::Tuple> tuples;
};

enum class Verdict {
  kOk,
  kRefused,  // an error where the site and the rules imply success
  kWrong,    // wrong data, or success where the rules imply a refusal
};

struct Check {
  Verdict verdict = Verdict::kOk;
  std::string failure_class;  // empty when kOk
};

// Checks a retrieve query's answer.  Reads do not change the model.
Check CheckRead(const SiteModel& site, std::string_view principal, std::string_view query,
                const std::vector<std::string>& args, const Answer& answer);

// Checks a mutation's answer and, when the program acknowledged it as the
// rules say it should, applies it to the model.
Check CheckWrite(SiteModel* site, std::string_view principal, std::string_view query,
                 const std::vector<std::string>& args, const Answer& answer);

// True for the failure classes of the defects known today (README.md): the
// administrator refused a hidden list, a registration that bypasses the
// journal, and the replicas then failing to apply the new student's list add.
bool ExpectedFailure(std::string_view failure_class);

// Counts operations attempted and failed, per failure class.
class Ledger {
 public:
  void Record(const Check& check);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // False once any failure is not one of the expected classes: wrong data, a
  // refusal the rules do not imply, or a change a consumer still does not
  // serve after its pass.
  bool correct() const { return unexpected_ == 0; }
  const std::map<std::string, uint64_t>& classes() const { return classes_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t unexpected_ = 0;
  std::map<std::string, uint64_t> classes_;
};

}  // namespace perfbench

#endif  // MOIRA_PERFBENCH_ORACLE_H_
