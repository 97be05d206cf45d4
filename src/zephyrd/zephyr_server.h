// Zephyr server substrate (paper section 5.8.2): loads the per-class ACL
// files Moira propagates and enforces the transmit function — the actual
// consumer of the *.acl files the ZEPHYR DCM service ships.
#ifndef MOIRA_SRC_ZEPHYRD_ZEPHYR_SERVER_H_
#define MOIRA_SRC_ZEPHYRD_ZEPHYR_SERVER_H_

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "src/update/sim_host.h"
#include "src/zephyrd/zephyr_bus.h"

namespace moira {

// Per-class access control state parsed from a <class>.acl file: the four
// function sections (xmt/sub/iws/iui), each either the wildcard or a set of
// principals.
struct ZephyrClassAcl {
  struct Function {
    bool wildcard = false;             // "*.*@*": unrestricted
    std::set<std::string> principals;  // "login@REALM" entries
  };
  Function xmt;
  Function sub;
  Function iws;
  Function iui;
};

class ZephyrServerSim {
 public:
  explicit ZephyrServerSim(SimHost* host) : host_(host) {}

  // Reloads all <class>.acl files under `dir` from the host filesystem (the
  // restart_zephyrd install command).  Returns 0 on success, 1 on a parse
  // error.
  int ReloadAcls(const std::string& dir);

  size_t class_count() const { return classes_.size(); }
  int reload_count() const { return reload_count_; }
  const ZephyrClassAcl* FindClass(std::string_view klass) const;

  // Enforcement: may `principal` ("login@REALM") transmit on the class?  An
  // unknown class is uncontrolled (allowed), matching zephyr's default-open
  // classes.
  bool MayTransmit(std::string_view klass, std::string_view principal) const;

 private:
  static bool Allowed(const ZephyrClassAcl::Function& function,
                      std::string_view principal);

  SimHost* host_;
  std::map<std::string, ZephyrClassAcl, std::less<>> classes_;
  int reload_count_ = 0;
};

// Registers the "restart_zephyrd" exec command on `host`.
void InstallZephyrReloadCommand(SimHost* host, ZephyrServerSim* server,
                                const std::string& acl_dir = "/etc/athena/zephyr/acl");

}  // namespace moira

#endif  // MOIRA_SRC_ZEPHYRD_ZEPHYR_SERVER_H_
