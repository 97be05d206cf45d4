#include "src/zephyrd/zephyr_server.h"

#include "src/common/strutil.h"

namespace moira {
namespace {

// Parses one .acl file: "; xmt" style section headers followed by principal
// lines or the "*.*@*" wildcard (the format gen_zephyr.cc emits).
bool ParseAcl(const std::string& contents, ZephyrClassAcl* out) {
  ZephyrClassAcl::Function* current = nullptr;
  size_t pos = 0;
  while (pos <= contents.size()) {
    size_t eol = contents.find('\n', pos);
    std::string_view line = eol == std::string::npos
                                ? std::string_view(contents).substr(pos)
                                : std::string_view(contents).substr(pos, eol - pos);
    pos = eol == std::string::npos ? contents.size() + 1 : eol + 1;
    line = TrimWhitespace(line);
    if (line.empty()) {
      continue;
    }
    if (line[0] == ';') {
      std::string_view section = TrimWhitespace(line.substr(1));
      if (section == "xmt") {
        current = &out->xmt;
      } else if (section == "sub") {
        current = &out->sub;
      } else if (section == "iws") {
        current = &out->iws;
      } else if (section == "iui") {
        current = &out->iui;
      } else {
        return false;
      }
      continue;
    }
    if (current == nullptr) {
      return false;
    }
    if (line == "*.*@*") {
      current->wildcard = true;
    } else {
      current->principals.insert(std::string(line));
    }
  }
  return true;
}

}  // namespace

int ZephyrServerSim::ReloadAcls(const std::string& dir) {
  std::string prefix = dir + "/";
  std::map<std::string, ZephyrClassAcl, std::less<>> fresh;
  for (const std::string& path : host_->ListFiles(prefix)) {
    if (!path.ends_with(".acl")) {
      continue;
    }
    std::string klass = path.substr(prefix.size(), path.size() - prefix.size() - 4);
    ZephyrClassAcl acl;
    if (!ParseAcl(*host_->ReadFile(path), &acl)) {
      return 1;
    }
    fresh.emplace(std::move(klass), std::move(acl));
  }
  classes_ = std::move(fresh);
  ++reload_count_;
  return 0;
}

const ZephyrClassAcl* ZephyrServerSim::FindClass(std::string_view klass) const {
  auto it = classes_.find(klass);
  return it != classes_.end() ? &it->second : nullptr;
}

bool ZephyrServerSim::Allowed(const ZephyrClassAcl::Function& function,
                              std::string_view principal) {
  return function.wildcard || function.principals.contains(std::string(principal));
}

bool ZephyrServerSim::MayTransmit(std::string_view klass, std::string_view principal) const {
  const ZephyrClassAcl* acl = FindClass(klass);
  return acl == nullptr || Allowed(acl->xmt, principal);
}

void InstallZephyrReloadCommand(SimHost* host, ZephyrServerSim* server,
                                const std::string& acl_dir) {
  host->RegisterCommand("restart_zephyrd", [server, acl_dir](SimHost&) {
    return server->ReloadAcls(acl_dir);
  });
}

}  // namespace moira
