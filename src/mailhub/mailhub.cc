#include "src/mailhub/mailhub.h"

#include <set>

#include "src/common/strutil.h"

namespace moira {

int MailhubSim::InstallStagedAliases(const std::string& staged_path) {
  FileBytes staged = host_->ShareFile(staged_path);
  if (staged == nullptr) {
    return -1;
  }
  // The switchover: the staged file becomes the live aliases file.
  host_->WriteFileDirect("/usr/lib/aliases", staged);
  aliases_.clear();
  size_t pos = 0;
  const std::string& contents = *staged;
  while (pos <= contents.size()) {
    size_t eol = contents.find('\n', pos);
    std::string_view line = eol == std::string::npos
                                ? std::string_view(contents).substr(pos)
                                : std::string_view(contents).substr(pos, eol - pos);
    pos = eol == std::string::npos ? contents.size() + 1 : eol + 1;
    line = TrimWhitespace(line);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      continue;  // sendmail ignores malformed lines rather than failing
    }
    std::string name(TrimWhitespace(line.substr(0, colon)));
    std::vector<std::string> targets;
    for (const std::string& part : Split(std::string(line.substr(colon + 1)), ',')) {
      std::string_view target = TrimWhitespace(part);
      if (!target.empty()) {
        targets.emplace_back(target);
      }
    }
    aliases_[name] = std::move(targets);
  }
  return static_cast<int>(aliases_.size());
}

std::vector<std::string> MailhubSim::Route(std::string_view recipient) const {
  std::vector<std::string> finals;
  std::set<std::string> seen;
  std::vector<std::string> frontier{std::string(recipient)};
  while (!frontier.empty()) {
    std::string current = std::move(frontier.back());
    frontier.pop_back();
    if (!seen.insert(current).second) {
      continue;  // alias cycle: each node expands once
    }
    auto it = aliases_.find(current);
    if (it != aliases_.end()) {
      for (const std::string& target : it->second) {
        frontier.push_back(target);
      }
      continue;
    }
    // No alias entry: final iff it routes somewhere concrete (an address
    // with a host part); a bare local name with no alias is unknown.
    if (current.find('@') != std::string::npos) {
      finals.push_back(std::move(current));
    }
  }
  return finals;
}

int MailhubSim::Deliver(std::string_view recipient, std::string_view message) {
  std::vector<std::string> targets = Route(recipient);
  for (const std::string& address : targets) {
    mailboxes_[address].emplace_back(message);
  }
  return static_cast<int>(targets.size());
}

const std::vector<std::string>& MailhubSim::Mailbox(std::string_view address) const {
  static const std::vector<std::string> kEmpty;
  auto it = mailboxes_.find(address);
  return it != mailboxes_.end() ? it->second : kEmpty;
}

}  // namespace moira
