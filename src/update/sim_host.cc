#include "src/update/sim_host.h"

#include <algorithm>

#include "src/comerr/moira_errors.h"
#include "src/common/checksum.h"
#include "src/common/fault_schedule.h"
#include "src/common/strutil.h"
#include "src/update/patch.h"

namespace moira {

SimHost::SimHost(std::string name, KerberosRealm* realm, const Clock* clock)
    : name_(std::move(name)),
      verifier_(kUpdateServiceName, realm->RegisterService(kUpdateServiceName), clock) {}

bool SimHost::HasFile(std::string_view path) const { return files_.contains(path); }

const std::string* SimHost::ReadFile(std::string_view path) const {
  auto it = files_.find(path);
  return it != files_.end() ? it->second.get() : nullptr;
}

FileBytes SimHost::ShareFile(std::string_view path) const {
  auto it = files_.find(path);
  return it != files_.end() ? it->second : nullptr;
}

void SimHost::WriteFileDirect(std::string_view path, std::string contents) {
  WriteFileDirect(path, MakeFileBytes(std::move(contents)));
}

void SimHost::WriteFileDirect(std::string_view path, FileBytes contents) {
  if (path == session_target_) {
    session_archive_.reset();
  }
  files_[std::string(path)] = std::move(contents);
}

void SimHost::RemoveFile(std::string_view path) {
  if (path == session_target_) {
    session_archive_.reset();
  }
  auto it = files_.find(path);
  if (it != files_.end()) {
    files_.erase(it);
  }
}

std::vector<std::string> SimHost::ListFiles(std::string_view prefix) const {
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end() && it->first.starts_with(prefix);
       ++it) {
    out.push_back(it->first);
  }
  return out;
}

void SimHost::SetFailMode(HostFailMode mode, int count) {
  fail_mode_ = mode;
  fail_count_ = count;
}

void SimHost::Reboot() {
  crashed_ = false;
  session_open_ = false;
  session_target_.clear();
  session_archive_.reset();
  session_script_.clear();
}

bool SimHost::ConsumeFailMode(HostFailMode mode) {
  if (fail_mode_ != mode || fail_count_ <= 0) {
    return false;
  }
  if (--fail_count_ == 0) {
    fail_mode_ = HostFailMode::kNone;
  }
  return true;
}

int32_t SimHost::BeginSession(std::string_view authenticator) {
  ++connect_attempts_;
  if (crashed_) {
    return MR_UPDATE_CONN;
  }
  if (ConsumeFailMode(HostFailMode::kRefuseConnection) ||
      ConsumeFailMode(HostFailMode::kFlaky)) {
    return MR_UPDATE_CONN;
  }
  VerifiedIdentity identity;
  if (int32_t code = verifier_.Verify(authenticator, &identity); code != MR_SUCCESS) {
    return MR_BAD_AUTH;
  }
  session_open_ = true;
  session_target_.clear();
  session_archive_.reset();
  session_script_.clear();
  return MR_SUCCESS;
}

int32_t SimHost::ReceiveFile(const std::string& target, std::string_view data,
                             uint32_t crc) {
  if (crashed_ || !session_open_) {
    return MR_UPDATE_CONN;
  }
  std::string temp_path = target + kUpdateSuffix;
  // An existing temp file may be incomplete from a crashed update; it is
  // deleted when the next update starts (paper section 5.9 trouble recovery).
  RemoveFile(temp_path);
  if (ConsumeFailMode(HostFailMode::kCrashDuringTransfer)) {
    // Partial write, then the machine goes down.
    WriteFileDirect(temp_path, std::string(data.substr(0, data.size() / 2)));
    crashed_ = true;
    session_open_ = false;
    return MR_UPDATE_XFER;
  }
  if (ConsumeFailMode(HostFailMode::kSlow)) {
    // The transfer completes but takes so long the client's transfer-phase
    // deadline expires.  Only a simulated clock can be stalled.
    if (sim_clock_ != nullptr) {
      sim_clock_->Advance(slow_seconds_);
    }
  }
  if (ConsumeFailMode(HostFailMode::kCorruptTransfer) || Crc32(data) != crc) {
    return MR_UPDATE_CKSUM;
  }
  // Complete transfer: the temp file is atomically renamed onto the target.
  WriteFileDirect(target, std::string(data));
  session_target_ = target;
  session_archive_.reset();
  return MR_SUCCESS;
}

int32_t SimHost::ReceiveScript(std::string_view script_text) {
  if (crashed_ || !session_open_) {
    return MR_UPDATE_CONN;
  }
  session_script_ = std::string(script_text);
  return MR_SUCCESS;
}

int32_t SimHost::Flush() {
  if (crashed_ || !session_open_) {
    return MR_UPDATE_CONN;
  }
  if (ConsumeFailMode(HostFailMode::kCrashBeforeExecute)) {
    crashed_ = true;
    session_open_ = false;
    return MR_UPDATE_CONN;
  }
  return MR_SUCCESS;
}

int32_t SimHost::RunInstruction(std::string_view line, std::string* errmsg) {
  std::string_view trimmed = TrimWhitespace(line);
  if (trimmed.empty() || trimmed[0] == '#') {
    return MR_SUCCESS;
  }
  std::vector<std::string> words = Split(std::string(trimmed), ' ');
  const std::string& op = words[0];
  if (op == "extract" && words.size() == 3) {
    // extract <member> <dest>: pull a member from the transferred archive
    // into <dest>.moira_update (one at a time, as the paper specifies).
    const std::vector<ArchiveMemberView>* members = SessionArchive(errmsg);
    if (members == nullptr) {
      return MR_UPDATE_EXEC;
    }
    auto member = std::find_if(members->begin(), members->end(),
                               [&](const ArchiveMemberView& m) { return m.name == words[1]; });
    if (member == members->end()) {
      *errmsg = "archive member not found: " + words[1];
      return MR_UPDATE_EXEC;
    }
    WriteFileDirect(words[2] + kUpdateSuffix, std::string(member->contents));
    return MR_SUCCESS;
  }
  if (op == "syncdir" && words.size() == 2) {
    // syncdir <dir>: install every archive member at <dir>/<member> as an
    // extract and install of each would, leaving no temp file.  The members
    // are copied out first, since a write may replace the data file.
    const std::vector<ArchiveMemberView>* members = SessionArchive(errmsg);
    if (members == nullptr) {
      return MR_UPDATE_EXEC;
    }
    std::vector<std::pair<std::string, FileBytes>> staged;
    staged.reserve(members->size());
    for (const ArchiveMemberView& member : *members) {
      staged.emplace_back(words[1] + "/" + std::string(member.name),
                          MakeFileBytes(std::string(member.contents)));
    }
    for (auto& [dest, contents] : staged) {
      FlushWrites(dest, std::move(contents));
      RemoveFile(dest + kUpdateSuffix);
    }
    return MR_SUCCESS;
  }
  if (op == "applypatch" && words.size() == 1) {
    // applypatch: the transferred data file is an ArchivePatch.  Two phases:
    // first verify every base CRC and compute every result (nothing is
    // touched if any file mismatches), then install them all.
    const std::string* payload = ReadFile(session_target_);
    if (payload == nullptr) {
      *errmsg = "no transferred data file";
      return MR_UPDATE_EXEC;
    }
    std::optional<ArchivePatch> patch = ArchivePatch::Parse(*payload);
    if (!patch.has_value()) {
      *errmsg = "transferred file is not a valid patch";
      return MR_UPDATE_EXEC;
    }
    std::vector<std::pair<std::string, FileBytes>> staged;
    staged.reserve(patch->size());
    for (const FilePatch& file : patch->files()) {
      const std::string* base = ReadFile(file.path);
      std::optional<std::string> result =
          ApplyFilePatch(base != nullptr ? std::string_view(*base)
                                         : std::string_view(),
                         file);
      if (!result.has_value()) {
        *errmsg = "patch base mismatch: " + file.path;
        return MR_UPDATE_PATCH;
      }
      staged.emplace_back(file.path, MakeFileBytes(std::move(*result)));
    }
    for (auto& [path, contents] : staged) {
      FlushWrites(path, std::move(contents));
    }
    return MR_SUCCESS;
  }
  if (op == "install" && words.size() == 2) {
    // Atomic rename swap: current file to .moira_backup, .moira_update in.
    // Both "files" live in the same map, mirroring same-partition renames.
    auto temp_it = files_.find(words[1] + kUpdateSuffix);
    if (temp_it == files_.end()) {
      *errmsg = "nothing to install for " + words[1];
      return MR_UPDATE_EXEC;
    }
    FlushWrites(words[1], std::move(temp_it->second));
    RemoveFile(words[1] + kUpdateSuffix);
    return MR_SUCCESS;
  }
  if (op == "revert" && words.size() == 2) {
    auto backup_it = files_.find(words[1] + kBackupSuffix);
    if (backup_it == files_.end()) {
      *errmsg = "no backup to revert for " + words[1];
      return MR_UPDATE_EXEC;
    }
    WriteFileDirect(words[1], std::move(backup_it->second));
    RemoveFile(words[1] + kBackupSuffix);
    return MR_SUCCESS;
  }
  if (op == "signal" && words.size() == 2) {
    // The process id is read from the named file at execution time.
    if (!HasFile(words[1])) {
      *errmsg = "pid file missing: " + words[1];
      return MR_UPDATE_EXEC;
    }
    signals_sent_.push_back(words[1]);
    return MR_SUCCESS;
  }
  if (op == "exec" && words.size() >= 2) {
    std::string command = std::string(trimmed.substr(5));
    executed_commands_.push_back(command);
    auto handler = commands_.find(words[1]);
    if (handler != commands_.end()) {
      int status = handler->second(*this);
      if (status != 0) {
        *errmsg = "command exited " + std::to_string(status) + ": " + command;
        return MR_UPDATE_EXEC;
      }
    }
    return MR_SUCCESS;
  }
  *errmsg = "unknown instruction: " + std::string(trimmed);
  return MR_UPDATE_EXEC;
}

void SimHost::FlushWrites(const std::string& path, FileBytes contents) {
  auto current = files_.find(path);
  if (current != files_.end()) {
    WriteFileDirect(path + kBackupSuffix, std::move(current->second));
  }
  if (ConsumeFailMode(HostFailMode::kTornFlush)) {
    // Silent partial write: the caller (and thus the DCM) still sees
    // success, so the host's lts advances over a torn file.
    contents = MakeFileBytes(contents->substr(0, contents->size() / 2));
  }
  WriteFileDirect(path, std::move(contents));
}

const std::vector<ArchiveMemberView>* SimHost::SessionArchive(std::string* errmsg) {
  if (!session_archive_.has_value()) {
    const std::string* payload = ReadFile(session_target_);
    if (payload == nullptr) {
      *errmsg = "no transferred data file";
      return nullptr;
    }
    session_archive_ = Archive::ParseViews(*payload);
    if (!session_archive_.has_value()) {
      *errmsg = "transferred file is not a valid archive";
      return nullptr;
    }
  }
  return &*session_archive_;
}

int32_t SimHost::ExecuteInstructions(std::string* errmsg) {
  if (crashed_ || !session_open_) {
    return MR_UPDATE_CONN;
  }
  if (ConsumeFailMode(HostFailMode::kScriptError)) {
    *errmsg = "install script failed (injected)";
    session_open_ = false;
    return MR_UPDATE_EXEC;
  }
  bool crash_mid_execute = ConsumeFailMode(HostFailMode::kCrashDuringExecute);
  int executed = 0;
  size_t pos = 0;
  const std::string& script = session_script_;
  while (pos <= script.size()) {
    size_t eol = script.find('\n', pos);
    std::string_view line = eol == std::string::npos
                                ? std::string_view(script).substr(pos)
                                : std::string_view(script).substr(pos, eol - pos);
    pos = eol == std::string::npos ? script.size() + 1 : eol + 1;
    if (TrimWhitespace(line).empty()) {
      continue;
    }
    if (crash_mid_execute && executed == 1) {
      crashed_ = true;
      session_open_ = false;
      return MR_UPDATE_CONN;
    }
    if (int32_t code = RunInstruction(line, errmsg); code != MR_SUCCESS) {
      session_open_ = false;
      return code;
    }
    ++executed;
  }
  ++update_count_;
  session_open_ = false;
  return MR_SUCCESS;
}

void SimHost::RegisterCommand(std::string command, std::function<int(SimHost&)> handler) {
  commands_[std::move(command)] = std::move(handler);
}

void ArmPass(const FaultPlanSpec& spec, const std::vector<std::unique_ptr<SimHost>>& hosts,
             int pass) {
  const FaultSchedule schedule(spec.seed);
  for (size_t i = 0; i < hosts.size(); ++i) {
    SimHost* host = hosts[i].get();
    FaultDice dice = schedule.Dice(pass, i);
    host->SetFailMode(HostFailMode::kNone, 0);
    if (dice.Roll(spec.down_permille)) {
      // Down for the whole pass, however many attempts the client makes.
      host->SetFailMode(HostFailMode::kRefuseConnection, 1 << 20);
    } else if (dice.Roll(spec.flaky_permille)) {
      host->SetFailMode(HostFailMode::kFlaky, spec.flaky_fail_count);
    } else if (dice.Roll(spec.slow_permille)) {
      host->SetSlowDelay(spec.slow_seconds);
      host->SetFailMode(HostFailMode::kSlow, 1);
    } else if (dice.Roll(spec.corrupt_permille)) {
      host->SetFailMode(HostFailMode::kCorruptTransfer, 1);
    } else if (dice.Roll(spec.torn_permille)) {
      host->SetFailMode(HostFailMode::kTornFlush, 1);
    }
  }
}

void ArmDirectories(const FaultPlanSpec& spec, KerberosRealm* realm,
                    HostDirectory* directory, int pass) {
  const FaultSchedule schedule(spec.seed);
  ArmKdcOutage(schedule, pass, spec.kdc_down_permille, realm);
  if (directory != nullptr) {
    directory->SetDown(
        schedule.Dice(pass, FaultSchedule::kHesiodTarget).Roll(spec.hesiod_down_permille));
  }
}

void HostDirectory::Register(SimHost* host) { hosts_[host->name()] = host; }

SimHost* HostDirectory::Find(std::string_view name) const {
  if (down_) {
    return nullptr;  // Hesiod outage: resolution fails until the next arm
  }
  auto it = hosts_.find(name);
  return it != hosts_.end() ? it->second : nullptr;
}

}  // namespace moira
