// Simulated server hosts (DESIGN.md substitution for the paper's real Hesiod,
// NFS, mail-hub, and Zephyr machines).
//
// Each SimHost has its own in-memory filesystem and implements the server
// side of the Moira-to-server update protocol (paper section 5.9): verify the
// DCM's authenticator, receive the data file (with checksum) and the install
// instruction sequence into temporary files, then on command execute the
// instructions — extract archive members, swap files in with atomic renames,
// revert, signal processes, execute commands.  Failure injection covers every
// trouble-recovery scenario the paper enumerates.
#ifndef MOIRA_SRC_UPDATE_SIM_HOST_H_
#define MOIRA_SRC_UPDATE_SIM_HOST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/krb/kerberos.h"
#include "src/update/archive.h"

namespace moira {

// The Kerberos service name used for DCM-to-server updates.
inline constexpr char kUpdateServiceName[] = "moira_update";

// Suffixes used by the install protocol.
inline constexpr char kUpdateSuffix[] = ".moira_update";
inline constexpr char kBackupSuffix[] = ".moira_backup";

enum class HostFailMode {
  kNone,
  kRefuseConnection,     // connect refused: soft error, retried later
  kCrashDuringTransfer,  // host crashes mid-transfer; temp file incomplete
  kCrashBeforeExecute,   // transfer completes, crash before the install command
  kCrashDuringExecute,   // crash after the first install instruction
  kScriptError,          // install script exits non-zero: hard error
  kFlaky,                // refuse the next `count` attempts, then heal
  kSlow,                 // transfer succeeds but stalls past the deadline
  kCorruptTransfer,      // bits flip in flight: checksum mismatch, soft
  kTornFlush,            // one installed file is silently truncated mid-flush:
                         // the update reports success, so only the next
                         // patch's base-CRC check can catch it
};

class SimHost {
 public:
  SimHost(std::string name, KerberosRealm* realm, const Clock* clock);

  SimHost(const SimHost&) = delete;
  SimHost& operator=(const SimHost&) = delete;

  const std::string& name() const { return name_; }

  // --- filesystem ---
  // Each file is one FileBytes buffer: an install, a backup and a revert move
  // references, and a reader may share the buffer instead of copying it.
  bool HasFile(std::string_view path) const;
  // The file's bytes, or nullptr.  The pointer is valid until `path` is next
  // written or removed, so no caller may hold it across such a write; a
  // caller that needs the bytes longer shares them with ShareFile.
  const std::string* ReadFile(std::string_view path) const;
  // The file's buffer, or null.  It keeps its bytes whatever later happens
  // to `path`.
  FileBytes ShareFile(std::string_view path) const;
  // The string overload puts `contents` in a new buffer; the FileBytes
  // overload installs a reference to `contents`, which must not be null.
  void WriteFileDirect(std::string_view path, std::string contents);
  void WriteFileDirect(std::string_view path, FileBytes contents);
  void RemoveFile(std::string_view path);
  // Paths that start with `prefix` (every path by default), in path order.
  std::vector<std::string> ListFiles(std::string_view prefix = {}) const;

  // --- failure injection and crash/reboot simulation ---
  // Arms `mode` for the next `count` update attempts, then reverts to kNone.
  void SetFailMode(HostFailMode mode, int count = 1);
  // How long a kSlow transfer stalls (advances the attached simulated clock).
  void SetSlowDelay(UnixTime seconds) { slow_seconds_ = seconds; }
  // kSlow needs to move time forward; only a simulated clock can.
  void AttachSimClock(SimulatedClock* clock) { sim_clock_ = clock; }
  bool crashed() const { return crashed_; }
  // Brings a crashed host back up.  Installed files survive; per the paper,
  // stale temporaries are cleaned when the next update starts, not at boot.
  void Reboot();

  // --- update protocol, server side ---
  // Phase A step 1: authentication.  MR_UPDATE_CONN if down/refusing,
  // MR_BAD_AUTH on a bad authenticator.
  int32_t BeginSession(std::string_view authenticator);
  // Phase A step 2: transfer the data file to `target`.  Stale `.moira_update`
  // temporaries for this target are deleted first (paper section 5.9 B).
  int32_t ReceiveFile(const std::string& target, std::string_view data, uint32_t crc);
  // Phase A step 3: transfer the instruction sequence.
  int32_t ReceiveScript(std::string_view script_text);
  // Phase A step 4: flush to disk (no-op in memory, but honours crash modes).
  int32_t Flush();
  // Phase B + C: execute the instruction sequence; returns the script's exit
  // status as an error code and fills `errmsg`.
  int32_t ExecuteInstructions(std::string* errmsg);

  // --- observability for tests ---
  const std::vector<std::string>& executed_commands() const { return executed_commands_; }
  const std::vector<std::string>& signals_sent() const { return signals_sent_; }
  int update_count() const { return update_count_; }
  // Connection attempts received (successful or refused): quarantined hosts
  // should stop accumulating these while their breaker is open.
  int connect_attempts() const { return connect_attempts_; }
  // The currently armed fault (what ArmPass drew for this pass).
  HostFailMode fail_mode() const { return fail_mode_; }
  int fail_count() const { return fail_count_; }

  // Registers a handler for `exec <command>` instructions (e.g. restarting a
  // hesiod server).  The handler's return value is the command exit status.
  void RegisterCommand(std::string command, std::function<int(SimHost&)> handler);

 private:
  bool ConsumeFailMode(HostFailMode mode);
  int32_t RunInstruction(std::string_view line, std::string* errmsg);
  // Installs `contents` at `path` with the backup discipline shared by
  // install/syncdir/applypatch: the current buffer becomes the backup.  A
  // kTornFlush draw installs a new buffer holding the first half of
  // `contents` (a shared buffer is never edited) but still reports success —
  // the torn file is only caught later, by the next patch's base-CRC
  // verification.
  void FlushWrites(const std::string& path, FileBytes contents);
  // The session's data file parsed as an archive, on its first use in the
  // session; nullptr, with `errmsg` set, if the file is missing or not a
  // valid archive.
  const std::vector<ArchiveMemberView>* SessionArchive(std::string* errmsg);

  std::string name_;
  ServiceVerifier verifier_;
  std::map<std::string, FileBytes, std::less<>> files_;
  std::map<std::string, std::function<int(SimHost&)>, std::less<>> commands_;
  std::vector<std::string> executed_commands_;
  std::vector<std::string> signals_sent_;
  HostFailMode fail_mode_ = HostFailMode::kNone;
  int fail_count_ = 0;
  SimulatedClock* sim_clock_ = nullptr;
  UnixTime slow_seconds_ = kSecondsPerHour;
  bool crashed_ = false;
  bool session_open_ = false;
  std::string session_target_;  // target of the current session's data file
  // Views into files_[session_target_], parsed once per session and dropped
  // whenever that file is written or removed (every write goes through
  // WriteFileDirect and every removal through RemoveFile).
  std::optional<std::vector<ArchiveMemberView>> session_archive_;
  std::string session_script_;
  int update_count_ = 0;
  int connect_attempts_ = 0;
};

// A directory of hosts the DCM can reach, keyed by canonical machine name —
// the stand-in for Hesiod name resolution.  An injected outage makes every
// lookup fail temporarily (Find returns nullptr), which callers must treat
// as a soft, retry-later condition rather than a missing host.
class HostDirectory {
 public:
  void Register(SimHost* host);
  SimHost* Find(std::string_view name) const;
  size_t size() const { return hosts_.size(); }

  void SetDown(bool down) { down_ = down; }
  bool down() const { return down_; }

 private:
  std::map<std::string, SimHost*, std::less<>> hosts_;
  bool down_ = false;
};

// Deterministic fleet-wide fault injection: before each DCM pass, every host
// draws its fault mode for that pass from the FaultSchedule stream of
// (seed, pass, host index), so the same spec replays the exact same fault
// schedule no matter how many passes a configuration needs to converge.
struct FaultPlanSpec {
  uint64_t seed = 1988;
  // Per-pass probability (permille) that a host is flaky: it refuses the
  // first `flaky_fail_count` attempts of the pass, then heals.
  int flaky_permille = 0;
  int flaky_fail_count = 2;
  // Probability that a host is down for the whole pass (refuses everything).
  int down_permille = 0;
  // Probability that a host's transfer stalls past the phase deadline.
  int slow_permille = 0;
  UnixTime slow_seconds = kSecondsPerHour;
  // Probability that the transferred bytes are corrupted (checksum mismatch).
  int corrupt_permille = 0;
  // Probability that one installed file tears mid-flush (silent truncation:
  // the update still reports success; self-healing relies on the next
  // patch's base-CRC check forcing a full ship).
  int torn_permille = 0;
  // Directory-server outages: probability per pass that the KDC refuses
  // ticket requests, and that Hesiod (the HostDirectory) fails lookups.
  // Already-issued tickets keep working, so cached-ticket paths ride out a
  // KDC blip.
  int kdc_down_permille = 0;
  int hesiod_down_permille = 0;
};

// Arms each host's fail mode for pass number `pass` (0-based).  Hosts not
// selected by any draw are reset to healthy, so an all-zero spec heals the
// fleet.
void ArmPass(const FaultPlanSpec& spec, const std::vector<std::unique_ptr<SimHost>>& hosts,
             int pass);

// Arms the directory servers for pass number `pass` from the schedule's
// reserved KDC and Hesiod targets.  Both are always set, so an all-zero spec
// brings them back up.  Either pointer may be null.
void ArmDirectories(const FaultPlanSpec& spec, KerberosRealm* realm,
                    HostDirectory* directory, int pass);

}  // namespace moira

#endif  // MOIRA_SRC_UPDATE_SIM_HOST_H_
