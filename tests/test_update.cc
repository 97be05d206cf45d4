// Tests for the archive container, keyed-file patches, the simulated server
// hosts, and the Moira-to-server update protocol (paper section 5.9).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/comerr/moira_errors.h"
#include "src/common/checksum.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/krb/kerberos.h"
#include "src/update/archive.h"
#include "src/update/patch.h"
#include "src/update/sim_host.h"
#include "src/update/update_client.h"

namespace moira {
namespace {

TEST(Archive, RoundTrip) {
  Archive archive;
  archive.Add("passwd.db", "contents-1");
  archive.Add("group.db", std::string("\0binary\xff", 8));
  archive.Add("empty", "");
  std::string bytes = archive.Serialize();
  std::optional<Archive> back = Archive::Parse(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(3u, back->size());
  EXPECT_EQ("contents-1", *back->Find("passwd.db"));
  EXPECT_EQ(std::string("\0binary\xff", 8), *back->Find("group.db"));
  EXPECT_EQ("", *back->Find("empty"));
  EXPECT_EQ(nullptr, back->Find("missing"));
  EXPECT_EQ(18u, back->ContentBytes());
}

TEST(Archive, AddReplacesSameName) {
  Archive archive;
  archive.Add("f", "v1");
  archive.Add("f", "v2");
  EXPECT_EQ(1u, archive.size());
  EXPECT_EQ("v2", *archive.Find("f"));
}

// A FileBytes member is shared, a string member gets a buffer of its own,
// and sharing changes nothing in the serialized bytes.
TEST(Archive, SharedMemberKeepsOneBuffer) {
  const FileBytes shared = MakeFileBytes("shared contents");
  Archive a;
  Archive b;
  a.Add("credentials", shared);
  b.Add("credentials", shared);
  b.Add("u1.dirs", "own contents");
  EXPECT_EQ(shared.get(), a.Find("credentials"));
  EXPECT_EQ(a.Find("credentials"), b.Find("credentials"));
  EXPECT_EQ(shared, b.Share("credentials"));
  EXPECT_EQ(nullptr, b.Share("missing"));
  EXPECT_EQ(shared, a.members()[0].second);
  Archive copied;
  copied.Add("credentials", "shared contents");
  EXPECT_NE(shared.get(), copied.Find("credentials"));
  EXPECT_EQ(copied.Serialize(), a.Serialize());
  std::optional<Archive> back = Archive::Parse(b.Serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ("shared contents", *back->Find("credentials"));
  EXPECT_EQ("own contents", *back->Find("u1.dirs"));
  EXPECT_EQ(27u, back->ContentBytes());
}

TEST(Archive, ParseRejectsCorruption) {
  Archive archive;
  archive.Add("f", "data");
  std::string bytes = archive.Serialize();
  EXPECT_FALSE(Archive::Parse("").has_value());
  EXPECT_FALSE(Archive::Parse("XXXX").has_value());
  EXPECT_FALSE(Archive::Parse(bytes.substr(0, bytes.size() - 1)).has_value());
  std::string flipped = bytes;
  flipped[10] ^= 1;
  EXPECT_FALSE(Archive::Parse(flipped).has_value());
}

class SimHostTest : public ::testing::Test {
 protected:
  SimHostTest()
      : clock_(1000),
        realm_(&clock_),
        host_("SERVER-1.MIT.EDU", &realm_, &clock_),
        client_(&realm_, "moira.dcm", "pw") {
    realm_.AddPrincipal("moira.dcm", "pw");
    Archive archive;
    archive.Add("passwd.db", "passwd contents");
    archive.Add("group.db", "group contents");
    payload_ = archive.Serialize();
  }

  std::string Authenticator() {
    Ticket ticket;
    EXPECT_EQ(MR_SUCCESS,
              realm_.GetInitialTickets("moira.dcm", "pw", kUpdateServiceName, &ticket));
    return realm_.MakeAuthenticator(ticket);
  }

  SimulatedClock clock_;
  KerberosRealm realm_;
  SimHost host_;
  UpdateClient client_;
  std::string payload_;
  const std::string script_ =
      "extract passwd.db /etc/hes/passwd.db\n"
      "install /etc/hes/passwd.db\n"
      "extract group.db /etc/hes/group.db\n"
      "install /etc/hes/group.db\n"
      "exec restart_hesiod\n";
};

TEST_F(SimHostTest, FullUpdateInstallsFiles) {
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/hes.out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
  EXPECT_EQ("passwd contents", *host_.ReadFile("/etc/hes/passwd.db"));
  EXPECT_EQ("group contents", *host_.ReadFile("/etc/hes/group.db"));
  ASSERT_EQ(1u, host_.executed_commands().size());
  EXPECT_EQ("restart_hesiod", host_.executed_commands()[0]);
  EXPECT_EQ(1, host_.update_count());
  // The transferred payload remains at the target path; temp files are gone.
  EXPECT_TRUE(host_.HasFile("/tmp/hes.out"));
  EXPECT_FALSE(host_.HasFile("/etc/hes/passwd.db.moira_update"));
}

TEST_F(SimHostTest, ListFilesWalksOnePrefix) {
  // Neighbours that sort just before ('.' < '/') and just after the prefix.
  for (const char* path : {"/site/moira.old", "/site/moira/credentials", "/site/moira/a.dirs",
                           "/site/moiraX/y", "/site/moir", "/z"}) {
    host_.WriteFileDirect(path, "x");
  }
  EXPECT_EQ((std::vector<std::string>{"/site/moira/a.dirs", "/site/moira/credentials"}),
            host_.ListFiles("/site/moira/"));
  EXPECT_EQ((std::vector<std::string>{"/site/moir", "/site/moira.old", "/site/moira/a.dirs",
                                      "/site/moira/credentials", "/site/moiraX/y", "/z"}),
            host_.ListFiles());
  EXPECT_TRUE(host_.ListFiles("/site/moira/x").empty());
}

TEST_F(SimHostTest, InstallKeepsBackupAndRevertRestores) {
  host_.WriteFileDirect("/etc/hes/passwd.db", "old contents");
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/hes.out", payload_, script_);
  ASSERT_EQ(MR_SUCCESS, outcome.code);
  EXPECT_EQ("old contents", *host_.ReadFile("/etc/hes/passwd.db.moira_backup"));
  // Revert puts the old file back (paper: "may be useful in the case of an
  // erroneous installation").
  outcome = client_.Update(&host_, "/tmp/hes.out", payload_,
                           "revert /etc/hes/passwd.db\n");
  ASSERT_EQ(MR_SUCCESS, outcome.code);
  EXPECT_EQ("old contents", *host_.ReadFile("/etc/hes/passwd.db"));
}

// An install moves the new buffer in and the old one to the backup, and a
// revert moves it back: no step copies a file's bytes.
TEST_F(SimHostTest, InstallAndRevertMoveBuffers) {
  const FileBytes old_bytes = MakeFileBytes("old contents");
  const FileBytes new_bytes = MakeFileBytes("new contents");
  host_.WriteFileDirect("/etc/hes/passwd.db", old_bytes);
  host_.WriteFileDirect("/etc/hes/passwd.db.moira_update", new_bytes);
  EXPECT_EQ(old_bytes.get(), host_.ReadFile("/etc/hes/passwd.db"));
  UpdateOutcome outcome =
      client_.Update(&host_, "/tmp/hes.out", payload_, "install /etc/hes/passwd.db\n");
  ASSERT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
  EXPECT_EQ(new_bytes, host_.ShareFile("/etc/hes/passwd.db"));
  EXPECT_EQ(old_bytes, host_.ShareFile("/etc/hes/passwd.db.moira_backup"));
  EXPECT_FALSE(host_.HasFile("/etc/hes/passwd.db.moira_update"));
  outcome = client_.Update(&host_, "/tmp/hes.out", payload_, "revert /etc/hes/passwd.db\n");
  ASSERT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
  EXPECT_EQ(old_bytes, host_.ShareFile("/etc/hes/passwd.db"));
  EXPECT_FALSE(host_.HasFile("/etc/hes/passwd.db.moira_backup"));
  EXPECT_EQ(nullptr, host_.ShareFile("/etc/hes/passwd.db.moira_backup"));
}

// A torn flush installs a new, truncated buffer: the buffer it was handed
// keeps every byte for whoever else holds it.
TEST_F(SimHostTest, TornFlushLeavesASharedBufferWhole) {
  const FileBytes shared = MakeFileBytes("0123456789");
  host_.WriteFileDirect("/etc/hes/passwd.db.moira_update", shared);
  host_.SetFailMode(HostFailMode::kTornFlush);
  UpdateOutcome outcome =
      client_.Update(&host_, "/tmp/hes.out", payload_, "install /etc/hes/passwd.db\n");
  ASSERT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
  EXPECT_EQ("01234", *host_.ReadFile("/etc/hes/passwd.db"));
  EXPECT_EQ("0123456789", *shared);
}

// A shared buffer outlives its path: a reader keeps the bytes it shared
// after the file is overwritten or removed.
TEST_F(SimHostTest, SharedFileOutlivesItsPath) {
  host_.WriteFileDirect("/site/moira/credentials", "first");
  const FileBytes first = host_.ShareFile("/site/moira/credentials");
  host_.WriteFileDirect("/site/moira/credentials", "second");
  EXPECT_EQ("first", *first);
  EXPECT_EQ("second", *host_.ReadFile("/site/moira/credentials"));
  host_.RemoveFile("/site/moira/credentials");
  EXPECT_EQ(nullptr, host_.ReadFile("/site/moira/credentials"));
  EXPECT_EQ("first", *first);
}

TEST_F(SimHostTest, SyncdirInstallsAllMembers) {
  UpdateOutcome outcome =
      client_.Update(&host_, "/tmp/out", payload_, "syncdir /site/moira\n");
  ASSERT_EQ(MR_SUCCESS, outcome.code);
  EXPECT_EQ("passwd contents", *host_.ReadFile("/site/moira/passwd.db"));
  EXPECT_EQ("group contents", *host_.ReadFile("/site/moira/group.db"));
}

// The host parses the data file once per session; a corrupt archive still
// fails the script at its first extract, before any file is touched.  The
// transfer checksum covers the corrupt bytes, so only the archive's own CRC
// can catch them.
TEST_F(SimHostTest, CorruptArchiveFailsAtFirstExtract) {
  std::string corrupt = payload_;
  corrupt[corrupt.size() / 2] ^= 0x40;
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/hes.out", corrupt, script_);
  EXPECT_EQ(MR_UPDATE_EXEC, outcome.code);
  EXPECT_NE(std::string::npos, outcome.message.find("not a valid archive")) << outcome.message;
  EXPECT_EQ((std::vector<std::string>{"/tmp/hes.out"}), host_.ListFiles());
  EXPECT_TRUE(host_.executed_commands().empty());
}

// Eleven extracts from one parse leave exactly the files that extracting
// each member from a fresh parse of the data file would: every member at its
// destination, every replaced file's backup, no temporaries.
TEST_F(SimHostTest, MultiExtractInstallMatchesMembers) {
  Archive archive;
  std::map<std::string, std::string> expected;
  std::string script;
  for (int i = 0; i < 11; ++i) {
    const std::string member = "m" + std::to_string(i) + ".db";
    const std::string dest = "/etc/hes/" + member;
    // Short members fit a std::string's inline buffer; long ones do not.
    archive.Add(member, std::string(i % 2 == 0 ? 7 : 5000, static_cast<char>('a' + i)));
    if (i % 3 == 0) {
      host_.WriteFileDirect(dest, "old " + member);
      expected[dest + ".moira_backup"] = "old " + member;
    }
    script += "extract " + member + " " + dest + "\n";
  }
  for (int i = 0; i < 11; ++i) {
    script += "install /etc/hes/m" + std::to_string(i) + ".db\n";
  }
  const std::string bytes = archive.Serialize();
  expected["/tmp/hes.out"] = bytes;
  const std::optional<Archive> parsed = Archive::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  for (const auto& [member, contents] : parsed->members()) {
    expected["/etc/hes/" + member] = *contents;
  }
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/hes.out", bytes, script);
  ASSERT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
  std::map<std::string, std::string> files;
  for (const std::string& path : host_.ListFiles()) {
    files[path] = *host_.ReadFile(path);
  }
  EXPECT_EQ(expected, files);
}

// An exec handler that rewrites or removes the data file mid-script drops
// the session's parse: the next extract reads the file as it is then.
TEST_F(SimHostTest, ExtractAfterExecSeesRewrittenDataFile) {
  Archive rewritten;
  rewritten.Add("passwd.db", "rewritten passwd");
  rewritten.Add("group.db", "rewritten group");
  const std::string rewritten_bytes = rewritten.Serialize();
  host_.RegisterCommand("rewrite", [&](SimHost& host) {
    host.WriteFileDirect("/tmp/hes.out", rewritten_bytes);
    return 0;
  });
  host_.RegisterCommand("remove", [](SimHost& host) {
    host.RemoveFile("/tmp/hes.out");
    return 0;
  });
  UpdateOutcome outcome =
      client_.Update(&host_, "/tmp/hes.out", payload_,
                     "extract passwd.db /etc/hes/passwd.db\n"
                     "exec rewrite\n"
                     "extract group.db /etc/hes/group.db\n"
                     "install /etc/hes/passwd.db\n"
                     "install /etc/hes/group.db\n");
  ASSERT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
  EXPECT_EQ("passwd contents", *host_.ReadFile("/etc/hes/passwd.db"));
  EXPECT_EQ("rewritten group", *host_.ReadFile("/etc/hes/group.db"));

  outcome = client_.Update(&host_, "/tmp/hes.out", payload_,
                           "extract passwd.db /etc/hes/passwd.db\n"
                           "exec remove\n"
                           "extract group.db /etc/hes/group.db\n");
  EXPECT_EQ(MR_UPDATE_EXEC, outcome.code);
  EXPECT_NE(std::string::npos, outcome.message.find("no transferred data file"))
      << outcome.message;
}

// syncdir installs each member as install would: a replaced file keeps its
// backup, and no temp file is left behind, a stale one included.
TEST_F(SimHostTest, SyncdirKeepsBackupsAndLeavesNoTemp) {
  host_.WriteFileDirect("/site/moira/passwd.db", "old passwd");
  host_.WriteFileDirect("/site/moira/group.db.moira_update", "stale");
  UpdateOutcome outcome =
      client_.Update(&host_, "/tmp/out", payload_, "syncdir /site/moira\n");
  ASSERT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
  EXPECT_EQ((std::vector<std::string>{"/site/moira/group.db", "/site/moira/passwd.db",
                                      "/site/moira/passwd.db.moira_backup", "/tmp/out"}),
            host_.ListFiles());
  EXPECT_EQ("old passwd", *host_.ReadFile("/site/moira/passwd.db.moira_backup"));
  EXPECT_EQ("passwd contents", *host_.ReadFile("/site/moira/passwd.db"));
}

TEST_F(SimHostTest, ChecksumMismatchDetected) {
  ASSERT_EQ(MR_SUCCESS, host_.BeginSession(Authenticator()));
  EXPECT_EQ(MR_UPDATE_CKSUM,
            host_.ReceiveFile("/tmp/out", payload_, Crc32(payload_) ^ 0xdeadbeef));
}

TEST_F(SimHostTest, BadAuthenticatorIsHardFailure) {
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  ASSERT_EQ(MR_SUCCESS, outcome.code);
  EXPECT_EQ(MR_BAD_AUTH, host_.BeginSession("garbage"));
}

TEST_F(SimHostTest, RefusedConnectionIsSoft) {
  host_.SetFailMode(HostFailMode::kRefuseConnection);
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_CONN, outcome.code);
  EXPECT_FALSE(outcome.hard);
  // The very next attempt succeeds (fail mode consumed).
  outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code);
}

TEST_F(SimHostTest, CrashDuringTransferLeavesPartialTemp) {
  host_.SetFailMode(HostFailMode::kCrashDuringTransfer);
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_XFER, outcome.code);
  EXPECT_FALSE(outcome.hard);
  EXPECT_TRUE(host_.crashed());
  // The partial temp file exists but is incomplete.
  const std::string* partial = host_.ReadFile("/tmp/out.moira_update");
  ASSERT_NE(nullptr, partial);
  EXPECT_LT(partial->size(), payload_.size());
  // While down, connections fail.
  EXPECT_EQ(MR_UPDATE_CONN, host_.BeginSession(Authenticator()));
  // After reboot, the retried update deletes the stale temp and succeeds.
  host_.Reboot();
  outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code);
  EXPECT_EQ("passwd contents", *host_.ReadFile("/etc/hes/passwd.db"));
}

TEST_F(SimHostTest, CrashBeforeExecuteRecoversOnRetry) {
  host_.SetFailMode(HostFailMode::kCrashBeforeExecute);
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_CONN, outcome.code);
  EXPECT_FALSE(outcome.hard);
  EXPECT_FALSE(host_.HasFile("/etc/hes/passwd.db"));  // nothing installed
  host_.Reboot();
  outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code);
}

TEST_F(SimHostTest, CrashDuringExecuteLeavesPartialInstallThatRetries) {
  host_.SetFailMode(HostFailMode::kCrashDuringExecute);
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_CONN, outcome.code);
  // Extra installations are not harmful: the retry re-sends everything.
  host_.Reboot();
  outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code);
  EXPECT_EQ("passwd contents", *host_.ReadFile("/etc/hes/passwd.db"));
  EXPECT_EQ("group contents", *host_.ReadFile("/etc/hes/group.db"));
}

TEST_F(SimHostTest, ScriptErrorIsHard) {
  host_.SetFailMode(HostFailMode::kScriptError);
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_EXEC, outcome.code);
  EXPECT_TRUE(outcome.hard);
}

TEST_F(SimHostTest, UnknownInstructionIsHard) {
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, "frobnicate x\n");
  EXPECT_EQ(MR_UPDATE_EXEC, outcome.code);
  EXPECT_TRUE(outcome.hard);
  EXPECT_NE(outcome.message.find("unknown instruction"), std::string::npos);
}

TEST_F(SimHostTest, ExecHandlerFailureIsHard) {
  host_.RegisterCommand("restart_hesiod", [](SimHost&) { return 1; });
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_EXEC, outcome.code);
  EXPECT_TRUE(outcome.hard);
}

TEST_F(SimHostTest, SignalReadsPidFileAtExecutionTime) {
  host_.WriteFileDirect("/var/run/named.pid", "123");
  UpdateOutcome outcome =
      client_.Update(&host_, "/tmp/out", payload_, "signal /var/run/named.pid\n");
  ASSERT_EQ(MR_SUCCESS, outcome.code);
  ASSERT_EQ(1u, host_.signals_sent().size());
  // Missing pid file fails at execution time.
  outcome = client_.Update(&host_, "/tmp/out", payload_, "signal /var/run/gone.pid\n");
  EXPECT_EQ(MR_UPDATE_EXEC, outcome.code);
}

TEST_F(SimHostTest, ReplayedUpdateAuthenticatorRejected) {
  std::string authenticator = Authenticator();
  ASSERT_EQ(MR_SUCCESS, host_.BeginSession(authenticator));
  EXPECT_EQ(MR_BAD_AUTH, host_.BeginSession(authenticator));
}

TEST_F(SimHostTest, FlakyHostHealsAfterConfiguredFailures) {
  host_.SetFailMode(HostFailMode::kFlaky, 2);
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_CONN, outcome.code);
  EXPECT_FALSE(outcome.hard);
  outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_CONN, outcome.code);
  outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code);
  EXPECT_EQ(3, host_.connect_attempts());
}

TEST_F(SimHostTest, InPassRetriesHealFlakyHost) {
  host_.SetFailMode(HostFailMode::kFlaky, 2);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = 5;
  client_.set_retry_policy(policy);
  client_.set_sleep_fn([this](UnixTime s) { clock_.Advance(s); });
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
  EXPECT_EQ(3, outcome.attempts);
  EXPECT_EQ(5 + 10, outcome.elapsed);  // the two backoffs, on the sim clock
  EXPECT_EQ(UpdatePhase::kDone, outcome.phase);
}

TEST_F(SimHostTest, SingleAttemptSuppressesRetries) {
  host_.SetFailMode(HostFailMode::kFlaky, 2);
  RetryPolicy policy;
  policy.max_attempts = 4;
  client_.set_retry_policy(policy);
  UpdateOutcome outcome =
      client_.Update(&host_, "/tmp/out", payload_, script_, /*single_attempt=*/true);
  EXPECT_EQ(MR_UPDATE_CONN, outcome.code);
  EXPECT_EQ(1, outcome.attempts);
}

TEST_F(SimHostTest, SlowTransferTripsPhaseDeadline) {
  host_.AttachSimClock(&clock_);
  host_.SetSlowDelay(10 * kSecondsPerMinute);
  host_.SetFailMode(HostFailMode::kSlow);
  UpdateDeadlines deadlines;
  deadlines.transfer = 5 * kSecondsPerMinute;
  client_.set_deadlines(deadlines);
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_TIMEOUT, outcome.code);
  EXPECT_FALSE(outcome.hard);
  EXPECT_EQ(UpdatePhase::kTransfer, outcome.phase);
  // Without a deadline the same stall is merely slow, not an error.
  host_.SetFailMode(HostFailMode::kSlow);
  client_.set_deadlines(UpdateDeadlines{});
  outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code) << outcome.message;
}

TEST_F(SimHostTest, CorruptTransferIsSoftChecksumFailure) {
  host_.SetFailMode(HostFailMode::kCorruptTransfer);
  UpdateOutcome outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_UPDATE_CKSUM, outcome.code);
  EXPECT_FALSE(outcome.hard);
  EXPECT_EQ(UpdatePhase::kTransfer, outcome.phase);
  outcome = client_.Update(&host_, "/tmp/out", payload_, script_);
  EXPECT_EQ(MR_SUCCESS, outcome.code);
}

TEST_F(SimHostTest, TicketCachedForItsLifetime) {
  SimHost other("SERVER-2.MIT.EDU", &realm_, &clock_);
  EXPECT_EQ(0, client_.ticket_requests());
  ASSERT_EQ(MR_SUCCESS, client_.Update(&host_, "/tmp/out", payload_, script_).code);
  ASSERT_EQ(MR_SUCCESS, client_.Update(&other, "/tmp/out", payload_, script_).code);
  ASSERT_EQ(MR_SUCCESS, client_.Update(&host_, "/tmp/out", payload_, script_).code);
  // One KDC round trip covers the whole fleet scan.
  EXPECT_EQ(1, client_.ticket_requests());
  // Once the ticket expires the next update refreshes it.
  clock_.Advance(KerberosRealm::kDefaultLifetime + 1);
  ASSERT_EQ(MR_SUCCESS, client_.Update(&host_, "/tmp/out", payload_, script_).code);
  EXPECT_EQ(2, client_.ticket_requests());
}

// FaultPlanTest's fleet (20 hosts) and its mix of down, flaky and corrupt
// hosts.
std::vector<std::unique_ptr<SimHost>> MakeFleet(KerberosRealm* realm, const Clock* clock) {
  std::vector<std::unique_ptr<SimHost>> fleet;
  for (int i = 0; i < 20; ++i) {
    fleet.push_back(
        std::make_unique<SimHost>("H" + std::to_string(i) + ".MIT.EDU", realm, clock));
  }
  return fleet;
}

FaultPlanSpec MixedFaultSpec() {
  FaultPlanSpec spec;
  spec.seed = 7;
  spec.flaky_permille = 300;
  spec.down_permille = 150;
  spec.corrupt_permille = 100;
  return spec;
}

TEST(FaultPlanTest, SameSeedReplaysSameSchedule) {
  SimulatedClock clock(0);
  KerberosRealm realm(&clock);
  std::vector<std::unique_ptr<SimHost>> fleet_a = MakeFleet(&realm, &clock);
  std::vector<std::unique_ptr<SimHost>> fleet_b = MakeFleet(&realm, &clock);
  const FaultPlanSpec spec = MixedFaultSpec();
  std::set<HostFailMode> seen;
  for (int pass = 0; pass < 5; ++pass) {
    ArmPass(spec, fleet_a, pass);
    ArmPass(spec, fleet_b, pass);
    for (size_t i = 0; i < fleet_a.size(); ++i) {
      EXPECT_EQ(fleet_a[i]->fail_mode(), fleet_b[i]->fail_mode());
      EXPECT_EQ(fleet_a[i]->fail_count(), fleet_b[i]->fail_count());
      seen.insert(fleet_a[i]->fail_mode());
    }
  }
  // The draw actually injects a mix of faults (and leaves some hosts healthy).
  EXPECT_TRUE(seen.contains(HostFailMode::kNone));
  EXPECT_GE(seen.size(), 3u);
}

// The schedule FaultPlanTest's spec draws for its fleet over 5 passes,
// recorded before the injectors shared one FaultSchedule: one line per pass
// of "<fail_mode>:<fail_count>" per host.  A change to the stream keying or
// to the draw order fails here.
TEST(FaultPlanTest, PinnedScheduleAndZeroSpecHeals) {
  SimulatedClock clock(0);
  KerberosRealm realm(&clock);
  std::vector<std::unique_ptr<SimHost>> fleet = MakeFleet(&realm, &clock);
  std::vector<std::string> passes;
  for (int pass = 0; pass < 5; ++pass) {
    ArmPass(MixedFaultSpec(), fleet, pass);
    std::string line;
    for (const auto& host : fleet) {
      line += (line.empty() ? "" : " ") + std::to_string(static_cast<int>(host->fail_mode())) +
              ":" + std::to_string(host->fail_count());
    }
    passes.push_back(line);
  }
  const std::string down = "1:1048576";
  EXPECT_EQ(passes[0], "0:0 0:0 6:2 0:0 0:0 0:0 6:2 0:0 8:1 6:2 " + down +
                           " 0:0 0:0 6:2 0:0 0:0 0:0 8:1 6:2 " + down);
  EXPECT_EQ(passes[1], "0:0 0:0 0:0 0:0 0:0 0:0 6:2 0:0 0:0 0:0 0:0 0:0 6:2 0:0 0:0 0:0 "
                       "8:1 6:2 " + down + " 6:2");
  EXPECT_EQ(passes[2], "0:0 8:1 6:2 " + down + " 6:2 " + down + " 6:2 " + down +
                           " 6:2 0:0 0:0 6:2 0:0 0:0 0:0 0:0 0:0 8:1 6:2 " + down);
  EXPECT_EQ(passes[3], down + " 0:0 0:0 8:1 6:2 " + down +
                           " 0:0 0:0 0:0 0:0 0:0 0:0 0:0 0:0 6:2 0:0 6:2 " + down +
                           " 8:1 6:2");
  EXPECT_EQ(passes[4], "0:0 8:1 6:2 " + down + " " + down + " 6:2 " + down +
                           " 0:0 0:0 0:0 0:0 0:0 0:0 0:0 0:0 0:0 0:0 6:2 0:0 8:1");
  ArmPass(FaultPlanSpec{}, fleet, 5);
  for (const auto& host : fleet) {
    EXPECT_EQ(HostFailMode::kNone, host->fail_mode()) << host->name();
    EXPECT_EQ(0, host->fail_count()) << host->name();
  }
}

TEST(HostDirectoryTest, RegisterAndFind) {
  SimulatedClock clock(0);
  KerberosRealm realm(&clock);
  SimHost a("A.MIT.EDU", &realm, &clock);
  SimHost b("B.MIT.EDU", &realm, &clock);
  HostDirectory directory;
  directory.Register(&a);
  directory.Register(&b);
  EXPECT_EQ(&a, directory.Find("A.MIT.EDU"));
  EXPECT_EQ(&b, directory.Find("B.MIT.EDU"));
  EXPECT_EQ(nullptr, directory.Find("C.MIT.EDU"));
  EXPECT_EQ(2u, directory.size());
}

TEST(UpdateClientTest, NullHostIsHardConnFailure) {
  // A host absent from the directory is a configuration error, not a
  // transient outage: retrying it every pass forever would never succeed.
  SimulatedClock clock(0);
  KerberosRealm realm(&clock);
  realm.AddPrincipal("moira.dcm", "pw");
  UpdateClient client(&realm, "moira.dcm", "pw");
  RetryPolicy retry;
  retry.max_attempts = 5;  // must NOT be consumed on a missing host
  client.set_retry_policy(retry);
  UpdateOutcome outcome = client.Update(nullptr, "/t", "p", "s");
  EXPECT_EQ(MR_UPDATE_CONN, outcome.code);
  EXPECT_TRUE(outcome.hard);
  EXPECT_EQ(0, outcome.attempts);
  EXPECT_EQ(UpdatePhase::kNone, outcome.phase);
}

// --- Keyed-file patches ---

// The Parse-based model SpliceKeyedOps must reproduce byte for byte.
std::string ReferenceApply(std::string_view text, KeyRule rule,
                           const std::vector<PatchOp>& ops) {
  KeyedFile file = KeyedFile::Parse(text, rule);
  for (const PatchOp& op : ops) {
    if (op.kind == PatchOp::kDelete) {
      file.DeleteBlock(op.key);
    } else {
      file.SetBlock(op.key, op.block);
    }
  }
  return file.Serialize();
}

// A random key that is legal under both rules and never reads as a prologue
// line; the alphabet spans '-' < '0' < 'A' < '_' < 'a' so byte order matters.
std::string RandomKey(SplitMix64& rng) {
  static constexpr char kAlphabet[] = "-.09AZ_az";
  std::string key;
  int length = static_cast<int>(rng.Between(1, 4));
  for (int i = 0; i < length; ++i) {
    key.push_back(kAlphabet[rng.Below(sizeof(kAlphabet) - 1)]);
  }
  return key;
}

// One to three lines owned by `key`; under kFirstToken some are indented.
std::string RandomBlock(SplitMix64& rng, const std::string& key, KeyRule rule) {
  std::string block;
  int lines = static_cast<int>(rng.Between(1, 3));
  for (int i = 0; i < lines; ++i) {
    std::string payload = "v" + std::to_string(rng.Below(1000)) + " x:y";
    if (rule == KeyRule::kUpToColon) {
      block += key + ":" + payload + "\n";
    } else {
      block += (rng.Chance(1, 8) ? " \t" : "") + key + " " + payload + "\n";
    }
  }
  return block;
}

// A canonical file (as the generators write it) with 0..200 blocks.
std::string RandomCanonicalFile(SplitMix64& rng, KeyRule rule,
                                std::vector<std::string>* keys) {
  KeyedFile file(rule);
  if (rng.Chance(1, 2)) {
    file.AppendPrologue("; generated by moira");
    file.AppendPrologue("# do not edit");
  }
  keys->clear();
  int blocks = static_cast<int>(rng.Below(201));
  for (int i = 0; i < blocks; ++i) {
    std::string key = RandomKey(rng);
    std::string block = RandomBlock(rng, key, rule);
    size_t pos = 0;
    while (pos < block.size()) {
      size_t nl = block.find('\n', pos);
      file.AppendLine(std::string_view(block).substr(pos, nl - pos));
      pos = nl + 1;
    }
    keys->push_back(key);
  }
  return file.Serialize();
}

// Up to 20 ops: upserts of existing and new keys (including keys sorting
// before the first block and after the last), deletes of present and absent
// keys, and repeats of keys already edited.
std::vector<PatchOp> RandomOps(SplitMix64& rng, KeyRule rule,
                               const std::vector<std::string>& keys) {
  std::vector<PatchOp> ops;
  int count = static_cast<int>(rng.Below(21));
  for (int i = 0; i < count; ++i) {
    std::string key;
    uint64_t pick = rng.Below(6);
    if (pick == 0 && !ops.empty()) {
      key = ops[rng.Below(ops.size())].key;
    } else if (pick <= 2 && !keys.empty()) {
      key = keys[rng.Below(keys.size())];
    } else if (pick == 3) {
      key = "!" + RandomKey(rng);  // sorts before every generated key
    } else if (pick == 4) {
      key = "~" + RandomKey(rng);  // sorts after every generated key
    } else {
      key = RandomKey(rng);
    }
    PatchOp op;
    op.key = key;
    if (rng.Chance(1, 4)) {
      op.kind = PatchOp::kDelete;
    } else {
      op.block = RandomBlock(rng, key, rule);
      if (rng.Chance(1, 8)) {
        op.block.pop_back();  // SetBlock supplies the final newline
      } else if (rng.Chance(1, 16)) {
        op.block.clear();  // an empty upsert serializes as nothing
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

TEST(KeyedPatchTest, SpliceMatchesParseReference) {
  for (KeyRule rule : {KeyRule::kFirstToken, KeyRule::kUpToColon}) {
    SplitMix64 rng(rule == KeyRule::kFirstToken ? 2005 : 1988);
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<std::string> keys;
      std::string text = RandomCanonicalFile(rng, rule, &keys);
      ASSERT_EQ(text, ReferenceApply(text, rule, {}));
      // Three passes in a row: each result is the next pass's base, as on a
      // host that takes one patch per DCM pass.
      for (int pass = 0; pass < 3; ++pass) {
        std::vector<PatchOp> ops = RandomOps(rng, rule, keys);
        std::string expected = ReferenceApply(text, rule, ops);
        std::optional<std::string> spliced = SpliceKeyedOps(text, rule, ops);
        ASSERT_TRUE(spliced.has_value()) << "trial " << trial << " pass " << pass;
        ASSERT_EQ(expected, *spliced) << "trial " << trial << " pass " << pass;
        for (const PatchOp& op : ops) {
          keys.push_back(op.key);
        }
        text = std::move(*spliced);
      }
    }
  }
}

TEST(KeyedPatchTest, SpliceRefusesNonCanonicalInput) {
  const std::vector<PatchOp> ops = {PatchOp{PatchOp::kUpsert, "m", "m 1\n"}};
  // Blocks out of order.
  EXPECT_FALSE(SpliceKeyedOps("b 1\na 1\n", KeyRule::kFirstToken, ops).has_value());
  EXPECT_FALSE(SpliceKeyedOps("b:1\na:1\n", KeyRule::kUpToColon, ops).has_value());
  // One key in two runs.
  EXPECT_FALSE(
      SpliceKeyedOps("a 1\nb 1\na 2\n", KeyRule::kFirstToken, ops).has_value());
  // An empty line, between blocks or right after the prologue.
  EXPECT_FALSE(SpliceKeyedOps("a 1\n\nb 1\n", KeyRule::kFirstToken, ops).has_value());
  EXPECT_FALSE(SpliceKeyedOps("; p\n\na 1\n", KeyRule::kFirstToken, ops).has_value());
  // A missing final newline, on a block line or on a prologue line.
  EXPECT_FALSE(SpliceKeyedOps("a 1\nb 1", KeyRule::kFirstToken, ops).has_value());
  EXPECT_FALSE(SpliceKeyedOps("; p", KeyRule::kFirstToken, ops).has_value());
  // The refusal does not depend on the ops touching the bad spot.
  EXPECT_FALSE(SpliceKeyedOps("a 1\nb 1", KeyRule::kFirstToken, {}).has_value());
  // Canonical input with no ops comes back unchanged.
  EXPECT_EQ("; p\na 1\na 2\nb 1\n",
            SpliceKeyedOps("; p\na 1\na 2\nb 1\n", KeyRule::kFirstToken, {}));
  EXPECT_EQ("", SpliceKeyedOps("", KeyRule::kUpToColon, {}));
}

// The std::map model of KeyedFile: one string block per key, grown line by
// line, serialized in key order.  KeyedFile keeps spans over one buffer and
// must write the same bytes.
class MapKeyedFile {
 public:
  explicit MapKeyedFile(KeyRule rule) : rule_(rule) {}

  void AppendLine(std::string_view line) {
    std::string& block = blocks_[std::string(KeyOf(line))];
    block.append(line);
    if (block.empty() || block.back() != '\n') {
      block.push_back('\n');
    }
  }
  void AppendPrologue(std::string_view line) {
    prologue_.append(line);
    if (prologue_.empty() || prologue_.back() != '\n') {
      prologue_.push_back('\n');
    }
  }
  void SetBlock(const std::string& key, std::string block) {
    if (!block.empty() && block.back() != '\n') {
      block.push_back('\n');
    }
    blocks_[key] = std::move(block);
  }
  void DeleteBlock(const std::string& key) { blocks_.erase(key); }
  std::string Serialize() const {
    std::string out = prologue_;
    for (const auto& [key, block] : blocks_) {
      out.append(block);
    }
    return out;
  }

  // The two key rules: the first blank- or tab-delimited token, or
  // everything before the first ':'.
  std::string_view KeyOf(std::string_view line) const {
    if (rule_ == KeyRule::kUpToColon) {
      return line.substr(0, line.find(':'));
    }
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos) {
      return {};
    }
    size_t end = line.find_first_of(" \t", start);
    return line.substr(start, end == std::string_view::npos ? end : end - start);
  }

 private:
  KeyRule rule_;
  std::string prologue_;
  std::map<std::string, std::string> blocks_;
};

// A line of 0-5 pieces: keys that prefix one another, bytes >= 0x80, both
// separators, blanks and tabs; most end with a newline, some do not.
std::string RandomModelLine(SplitMix64& rng) {
  static const char* const kPieces[] = {"a", "ab", "abc", "b", "\x80", "\xe9t\xe9",
                                        "\xff", ":", " ", "\t", "x:y", "1"};
  std::string line;
  int pieces = static_cast<int>(rng.Below(6));
  for (int i = 0; i < pieces; ++i) {
    line += kPieces[rng.Below(std::size(kPieces))];
  }
  if (rng.Chance(3, 4)) {
    line.push_back('\n');
  }
  return line;
}

TEST(KeyedPatchTest, KeyedFileMatchesMapModel) {
  for (KeyRule rule : {KeyRule::kFirstToken, KeyRule::kUpToColon}) {
    SplitMix64 rng(rule == KeyRule::kFirstToken ? 1987 : 5010);
    for (int trial = 0; trial < 200; ++trial) {
      KeyedFile file(rule);
      MapKeyedFile model(rule);
      std::vector<std::string> keys;  // keys used so far, repeats included
      int ops = static_cast<int>(rng.Below(121));
      for (int op = 0; op < ops; ++op) {
        uint64_t pick = rng.Below(20);
        if (pick < 11) {
          std::string line = RandomModelLine(rng);
          keys.emplace_back(model.KeyOf(line));
          file.AppendLine(line);
          model.AppendLine(line);
        } else if (pick < 13) {
          std::string line = rng.Chance(1, 2) ? "; prologue" : "# prologue\n";
          file.AppendPrologue(line);
          model.AppendPrologue(line);
        } else if (pick < 16) {
          std::string key = !keys.empty() && rng.Chance(2, 3)
                                ? keys[rng.Below(keys.size())]
                                : std::string(model.KeyOf(RandomModelLine(rng)));
          std::string block;
          if (rng.Chance(3, 4)) {  // else an empty block
            for (int lines = static_cast<int>(rng.Between(1, 3)); lines > 0; --lines) {
              block += RandomModelLine(rng);
            }
          }
          keys.push_back(key);
          file.SetBlock(key, block);
          model.SetBlock(key, block);
        } else if (pick < 19) {
          // A used key, or one that no line has had.
          std::string key =
              !keys.empty() && rng.Chance(1, 2) ? keys[rng.Below(keys.size())] : "~absent";
          file.DeleteBlock(key);
          model.DeleteBlock(key);
        } else {
          ASSERT_EQ(model.Serialize(), file.Serialize()) << "trial " << trial << " op " << op;
        }
      }
      ASSERT_EQ(model.Serialize(), file.Serialize()) << "trial " << trial;
    }
  }
}

TEST(KeyedPatchTest, ApplyFilePatchChecksBothCrcs) {
  const std::string base = "a:1\nc:3\n";
  FilePatch patch;
  patch.key_rule = KeyRule::kUpToColon;
  patch.ops = {PatchOp{PatchOp::kUpsert, "b", "b:2"}};
  patch.base_crc = Crc32(base);
  patch.result_crc = Crc32("a:1\nb:2\nc:3\n");
  EXPECT_EQ("a:1\nb:2\nc:3\n", ApplyFilePatch(base, patch));

  FilePatch wrong_base = patch;
  wrong_base.base_crc ^= 1;
  EXPECT_FALSE(ApplyFilePatch(base, wrong_base).has_value());

  FilePatch wrong_result = patch;
  wrong_result.result_crc ^= 1;
  EXPECT_FALSE(ApplyFilePatch(base, wrong_result).has_value());

  // A base that matches its CRC but is not canonical is refused too.
  const std::string unsorted = "c:3\na:1\n";
  FilePatch on_unsorted = patch;
  on_unsorted.base_crc = Crc32(unsorted);
  EXPECT_FALSE(ApplyFilePatch(unsorted, on_unsorted).has_value());

  // Whole-file replacements are CRC-checked the same way.
  FilePatch replace;
  replace.replace = true;
  replace.contents = "new\n";
  replace.base_crc = Crc32(base);
  replace.result_crc = Crc32("new\n");
  EXPECT_EQ("new\n", ApplyFilePatch(base, replace));
  replace.result_crc ^= 1;
  EXPECT_FALSE(ApplyFilePatch(base, replace).has_value());
}

}  // namespace
}  // namespace moira
