// Tests for incremental, replica-offloaded DCM propagation (DESIGN.md
// "Incremental propagation"): journal-delta generation, keyed patch shipping
// with base-CRC fallback, truncation fallback, torn-write self-healing,
// per-service breaker tunables, and replica-offloaded generation reads.
#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/db/exec.h"
#include "src/dcm/dcm.h"
#include "src/dcm/delta.h"
#include "src/repl/replica.h"
#include "src/server/server.h"
#include "src/sim/population.h"
#include "src/update/patch.h"
#include "src/update/sim_host.h"
#include "src/zephyrd/zephyr_bus.h"
#include "tests/test_env.h"

namespace moira {
namespace {

// A fully-provisioned site with its own clock, database, hosts, and DCM, so
// a test can run a journal-attached site and a legacy full-regeneration site
// side by side on identical state.
struct Site {
  explicit Site(const SiteSpec& spec = TestSiteSpec()) : clock(568000000) {
    db = std::make_unique<Database>(&clock);
    CreateMoiraSchema(db.get());
    SeedMoiraDefaults(db.get());
    mc = std::make_unique<MoiraContext>(db.get());
    realm = std::make_unique<KerberosRealm>(&clock);
    builder = std::make_unique<SiteBuilder>(mc.get(), realm.get());
    builder->Build(spec);
    zephyr = std::make_unique<ZephyrBus>(&clock);
    hosts = CreateSimHosts(*mc, realm.get(), &directory);
    dcm = std::make_unique<Dcm>(mc.get(), realm.get(), zephyr.get(), &directory);
    ConfigureStandardServices(dcm.get());
    clock.Advance(kSecondsPerDay);
  }

  // Mutation through the registry, journaled on success (the server's
  // dispatch path, without the wire).
  int32_t Mutate(std::string_view query, const std::vector<std::string>& args) {
    return ExecuteJournaled(*mc, &journal, "root", "test", query, args);
  }

  SimHost* Host(const std::string& name) { return directory.Find(name); }

  SimulatedClock clock;
  std::unique_ptr<Database> db;
  std::unique_ptr<MoiraContext> mc;
  std::unique_ptr<KerberosRealm> realm;
  std::unique_ptr<SiteBuilder> builder;
  std::unique_ptr<ZephyrBus> zephyr;
  HostDirectory directory;
  std::vector<std::unique_ptr<SimHost>> hosts;
  std::unique_ptr<Dcm> dcm;
  Journal journal;
};

// Transferred-payload targets (servers.target_file): the raw data file the
// update protocol leaves behind.  A patch payload legitimately differs from
// a full archive there, so these paths are excluded from fleet comparison.
std::set<std::string> TargetPaths(MoiraContext& mc) {
  std::set<std::string> targets;
  From(mc.servers()).Emit([&](const std::vector<size_t>& rows) {
    targets.insert(MoiraContext::StrCell(mc.servers(), rows[0], "target_file"));
  });
  return targets;
}

bool IsWorkFile(const std::string& path, const std::set<std::string>& targets) {
  auto ends_with = [&](const char* suffix) {
    std::string s(suffix);
    return path.size() >= s.size() && path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with(kUpdateSuffix) || ends_with(kBackupSuffix) || targets.contains(path);
}

// Every installed (non-temporary, non-backup) file must be byte-identical
// between the two sites' fleets.
void ExpectFleetsIdentical(Site& a, Site& b, const std::string& where) {
  const std::set<std::string> targets = TargetPaths(*a.mc);
  for (const auto& host : a.hosts) {
    SimHost* other = b.Host(host->name());
    ASSERT_NE(nullptr, other) << where;
    for (const std::string& path : host->ListFiles()) {
      if (IsWorkFile(path, targets)) {
        continue;
      }
      const std::string* mine = host->ReadFile(path);
      const std::string* theirs = other->ReadFile(path);
      ASSERT_NE(nullptr, theirs) << where << ": " << host->name() << " " << path
                                 << " missing from full-regen site";
      EXPECT_EQ(*theirs, *mine) << where << ": " << host->name() << " " << path;
    }
    for (const std::string& path : other->ListFiles()) {
      if (!IsWorkFile(path, targets)) {
        EXPECT_TRUE(host->HasFile(path))
            << where << ": " << host->name() << " " << path << " missing from patched site";
      }
    }
  }
}

TEST(DcmIncrementalTest, PatchPassShipsLessAndMatchesFullRegen) {
  Site patched;
  Site full;
  patched.dcm->AttachJournal(&patched.journal);

  DcmRunSummary first_p = patched.dcm->RunOnce();
  DcmRunSummary first_f = full.dcm->RunOnce();
  // The first journal-mode pass has no consumed prefix: full regeneration.
  EXPECT_EQ(4, first_p.full_regens);
  EXPECT_EQ(0, first_p.services_patched);
  EXPECT_EQ(first_f.hosts_updated, first_p.hosts_updated);
  ExpectFleetsIdentical(patched, full, "after first pass");

  // Advance before mutating: the legacy arm detects churn by table modtime
  // strictly newer than dfgen.
  patched.clock.Advance(25 * kSecondsPerHour);
  full.clock.Advance(25 * kSecondsPerHour);
  const std::string& login = patched.builder->active_logins()[0];
  ASSERT_EQ(MR_SUCCESS, patched.Mutate("update_user_shell", {login, "/bin/inc"}));
  ASSERT_EQ(MR_SUCCESS, full.Mutate("update_user_shell", {login, "/bin/inc"}));

  DcmRunSummary second_p = patched.dcm->RunOnce();
  DcmRunSummary second_f = full.dcm->RunOnce();
  // HESIOD and SMTP stage keyed patches; NFS recomputes the credentials line
  // to identical bytes and skips; ZEPHYR is untouched by a shell change.
  EXPECT_GE(second_p.services_patched, 2);
  EXPECT_EQ(0, second_p.full_regens);
  EXPECT_GT(second_p.patch_ships, 0);
  EXPECT_EQ(0, second_p.patch_fallbacks);
  EXPECT_GT(second_p.journal_entries_examined, 0);
  // The patch pass ships far fewer bytes than the full-regeneration pass.
  EXPECT_LT(second_p.bytes_propagated, second_f.bytes_propagated / 10);
  ExpectFleetsIdentical(patched, full, "after patch pass");
}

TEST(DcmIncrementalTest, QuietJournalSkipsGenerationEntirely) {
  Site site;
  site.dcm->AttachJournal(&site.journal);
  site.dcm->RunOnce();
  site.clock.Advance(25 * kSecondsPerHour);
  // No mutations since the first pass: every due service advances its seq
  // marker without generating or shipping anything.
  DcmRunSummary summary = site.dcm->RunOnce();
  EXPECT_EQ(4, summary.services_delta_skipped);
  EXPECT_EQ(0, summary.services_generated);
  EXPECT_EQ(0, summary.hosts_updated);

  // A mutation with no generated-file footprint is examined and skipped too.
  ASSERT_EQ(MR_SUCCESS, site.Mutate("add_machine", {"inert.mit.edu", "VAX"}));
  site.clock.Advance(25 * kSecondsPerHour);
  summary = site.dcm->RunOnce();
  EXPECT_EQ(4, summary.services_delta_skipped);
  EXPECT_GT(summary.journal_entries_examined, 0);
  EXPECT_EQ(0, summary.hosts_updated);
}

TEST(DcmIncrementalTest, TruncationPastLastGenSeqForcesFullRegeneration) {
  Site site;
  site.dcm->AttachJournal(&site.journal);
  site.dcm->RunOnce();

  const std::string& login = site.builder->active_logins()[0];
  ASSERT_EQ(MR_SUCCESS, site.Mutate("update_user_shell", {login, "/bin/trunc"}));
  // A checkpoint prunes the journal past every service's consumed prefix:
  // the delta is unreconstructable, so the DCM must regenerate rather than
  // ship a gapped patch.
  site.journal.TruncateThrough(site.journal.last_seq());
  site.clock.Advance(25 * kSecondsPerHour);
  DcmRunSummary summary = site.dcm->RunOnce();
  EXPECT_EQ(4, summary.full_regens);
  EXPECT_EQ(4, summary.truncation_fallbacks);
  EXPECT_EQ(0, summary.services_patched);
  EXPECT_EQ(0, summary.patch_ships);  // full archives, not patches
  EXPECT_GT(summary.hosts_updated, 0);
  const std::string* passwd =
      site.Host(site.builder->hesiod_server_name())->ReadFile("/etc/athena/hesiod/passwd.db");
  ASSERT_NE(nullptr, passwd);
  EXPECT_NE(passwd->find("/bin/trunc"), std::string::npos);

  // The marker advanced past the truncation point: the next churn pass is
  // incremental again.
  ASSERT_EQ(MR_SUCCESS, site.Mutate("update_user_shell", {login, "/bin/trunc2"}));
  site.clock.Advance(25 * kSecondsPerHour);
  summary = site.dcm->RunOnce();
  EXPECT_EQ(0, summary.truncation_fallbacks);
  EXPECT_GT(summary.services_patched, 0);
}

TEST(DcmIncrementalTest, TornFlushIsCaughtByPatchBaseCrcAndFullShipHeals) {
  Site site;
  site.dcm->AttachJournal(&site.journal);
  site.dcm->RunOnce();
  const std::string& login = site.builder->active_logins()[0];
  SimHost* hesiod = site.Host(site.builder->hesiod_server_name());

  // Pass 2 ships a patch; the fault plan tears the patched file mid-flush.
  // The host still reports success — the damage is silent.
  ASSERT_EQ(MR_SUCCESS, site.Mutate("update_user_shell", {login, "/bin/torn1"}));
  site.clock.Advance(7 * kSecondsPerHour);  // only HESIOD due
  FaultPlanSpec fault;
  fault.torn_permille = 1000;
  ArmPass(fault, site.hosts, 0);
  DcmRunSummary second = site.dcm->RunOnce();
  EXPECT_EQ(1, second.patch_ships);
  EXPECT_EQ(0, second.patch_fallbacks);
  EXPECT_EQ(1, second.hosts_updated);
  const std::string* staged_passwd =
      site.dcm->StagedPayload("HESIOD")->common.Find("passwd.db");
  ASSERT_NE(nullptr, staged_passwd);
  const std::string* torn = hesiod->ReadFile("/etc/athena/hesiod/passwd.db");
  ASSERT_NE(nullptr, torn);
  EXPECT_NE(*staged_passwd, *torn);  // silently truncated

  // Pass 3's patch presumes the staged base: the torn file CRC-mismatches,
  // the host refuses with MR_UPDATE_PATCH, and the DCM reships the full
  // archive in the same pass.  The host self-heals.
  ASSERT_EQ(MR_SUCCESS, site.Mutate("update_user_shell", {login, "/bin/torn2"}));
  site.clock.Advance(7 * kSecondsPerHour);
  DcmRunSummary third = site.dcm->RunOnce();
  EXPECT_EQ(1, third.patch_fallbacks);
  EXPECT_EQ(0, third.patch_ships);
  EXPECT_EQ(1, third.hosts_updated);
  EXPECT_EQ(0, third.host_soft_failures);
  staged_passwd = site.dcm->StagedPayload("HESIOD")->common.Find("passwd.db");
  const std::string* healed = hesiod->ReadFile("/etc/athena/hesiod/passwd.db");
  ASSERT_NE(nullptr, healed);
  EXPECT_EQ(*staged_passwd, *healed);
  EXPECT_NE(healed->find("/bin/torn2"), std::string::npos);
}

TEST(DcmIncrementalTest, RandomizedChurnScheduleMatchesFullRegeneration) {
  Site patched;
  Site full;
  patched.dcm->AttachJournal(&patched.journal);

  // Collect churnable material once; both sites were built identically.
  const std::vector<std::string>& logins = patched.builder->active_logins();
  std::vector<std::string> maillists;
  From(patched.mc->list())
      .WhereNe("maillist", Value(int64_t{0}))
      .WhereEq("grouplist", Value(int64_t{0}))
      .Emit([&](const std::vector<size_t>& rows) {
        maillists.push_back(
            MoiraContext::StrCell(patched.mc->list(), rows[0], "name"));
      });
  ASSERT_FALSE(maillists.empty());

  auto mutate_both = [&](std::string_view query, const std::vector<std::string>& args) {
    int32_t a = patched.Mutate(query, args);
    int32_t b = full.Mutate(query, args);
    ASSERT_EQ(a, b) << query;
  };

  SplitMix64 rng(0xa77e4a);
  int patch_passes = 0;
  for (int pass = 0; pass < 12; ++pass) {
    // Advance before mutating so the legacy arm's modtime check sees the
    // churn as strictly newer than its dfgen.
    patched.clock.Advance(25 * kSecondsPerHour);
    full.clock.Advance(25 * kSecondsPerHour);
    // A few random mutations drawn from shell, finger-status, membership,
    // quota, and zephyr churn.
    int ops = 1 + static_cast<int>(rng.Below(4));
    for (int op = 0; op < ops; ++op) {
      const std::string& login = logins[rng.Below(logins.size())];
      const std::string& list = maillists[rng.Below(maillists.size())];
      switch (rng.Below(5)) {
        case 0:
          mutate_both("update_user_shell",
                      {login, "/bin/sh" + std::to_string(pass * 8 + op)});
          break;
        case 1:
          mutate_both("update_user_status", {login, rng.Below(2) == 0 ? "0" : "1"});
          break;
        case 2:
          if (rng.Below(2) == 0) {
            mutate_both("add_member_to_list", {list, "USER", login});
          } else {
            mutate_both("delete_member_from_list", {list, "USER", login});
          }
          break;
        case 3:
          mutate_both("update_nfs_quota",
                      {login, login, std::to_string(300 + rng.Below(700))});
          break;
        case 4:
          mutate_both("update_zephyr_class",
                      {"zclass-2", "zclass-2", "USER", login, "NONE", "NONE", "NONE",
                       "NONE", "NONE", "NONE"});
          break;
      }
    }
    if (pass == 5) {
      // A checkpoint prunes the patched site's journal mid-run: that pass
      // must fall back to full regeneration, never a gapped patch.
      patched.journal.TruncateThrough(patched.journal.last_seq());
    }
    if (pass == 8) {
      // One host misses this pass entirely (in both fleets); the patched
      // site must full-ship to it next pass because its lts predates the
      // patch base.
      patched.Host(patched.builder->nfs_server_names()[0])
          ->SetFailMode(HostFailMode::kRefuseConnection, 1);
      full.Host(full.builder->nfs_server_names()[0])
          ->SetFailMode(HostFailMode::kRefuseConnection, 1);
    }
    DcmRunSummary summary_p = patched.dcm->RunOnce();
    DcmRunSummary summary_f = full.dcm->RunOnce();
    patch_passes += summary_p.services_patched > 0 ? 1 : 0;
    if (pass == 5) {
      EXPECT_GT(summary_p.truncation_fallbacks, 0) << "pass " << pass;
    }
    EXPECT_EQ(summary_f.host_hard_failures, 0) << "pass " << pass;
    EXPECT_EQ(summary_p.host_hard_failures, 0) << "pass " << pass;
    ExpectFleetsIdentical(patched, full, "pass " + std::to_string(pass));
  }
  // The schedule must actually have exercised the patch path.
  EXPECT_GE(patch_passes, 6);
}

// --- One buffer per staged file ---

// Makes the first NFS server value3-restricted to a list holding the first
// login as a USER and the second login's text as a STRING member.
void RestrictFirstNfsServer(Site& site) {
  const std::vector<std::string>& logins = site.builder->active_logins();
  ASSERT_EQ(MR_SUCCESS, site.Mutate("add_list", {"lockers", "1", "0", "0", "0", "0", "-1",
                                                 "NONE", "NONE", "value3 list"}));
  ASSERT_EQ(MR_SUCCESS, site.Mutate("add_member_to_list", {"lockers", "USER", logins[0]}));
  ASSERT_EQ(MR_SUCCESS, site.Mutate("add_member_to_list", {"lockers", "STRING", logins[1]}));
  ASSERT_EQ(MR_SUCCESS,
            site.Mutate("update_server_host_info",
                        {"NFS", site.builder->nfs_server_names()[0], "1", "0", "0", "lockers"}));
}

FileBytes StagedCredentials(Site& site, const std::string& machine) {
  return site.dcm->StagedPayload("NFS")->ForHost(machine).Share("credentials");
}

// The staged archives of the unrestricted NFS servers hold one credentials
// buffer after the full build and after a patched pass, and a value3 server
// holds its own.  The unrestricted servers' equal edits on that buffer
// resolve once, so they receive equal patches; the value3 server's edit
// differs, and so do its buffer and its patch.
TEST(DcmIncrementalTest, UnrestrictedNfsServersShareOneStagedCredentialsBuffer) {
  Site site;
  RestrictFirstNfsServer(site);
  site.dcm->AttachJournal(&site.journal);
  site.dcm->RunOnce();
  const std::vector<std::string>& nfs = site.builder->nfs_server_names();
  ASSERT_EQ(3u, nfs.size());
  const FileBytes built = StagedCredentials(site, nfs[1]);
  EXPECT_EQ(built, StagedCredentials(site, nfs[2]));
  EXPECT_NE(built, StagedCredentials(site, nfs[0]));

  // A shell change recomputes the credentials lines to the same bytes: the
  // edit is a no-op for every server, and no buffer moves.
  const std::vector<std::string>& logins = site.builder->active_logins();
  site.clock.Advance(25 * kSecondsPerHour);
  ASSERT_EQ(MR_SUCCESS, site.Mutate("update_user_shell", {logins[2], "/bin/same"}));
  site.dcm->RunOnce();
  EXPECT_EQ(built, StagedCredentials(site, nfs[1]));
  EXPECT_EQ(built, StagedCredentials(site, nfs[2]));

  // A new group changes the lines of logins[0] (on every server) and
  // logins[2] (not on the value3 server, whose edit deletes it instead).
  site.clock.Advance(25 * kSecondsPerHour);
  ASSERT_EQ(MR_SUCCESS, site.Mutate("add_list", {"sharegrp", "1", "0", "0", "0", "1", "40000",
                                                 "NONE", "NONE", "group"}));
  ASSERT_EQ(MR_SUCCESS, site.Mutate("add_member_to_list", {"sharegrp", "USER", logins[0]}));
  ASSERT_EQ(MR_SUCCESS, site.Mutate("add_member_to_list", {"sharegrp", "USER", logins[2]}));
  const FileBytes restricted_before = StagedCredentials(site, nfs[0]);
  DcmRunSummary summary = site.dcm->RunOnce();
  EXPECT_EQ(0, summary.full_regens);
  EXPECT_EQ(0, summary.patch_fallbacks);
  const FileBytes patched = StagedCredentials(site, nfs[1]);
  EXPECT_NE(built, patched);
  EXPECT_NE(std::string::npos, patched->find(":40000"));
  EXPECT_EQ(patched, StagedCredentials(site, nfs[2]));
  const FileBytes restricted = StagedCredentials(site, nfs[0]);
  EXPECT_NE(restricted_before, restricted);
  EXPECT_NE(patched, restricted);
  const std::string target = "/tmp/nfs.out";  // the NFS data file: this pass's patch
  std::optional<ArchivePatch> shipped1 = ArchivePatch::Parse(*site.Host(nfs[1])->ReadFile(target));
  std::optional<ArchivePatch> shipped2 = ArchivePatch::Parse(*site.Host(nfs[2])->ReadFile(target));
  std::optional<ArchivePatch> shipped0 = ArchivePatch::Parse(*site.Host(nfs[0])->ReadFile(target));
  ASSERT_TRUE(shipped0.has_value() && shipped1.has_value() && shipped2.has_value());
  const FilePatch* patch1 = shipped1->Find("credentials");
  const FilePatch* patch2 = shipped2->Find("credentials");
  const FilePatch* patch0 = shipped0->Find("credentials");
  ASSERT_TRUE(patch0 != nullptr && patch1 != nullptr && patch2 != nullptr);
  EXPECT_EQ(patch1->base_crc, patch2->base_crc);
  EXPECT_EQ(patch1->result_crc, patch2->result_crc);
  EXPECT_EQ(patch1->ops, patch2->ops);
  EXPECT_EQ(2u, patch1->ops.size());
  EXPECT_NE(patch1->ops, patch0->ops);
  EXPECT_NE(patch1->result_crc, patch0->result_crc);
  for (size_t i = 0; i < nfs.size(); ++i) {
    EXPECT_EQ(*StagedCredentials(site, nfs[i]),
              *site.Host(nfs[i])->ReadFile("/site/moira/credentials"))
        << nfs[i];
  }
}

// ResolveEdits on a service whose three hosts stage one shared buffer: the
// two hosts with equal edits end up sharing one result buffer and receive
// equal patches; the host with a different edit on that same base gets its
// own buffer and patch; and an edit that leaves the bytes as they were is a
// no-op for every host, so their shared buffer stays.
TEST(DcmIncrementalTest, EqualEditsOnASharedBaseResolveToOneBuffer) {
  Site site;
  const std::vector<std::string>& machines = site.builder->nfs_server_names();
  ASSERT_EQ(MR_SUCCESS, site.Mutate("add_server_info", {"SHARE", "60", "/tmp/share.out",
                                                        "share.sh", "UNIQUE", "1", "NONE",
                                                        "NONE"}));
  for (const std::string& machine : machines) {
    ASSERT_EQ(MR_SUCCESS,
              site.Mutate("add_server_host_info", {"SHARE", machine, "1", "0", "0", ""}));
  }
  auto generate = [machines](MoiraContext&, GeneratorResult* out) {
    const FileBytes data = MakeFileBytes("a 1\nb 1\n");
    const FileBytes same = MakeFileBytes("c 1\n");
    for (const std::string& machine : machines) {
      out->per_host[machine].Add("data", data);
      out->per_host[machine].Add("same", same);
    }
    return MR_SUCCESS;
  };
  auto build_patch = [machines](MoiraContext&, const DeltaPlan&, const GeneratorResult&,
                                ServicePatch* out) {
    for (size_t i = 0; i < machines.size(); ++i) {
      const std::string block = i + 1 < machines.size() ? "a 2" : "a 3";
      out->per_host[machines[i]]["data"].ops = {PatchOp{PatchOp::kUpsert, "a", block}};
      out->per_host[machines[i]]["same"].ops = {PatchOp{PatchOp::kUpsert, "c", "c 1"}};
    }
    return MR_SUCCESS;
  };
  site.dcm->ConfigureService("SHARE", DcmServiceConfig{generate, {}, "syncdir /site/share\n",
                                                       build_patch,
                                                       [](const DeltaPlan&) { return true; }});
  site.dcm->AttachJournal(&site.journal);
  site.dcm->RunOnce();
  auto staged = [&](const std::string& machine, const std::string& member) {
    return site.dcm->StagedPayload("SHARE")->ForHost(machine).Share(member);
  };
  ASSERT_EQ(3u, machines.size());
  const FileBytes same = staged(machines[0], "same");
  EXPECT_EQ(staged(machines[0], "data"), staged(machines[2], "data"));

  site.clock.Advance(25 * kSecondsPerHour);
  ASSERT_EQ(MR_SUCCESS,
            site.Mutate("update_user_shell", {site.builder->active_logins()[0], "/bin/x"}));
  DcmRunSummary summary = site.dcm->RunOnce();
  EXPECT_EQ(0, summary.patch_fallbacks);
  const FileBytes equal_edits = staged(machines[0], "data");
  EXPECT_EQ("a 2\nb 1\n", *equal_edits);
  EXPECT_EQ(equal_edits, staged(machines[1], "data"));
  EXPECT_EQ("a 3\nb 1\n", *staged(machines[2], "data"));
  for (const std::string& machine : machines) {
    EXPECT_EQ(same, staged(machine, "same")) << machine;
    EXPECT_EQ(*staged(machine, "data"), *site.Host(machine)->ReadFile("/site/share/data"))
        << machine;
  }
  std::vector<ArchivePatch> shipped;
  for (const std::string& machine : machines) {
    std::optional<ArchivePatch> patch =
        ArchivePatch::Parse(*site.Host(machine)->ReadFile("/tmp/share.out"));
    ASSERT_TRUE(patch.has_value()) << machine;
    EXPECT_EQ(1u, patch->size()) << machine;  // "same" is a no-op everywhere
    ASSERT_NE(nullptr, patch->Find("data")) << machine;
    shipped.push_back(std::move(*patch));
  }
  EXPECT_EQ(shipped[0].Serialize(), shipped[1].Serialize());
  EXPECT_NE(shipped[0].Find("data")->ops, shipped[2].Find("data")->ops);
  EXPECT_EQ(shipped[0].Find("data")->base_crc, shipped[2].Find("data")->base_crc);
}

// A torn flush on one NFS server truncates that server's installed file
// only: the buffer the DCM staged for every unrestricted server and the
// other servers' files keep their bytes.  The next pass's patch fails that
// server's base CRC, and the full archive heals it.
TEST(DcmIncrementalTest, TornFlushOnOneNfsServerLeavesTheRestWhole) {
  Site site;
  site.dcm->AttachJournal(&site.journal);
  site.dcm->RunOnce();
  const std::vector<std::string>& nfs = site.builder->nfs_server_names();
  const std::vector<std::string>& logins = site.builder->active_logins();
  const std::string path = "/site/moira/credentials";

  site.clock.Advance(25 * kSecondsPerHour);
  ASSERT_EQ(MR_SUCCESS, site.Mutate("update_user_status", {logins[0], "0"}));
  site.Host(nfs[1])->SetFailMode(HostFailMode::kTornFlush, 1);
  DcmRunSummary torn_pass = site.dcm->RunOnce();
  EXPECT_EQ(0, torn_pass.patch_fallbacks);
  const FileBytes staged = StagedCredentials(site, nfs[1]);
  EXPECT_EQ(std::string::npos, staged->find(logins[0] + ":"));
  EXPECT_EQ(staged, StagedCredentials(site, nfs[0]));
  EXPECT_EQ(staged->size() / 2, site.Host(nfs[1])->ReadFile(path)->size());
  EXPECT_EQ(*staged, *site.Host(nfs[0])->ReadFile(path));
  EXPECT_EQ(*staged, *site.Host(nfs[2])->ReadFile(path));

  site.clock.Advance(25 * kSecondsPerHour);
  ASSERT_EQ(MR_SUCCESS, site.Mutate("update_user_status", {logins[1], "0"}));
  DcmRunSummary heal_pass = site.dcm->RunOnce();
  EXPECT_EQ(1, heal_pass.patch_fallbacks);
  EXPECT_EQ(0, heal_pass.host_soft_failures);
  const FileBytes healed = StagedCredentials(site, nfs[1]);
  EXPECT_EQ(std::string::npos, healed->find(logins[1] + ":"));
  for (const std::string& machine : nfs) {
    EXPECT_EQ(*healed, *site.Host(machine)->ReadFile(path)) << machine;
  }
}

// A value3 list of {USER logins[0], STRING logins[1]} admits logins[0]
// only, and patched passes over that server equal a fresh regeneration.
TEST(DcmIncrementalTest, Value3StringMemberPatchedMatchesFullRegeneration) {
  Site patched;
  Site full;
  patched.dcm->AttachJournal(&patched.journal);
  RestrictFirstNfsServer(patched);
  RestrictFirstNfsServer(full);
  patched.dcm->RunOnce();
  full.dcm->RunOnce();
  const std::vector<std::string>& logins = patched.builder->active_logins();
  const std::string& restricted_host = patched.builder->nfs_server_names()[0];
  const std::string path = "/site/moira/credentials";
  EXPECT_EQ(0u, patched.Host(restricted_host)->ReadFile(path)->find(logins[0] + ":"));
  EXPECT_EQ(1, std::count(patched.Host(restricted_host)->ReadFile(path)->begin(),
                          patched.Host(restricted_host)->ReadFile(path)->end(), '\n'));
  ExpectFleetsIdentical(patched, full, "after first pass");

  // Dirty both logins: the STRING member's user changes on every server but
  // the value3 one, and more STRING members and a user join the list.
  const std::vector<std::pair<std::string, std::vector<std::string>>> steps = {
      {"update_user_status", {logins[1], "0"}},
      {"update_user_status", {logins[1], "1"}},
      {"add_member_to_list", {"lockers", "STRING", logins[2]}},
      {"add_member_to_list", {"lockers", "USER", logins[3]}},
      {"update_user_shell", {logins[0], "/bin/v3"}},
  };
  int patch_ships = 0;
  for (const auto& [query, args] : steps) {
    patched.clock.Advance(25 * kSecondsPerHour);
    full.clock.Advance(25 * kSecondsPerHour);
    ASSERT_EQ(MR_SUCCESS, patched.Mutate(query, args)) << query;
    ASSERT_EQ(MR_SUCCESS, full.Mutate(query, args)) << query;
    DcmRunSummary summary = patched.dcm->RunOnce();
    EXPECT_EQ(0, summary.full_regens) << query;
    patch_ships += summary.patch_ships;
    full.dcm->RunOnce();
    ExpectFleetsIdentical(patched, full, query);
  }
  EXPECT_GT(patch_ships, 0);
  const std::string& credentials = *patched.Host(restricted_host)->ReadFile(path);
  EXPECT_EQ(std::string::npos, credentials.find(logins[1] + ":"));
  EXPECT_EQ(std::string::npos, credentials.find(logins[2] + ":"));
  EXPECT_NE(std::string::npos, credentials.find(logins[3] + ":"));
}

// --- Replica offload: generation reads leave the primary ---

class ReplicaOffloadTest : public MoiraEnv {
 protected:
  void SetUp() override {
    SiteBuilder builder(mc_.get(), realm_.get());
    builder.Build(TestSiteSpec());
    hesiod_name_ = builder.hesiod_server_name();
    login_ = builder.active_logins()[0];
    zephyr_ = std::make_unique<ZephyrBus>(&clock_);
    hosts_ = CreateSimHosts(*mc_, realm_.get(), &directory_);
    dcm_ = std::make_unique<Dcm>(mc_.get(), realm_.get(), zephyr_.get(), &directory_);
    ConfigureStandardServices(dcm_.get());

    primary_ = std::make_unique<MoiraServer>(mc_.get(), realm_.get());
    realm_->AddPrincipal("root", "rootpw");
    // The site was populated directly (not through the journal), so bootstrap
    // the replica through the snapshot path: journal one mutation, prune it,
    // and let the truncation guard force a full state transfer.
    ASSERT_EQ(MR_SUCCESS,
              ExecuteJournaled(*mc_, &primary_->journal(), "root", "test",
                               "add_machine", {"repl-boot.mit.edu", "VAX"}));
    primary_->journal().TruncateThrough(primary_->journal().last_seq());
    ReplicaOptions options;
    options.name = "dcm-reader";
    replica_ = std::make_unique<ReplicaServer>(realm_.get(), options);
    replica_->SetPrimaryLink(
        [this] { return std::make_unique<LoopbackChannel>(primary_.get()); }, "root",
        "rootpw");
    ASSERT_EQ(MR_SUCCESS, replica_->CatchUp());
    ASSERT_EQ(1u, replica_->stats().snapshot_loads);

    dcm_->AttachJournal(&primary_->journal());
    dcm_->SetReadSource(&replica_->context(), [this](uint64_t seq) {
      return replica_->CatchUp() == MR_SUCCESS && replica_->applied_seq() >= seq;
    });
    clock_.Advance(kSecondsPerDay);
  }

  std::string hesiod_name_;
  std::string login_;
  std::unique_ptr<ZephyrBus> zephyr_;
  HostDirectory directory_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::unique_ptr<Dcm> dcm_;
  std::unique_ptr<MoiraServer> primary_;
  std::unique_ptr<ReplicaServer> replica_;
};

TEST_F(ReplicaOffloadTest, GenerationReadsGoToTheReplica) {
  // First pass: full regeneration of all four services, read entirely from
  // the replica.
  DcmRunSummary first = dcm_->RunOnce();
  EXPECT_EQ(4, first.full_regens);
  EXPECT_EQ(8, first.hosts_updated);
  EXPECT_EQ(0, first.generation_rows_primary);
  EXPECT_GT(first.generation_rows_replica, 0);

  // Steady state: journaled churn, replica catch-up at the pass's high-water
  // seq, keyed patches built from replica reads only.
  ASSERT_EQ(MR_SUCCESS,
            ExecuteJournaled(*mc_, &primary_->journal(), "root", "test",
                             "update_user_shell", {login_, "/bin/offload"}));
  clock_.Advance(25 * kSecondsPerHour);
  DcmRunSummary second = dcm_->RunOnce();
  EXPECT_GT(second.services_patched, 0);
  EXPECT_GT(second.patch_ships, 0);
  EXPECT_EQ(0, second.generation_rows_primary);
  EXPECT_GT(second.generation_rows_replica, 0);
  // The patches built from the replica still land the right bytes.
  const std::string* passwd =
      directory_.Find(hesiod_name_)->ReadFile("/etc/athena/hesiod/passwd.db");
  ASSERT_NE(nullptr, passwd);
  EXPECT_NE(passwd->find("/bin/offload"), std::string::npos);
}

TEST_F(ReplicaOffloadTest, StaleReplicaFallsBackToPrimaryReads) {
  // A replica that cannot reach the pass's high-water seq must not serve
  // generation reads; the pass reads the primary instead of stale state.
  dcm_->SetReadSource(&replica_->context(), [](uint64_t) { return false; });
  DcmRunSummary first = dcm_->RunOnce();
  EXPECT_EQ(4, first.full_regens);
  EXPECT_GT(first.generation_rows_primary, 0);
  EXPECT_EQ(0, first.generation_rows_replica);
}

}  // namespace
}  // namespace moira
