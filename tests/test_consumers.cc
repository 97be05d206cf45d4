// End-to-end tests for the downstream consumers of DCM output: the NFS
// fileserver substrate (locker creation, quotas, credentials) and the Zephyr
// server substrate (ACL enforcement) — paper section 5.8.2.
#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/strutil.h"
#include "src/dcm/dcm.h"
#include "src/nfsd/nfs_server.h"
#include "src/sim/population.h"
#include "src/zephyrd/zephyr_server.h"
#include "tests/test_env.h"

namespace moira {
namespace {

class ConsumerTest : public MoiraEnv {
 protected:
  void SetUp() override {
    SiteBuilder builder(mc_.get(), realm_.get());
    builder.Build(TestSiteSpec());
    logins_ = builder.active_logins();
    nfs_names_ = builder.nfs_server_names();
    zephyr_names_ = builder.zephyr_server_names();
    zephyr_bus_ = std::make_unique<ZephyrBus>(&clock_);
    hosts_ = CreateSimHosts(*mc_, realm_.get(), &directory_);
    dcm_ = std::make_unique<Dcm>(mc_.get(), realm_.get(), zephyr_bus_.get(), &directory_);
    ConfigureStandardServices(dcm_.get());
    // Attach the real consumers to the install scripts' exec commands.
    for (const std::string& name : nfs_names_) {
      auto server = std::make_unique<NfsServerSim>(directory_.Find(name));
      InstallNfsUpdateCommand(directory_.Find(name), server.get());
      nfs_servers_.emplace(name, std::move(server));
    }
    for (const std::string& name : zephyr_names_) {
      auto server = std::make_unique<ZephyrServerSim>(directory_.Find(name));
      InstallZephyrReloadCommand(directory_.Find(name), server.get());
      zephyr_servers_.emplace(name, std::move(server));
    }
    clock_.Advance(kSecondsPerDay);
  }

  NfsServerSim& Nfs(const std::string& name) { return *nfs_servers_.at(name); }
  ZephyrServerSim& Zephyr(const std::string& name) { return *zephyr_servers_.at(name); }

  std::vector<std::string> logins_;
  std::vector<std::string> nfs_names_;
  std::vector<std::string> zephyr_names_;
  std::unique_ptr<ZephyrBus> zephyr_bus_;
  HostDirectory directory_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::map<std::string, std::unique_ptr<NfsServerSim>> nfs_servers_;
  std::map<std::string, std::unique_ptr<ZephyrServerSim>> zephyr_servers_;
  std::unique_ptr<Dcm> dcm_;
};

TEST_F(ConsumerTest, LockersCreatedWithOwnershipAndQuota) {
  dcm_->RunOnce();
  // Every active user's home locker exists on their fileserver with the
  // right uid/gid/type and quota.
  int found = 0;
  for (const std::string& login : logins_) {
    RowRef fs = mc_->FilesysByLabel(login);
    ASSERT_EQ(MR_SUCCESS, fs.code);
    RowRef mach = mc_->ExactOne(
        mc_->machine(), "mach_id",
        Value(MoiraContext::IntCell(mc_->filesys(), fs.row, "mach_id")), MR_MACHINE);
    const std::string& server_name =
        MoiraContext::StrCell(mc_->machine(), mach.row, "name");
    NfsServerSim& server = Nfs(server_name);
    const std::string& server_dir = MoiraContext::StrCell(mc_->filesys(), fs.row, "name");
    const NfsLocker* locker = server.FindLocker(server_dir);
    ASSERT_NE(nullptr, locker) << server_dir;
    EXPECT_EQ("HOMEDIR", locker->type);
    RowRef user = mc_->UserByLogin(login);
    int64_t uid = MoiraContext::IntCell(mc_->users(), user.row, "uid");
    EXPECT_EQ(uid, locker->uid);
    EXPECT_EQ(300, server.QuotaFor(uid).value_or(-1));
    ++found;
  }
  EXPECT_EQ(static_cast<int>(logins_.size()), found);
}

TEST_F(ConsumerTest, HomedirGetsDefaultInitFiles) {
  dcm_->RunOnce();
  RowRef fs = mc_->FilesysByLabel(logins_[0]);
  RowRef mach = mc_->ExactOne(
      mc_->machine(), "mach_id",
      Value(MoiraContext::IntCell(mc_->filesys(), fs.row, "mach_id")), MR_MACHINE);
  SimHost* host = directory_.Find(MoiraContext::StrCell(mc_->machine(), mach.row, "name"));
  const std::string& server_dir = MoiraContext::StrCell(mc_->filesys(), fs.row, "name");
  EXPECT_TRUE(host->HasFile(server_dir + "/.cshrc"));
  EXPECT_TRUE(host->HasFile(server_dir + "/.login"));
}

TEST_F(ConsumerTest, LockerCreationIsIdempotent) {
  dcm_->RunOnce();
  NfsServerSim& server = Nfs(nfs_names_[0]);
  int created = server.lockers_created();
  ASSERT_GT(created, 0);
  // A user customizes their init file; a forced re-update must not clobber
  // it or re-create the locker.
  RowRef fs = mc_->FilesysByLabel(logins_[0]);
  const std::string& dir = MoiraContext::StrCell(mc_->filesys(), fs.row, "name");
  RowRef mach = mc_->ExactOne(
      mc_->machine(), "mach_id",
      Value(MoiraContext::IntCell(mc_->filesys(), fs.row, "mach_id")), MR_MACHINE);
  SimHost* host = directory_.Find(MoiraContext::StrCell(mc_->machine(), mach.row, "name"));
  host->WriteFileDirect(dir + "/.cshrc", "# my customizations\n");
  clock_.Advance(kSecondsPerMinute);
  for (const std::string& name : nfs_names_) {
    ASSERT_EQ(MR_SUCCESS, RunRoot("set_server_host_override", {"NFS", name}));
  }
  dcm_->RunOnce();
  if (host->name() == nfs_names_[0]) {
    EXPECT_EQ(created, server.lockers_created());
  }
  EXPECT_EQ("# my customizations\n", *host->ReadFile(dir + "/.cshrc"));
}

TEST_F(ConsumerTest, CredentialsListActiveUsersOnly) {
  dcm_->RunOnce();
  NfsServerSim& server = Nfs(nfs_names_[0]);
  for (const std::string& login : logins_) {
    EXPECT_TRUE(server.HasCredential(login)) << login;
  }
  EXPECT_FALSE(server.HasCredential("no-such-user"));
  // Credentials carry the user's gid list.
  std::optional<NfsCredential> credential = server.CredentialFor(logins_[0]);
  ASSERT_TRUE(credential.has_value());
  EXPECT_FALSE(credential->gids.empty());
}

// The reference for the credentials a server holds: each line applied in
// file order with std::map::insert_or_assign, so a repeated login keeps its
// last line, and the first malformed line ends the apply with status 1,
// keeping the lines before it.
struct ReferenceCredentials {
  std::map<std::string, NfsCredential, std::less<>> by_login;
  int status = 0;
};

ReferenceCredentials ApplyReference(const std::string& text) {
  ReferenceCredentials ref;
  std::vector<std::string_view> lines;
  std::vector<std::string_view> fields;
  SplitViews(text, '\n', &lines);
  for (std::string_view line : lines) {
    line = TrimWhitespace(line);
    if (line.empty()) {
      continue;
    }
    SplitViews(line, ':', &fields);
    NfsCredential credential;
    bool ok = fields.size() >= 2;
    for (size_t i = 1; ok && i < fields.size(); ++i) {
      std::optional<int64_t> n = ParseInt(fields[i]);
      ok = n.has_value();
      if (ok && i == 1) {
        credential.uid = *n;
      } else if (ok) {
        credential.gids.push_back(*n);
      }
    }
    if (!ok) {
      ref.status = 1;
      return ref;
    }
    ref.by_login.insert_or_assign(std::string(fields[0]), std::move(credential));
  }
  return ref;
}

// Logins that prefix one another, an empty one, and bytes >= 0x80.
const char* const kCredentialLogins[] = {
    "", "a", "ab", "ab-c", "abc", "abd", "b", "\x80", "\xc3\xa9t\xc3\xa9", "z\xff"};
// No uid, an empty or a non-numeric field.
const char* const kMalformedCredentials[] = {"nocolon", "ab:", "ab:x", "ab:1:y", "ab::2", ":"};

// A random credentials file over kCredentialLogins: repeated logins, lines
// with no gids, padded lines and fields, blank lines, and now and then a
// malformed line.  Lines are unsorted, or (one round in three) sorted by
// login.  Adds every login a line carries to `logins`.
std::string RandomCredentialsFile(SplitMix64& rng, std::set<std::string>* logins) {
  std::vector<std::pair<std::string, std::string>> lines;  // (login, line)
  const uint64_t count = rng.Below(60);
  for (uint64_t i = 0; i < count; ++i) {
    std::string login = kCredentialLogins[rng.Below(std::size(kCredentialLogins))];
    if (rng.Chance(1, 10)) {
      login += " ";  // a padded login keeps its pad
    }
    logins->insert(login);
    std::string line = login + ":" + std::to_string(rng.Between(-3, 30000));
    for (uint64_t g = rng.Below(4); g > 0; --g) {
      line += rng.Chance(1, 6) ? ": " : ":";
      line += std::to_string(rng.Below(500));
    }
    if (rng.Chance(1, 6)) {
      line = "  " + line + " \t";
    }
    lines.emplace_back(std::move(login), std::move(line));
  }
  if (rng.Chance(1, 3)) {
    std::stable_sort(lines.begin(), lines.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  std::string text;
  for (const auto& [login, line] : lines) {
    if (rng.Chance(1, 12)) {
      text += rng.Chance(1, 2) ? "\n" : "   \n";
    }
    if (rng.Chance(1, 80)) {
      text += std::string(kMalformedCredentials[rng.Below(std::size(kMalformedCredentials))]) +
              "\n";
    }
    text += line + "\n";
  }
  if (!text.empty() && rng.Chance(1, 4)) {
    text.pop_back();  // no newline after the last line
  }
  return text;
}

TEST(CredentialsTest, LookupsMatchMapReference) {
  SimulatedClock clock(0);
  KerberosRealm realm(&clock);
  int malformed = 0;
  for (uint64_t seed : {7, 8, 9, 1988, 2026}) {
    SplitMix64 rng(seed);
    SimHost host("NFS-1.MIT.EDU", &realm, &clock);
    NfsServerSim server(&host);
    // Logins and their near misses, kept across rounds so each apply must
    // also drop what the one before it held.
    std::set<std::string> logins = {"abcd", "ab-", "aa", "c", "\xc3\xa9"};
    for (int round = 0; round < 40; ++round) {
      const std::string text = RandomCredentialsFile(rng, &logins);
      host.WriteFileDirect("/site/moira/credentials", text);
      const ReferenceCredentials ref = ApplyReference(text);
      malformed += ref.status;
      ASSERT_EQ(ref.status, server.ApplyMoiraFiles("/site/moira"))
          << "seed " << seed << ", round " << round << ":\n" << text;
      for (const std::string& login : logins) {
        auto it = ref.by_login.find(login);
        EXPECT_EQ(it != ref.by_login.end(), server.HasCredential(login))
            << "seed " << seed << ", round " << round << ", login '" << login << "'";
        std::optional<NfsCredential> got = server.CredentialFor(login);
        ASSERT_EQ(it != ref.by_login.end(), got.has_value())
            << "seed " << seed << ", round " << round << ", login '" << login << "'";
        if (got.has_value()) {
          EXPECT_EQ(it->second.uid, got->uid) << "login '" << login << "'";
          EXPECT_EQ(it->second.gids, got->gids) << "login '" << login << "'";
        }
      }
    }
  }
  EXPECT_GT(malformed, 0);  // the malformed path ran
}

// The consumer shares the credentials buffer it applied instead of copying
// it, and keeps answering from it after the host overwrites or removes the
// file, until it applies again.
TEST(CredentialsTest, AppliedCredentialsOutliveTheHostFile) {
  SimulatedClock clock(0);
  KerberosRealm realm(&clock);
  SimHost host("NFS-1.MIT.EDU", &realm, &clock);
  NfsServerSim server(&host);
  const std::string path = "/site/moira/credentials";
  host.WriteFileDirect(path, "alice:100:10\nbob:101\n");
  ASSERT_EQ(0, server.ApplyMoiraFiles("/site/moira"));
  host.WriteFileDirect(path, "carol:102\n");
  EXPECT_TRUE(server.HasCredential("alice"));
  EXPECT_FALSE(server.HasCredential("carol"));
  host.RemoveFile(path);
  std::optional<NfsCredential> alice = server.CredentialFor("alice");
  ASSERT_TRUE(alice.has_value());
  EXPECT_EQ(100, alice->uid);
  EXPECT_EQ(std::vector<int64_t>{10}, alice->gids);
  EXPECT_TRUE(server.HasCredential("bob"));
  // With no credentials file, an apply keeps what the last one loaded.
  ASSERT_EQ(0, server.ApplyMoiraFiles("/site/moira"));
  EXPECT_TRUE(server.HasCredential("bob"));
  host.WriteFileDirect(path, "carol:102\n");
  ASSERT_EQ(0, server.ApplyMoiraFiles("/site/moira"));
  EXPECT_FALSE(server.HasCredential("alice"));
  EXPECT_TRUE(server.HasCredential("carol"));
}

// Every HOMEDIR locker on a host gets its .cshrc and .login from one buffer
// each.
TEST_F(ConsumerTest, HomedirInitFilesShareOneBufferPerHost) {
  dcm_->RunOnce();
  SimHost* host = directory_.Find(nfs_names_[0]);
  std::set<const std::string*> cshrc;
  std::set<const std::string*> login;
  for (const std::string& path : host->ListFiles()) {
    if (path.ends_with("/.cshrc")) {
      cshrc.insert(host->ReadFile(path));
    } else if (path.ends_with("/.login")) {
      login.insert(host->ReadFile(path));
    }
  }
  EXPECT_EQ(1u, cshrc.size());
  EXPECT_EQ(1u, login.size());
  EXPECT_GT(Nfs(nfs_names_[0]).lockers_created(), 1);
}

TEST_F(ConsumerTest, QuotaChangeReachesSetquota) {
  dcm_->RunOnce();
  clock_.Advance(kSecondsPerMinute);
  const std::string& login = logins_[0];
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_nfs_quota", {login, login, "750"}));
  clock_.Advance(13 * kSecondsPerHour);
  dcm_->RunOnce();
  RowRef user = mc_->UserByLogin(login);
  int64_t uid = MoiraContext::IntCell(mc_->users(), user.row, "uid");
  RowRef fs = mc_->FilesysByLabel(login);
  RowRef mach = mc_->ExactOne(
      mc_->machine(), "mach_id",
      Value(MoiraContext::IntCell(mc_->filesys(), fs.row, "mach_id")), MR_MACHINE);
  const std::string& server_name = MoiraContext::StrCell(mc_->machine(), mach.row, "name");
  EXPECT_EQ(750, Nfs(server_name).QuotaFor(uid).value_or(-1));
}

TEST_F(ConsumerTest, ZephyrAclsLoadedOnAllServers) {
  dcm_->RunOnce();
  for (const std::string& name : zephyr_names_) {
    EXPECT_EQ(1, Zephyr(name).reload_count()) << name;
    EXPECT_EQ(6u, Zephyr(name).class_count()) << name;  // the 6 site classes
  }
}

TEST_F(ConsumerTest, ZephyrTransmitEnforcement) {
  dcm_->RunOnce();
  ZephyrServerSim& server = Zephyr(zephyr_names_[0]);
  // The site builder gives zclass-1 a LIST xmt ace, zclass-2 a USER ace,
  // zclass-3 NONE (wildcard).
  const ZephyrClassAcl* open_class = server.FindClass("zclass-3");
  ASSERT_NE(nullptr, open_class);
  EXPECT_TRUE(server.MayTransmit("zclass-3", "anyone@ATHENA.MIT.EDU"));
  const ZephyrClassAcl* user_class = server.FindClass("zclass-2");
  ASSERT_NE(nullptr, user_class);
  ASSERT_EQ(1u, user_class->xmt.principals.size());
  std::string allowed = *user_class->xmt.principals.begin();
  EXPECT_TRUE(server.MayTransmit("zclass-2", allowed));
  EXPECT_FALSE(server.MayTransmit("zclass-2", "someone-else@ATHENA.MIT.EDU"));
  // Unknown classes are uncontrolled.
  EXPECT_TRUE(server.MayTransmit("uncontrolled-class", "anyone@X"));
}

TEST_F(ConsumerTest, AclMembershipChangePropagatesToEnforcement) {
  dcm_->RunOnce();
  ZephyrServerSim& server = Zephyr(zephyr_names_[0]);
  // zclass-1's xmt ace is a LIST; add a user to that list and the next DCM
  // interval changes what the zephyr server enforces.
  const ZephyrClassAcl* acl = server.FindClass("zclass-1");
  ASSERT_NE(nullptr, acl);
  const std::string& newcomer = logins_[3];
  std::string principal = newcomer + "@ATHENA.MIT.EDU";
  if (server.MayTransmit("zclass-1", principal)) {
    GTEST_SKIP() << "picked user already on the ACL list";
  }
  clock_.Advance(kSecondsPerMinute);
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_zephyr_class", {"zclass-1"}, &tuples));
  const std::string& list_name = tuples[0][2];
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {list_name, "USER", newcomer}));
  clock_.Advance(25 * kSecondsPerHour);
  dcm_->RunOnce();
  EXPECT_EQ(2, server.reload_count());
  EXPECT_TRUE(server.MayTransmit("zclass-1", principal));
}

}  // namespace
}  // namespace moira
