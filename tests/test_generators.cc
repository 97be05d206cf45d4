// Tests for the server-specific file generators (paper section 5.8.2):
// formats of the Hesiod .db files, the NFS files, the aliases file, and the
// Zephyr ACLs.
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/db/exec.h"
#include "src/dcm/generators.h"
#include "src/hesiod/hesiod.h"
#include "tests/test_env.h"

namespace moira {
namespace {

class GeneratorTest : public MoiraEnv {
 protected:
  void SetUp() override {
    // Small site: 1 hesiod host, 2 NFS servers, 1 pop, 1 mailhub.
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"suomi.mit.edu", "VAX"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"athena-po-1.mit.edu", "VAX"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"nfs-1.mit.edu", "VAX"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"nfs-2.mit.edu", "VAX"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_nfsphys",
                                  {"nfs-1.mit.edu", "/u1", "ra00", "1", "0", "99999"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_nfsphys",
                                  {"nfs-2.mit.edu", "/u1", "ra00", "1", "0", "99999"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_server_info", {"NFS", "720", "/tmp/nfs.out",
                                                      "nfs.sh", "UNIQUE", "1", "NONE",
                                                      "NONE"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_server_host_info",
                                  {"NFS", "nfs-1.mit.edu", "1", "0", "0", ""}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_server_host_info",
                                  {"NFS", "nfs-2.mit.edu", "1", "0", "0", ""}));
    // Users: two active (one POP, one SMTP), one inactive.
    AddActiveUser("babette", 6530);
    AddActiveUser("abarba", 6531);
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_user", {"ghost", "6532", "/bin/csh", "G", "H", "I",
                                               "0", "x", "G"}));
    ASSERT_EQ(MR_SUCCESS,
              RunRoot("set_pobox", {"babette", "POP", "athena-po-1.mit.edu"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("set_pobox", {"abarba", "SMTP", "abarba@other.edu"}));
    // Groups: babette's own group plus a project group containing both users.
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"babette", "1", "0", "0", "0", "1", "10914",
                                               "USER", "babette", "user group"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"babette", "USER", "babette"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"proj", "1", "0", "0", "0", "1", "10915",
                                               "NONE", "NONE", "project"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"proj", "USER", "babette"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"proj", "USER", "abarba"}));
    // An inactive group must not be extracted.
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"stale", "0", "0", "0", "0", "1", "10916",
                                               "NONE", "NONE", "inactive"}));
    // A maillist with a sublist and a string member.
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"video-users", "1", "0", "0", "1", "0",
                                               "-1", "USER", "babette", "video"}));
    ASSERT_EQ(MR_SUCCESS,
              RunRoot("add_member_to_list", {"video-users", "USER", "abarba"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"video-users", "LIST", "proj"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list",
                                  {"video-users", "STRING", "rubin@media-lab.mit.edu"}));
    // A home filesystem with a quota.
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_filesys",
                                  {"babette", "NFS", "nfs-1.mit.edu", "/u1/babette",
                                   "/mit/babette", "w", "", "babette", "babette", "1",
                                   "HOMEDIR"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_nfs_quota", {"babette", "babette", "300"}));
    // Printer, service, cluster with data and machine assignment.
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_printcap", {"linus", "suomi.mit.edu",
                                                   "/usr/spool/printer/linus", "linus",
                                                   ""}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_service", {"smtp", "tcp", "25", "mail"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"bldge40", "d", "l"}));
    ASSERT_EQ(MR_SUCCESS,
              RunRoot("add_cluster_data", {"bldge40", "zephyr", "neskaya.mit.edu"}));
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine_to_cluster", {"suomi.mit.edu", "bldge40"}));
    // Zephyr class with a LIST ace.
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_zephyr_class",
                                  {"message", "LIST", "proj", "NONE", "NONE", "NONE",
                                   "NONE", "NONE", "NONE"}));
  }
};

TEST_F(GeneratorTest, HesiodProducesElevenFiles) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &result));
  EXPECT_EQ(11u, result.common.size());
  for (const char* file :
       {"cluster.db", "filsys.db", "gid.db", "group.db", "grplist.db", "passwd.db",
        "pobox.db", "printcap.db", "service.db", "sloc.db", "uid.db"}) {
    EXPECT_NE(nullptr, result.common.Find(file)) << file;
  }
}

TEST_F(GeneratorTest, HesiodFilesLoadIntoHesiodServer) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &result));
  HesiodServer server;
  for (const auto& [name, contents] : result.common.members()) {
    EXPECT_GE(server.LoadDb(*contents), 0) << name;
  }
  // passwd lookups work end to end, including the uid CNAME.
  ASSERT_EQ(1u, server.Resolve("babette", "passwd").size());
  EXPECT_EQ(server.Resolve("babette", "passwd"), server.Resolve("6530", "uid"));
  // pobox only for the POP user.
  ASSERT_EQ(1u, server.Resolve("babette", "pobox").size());
  EXPECT_EQ("POP ATHENA-PO-1.MIT.EDU babette", server.Resolve("babette", "pobox")[0]);
  EXPECT_TRUE(server.Resolve("abarba", "pobox").empty());
  // Machine cluster CNAME.
  ASSERT_EQ(1u, server.Resolve("SUOMI.MIT.EDU", "cluster").size());
  EXPECT_EQ("zephyr neskaya.mit.edu", server.Resolve("SUOMI.MIT.EDU", "cluster")[0]);
}

TEST_F(GeneratorTest, PasswdDbFormatAndActiveOnly) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &result));
  const std::string& passwd = *result.common.Find("passwd.db");
  EXPECT_NE(passwd.find("babette.passwd HS UNSPECA \"babette:*:6530:101:"),
            std::string::npos);
  EXPECT_NE(passwd.find(":/mit/babette:/bin/csh\""), std::string::npos);
  // Inactive users are excluded from extracts.
  EXPECT_EQ(passwd.find("ghost"), std::string::npos);
}

TEST_F(GeneratorTest, GroupFilesConsistent) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &result));
  const std::string& group = *result.common.Find("group.db");
  const std::string& gid = *result.common.Find("gid.db");
  const std::string& grplist = *result.common.Find("grplist.db");
  EXPECT_NE(group.find("babette.group HS UNSPECA \"babette:*:10914:\""),
            std::string::npos);
  EXPECT_NE(gid.find("10914.gid HS CNAME babette.group"), std::string::npos);
  // Inactive group excluded everywhere.
  EXPECT_EQ(group.find("stale"), std::string::npos);
  EXPECT_EQ(gid.find("10916"), std::string::npos);
  // babette's grplist leads with her own group, then proj.
  EXPECT_NE(grplist.find("\"babette:10914:proj:10915\""), std::string::npos);
  // abarba is only in proj.
  EXPECT_NE(grplist.find("\"abarba:proj:10915\""), std::string::npos);
}

TEST_F(GeneratorTest, FilsysPrintcapServiceSloc) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &result));
  EXPECT_NE(result.common.Find("filsys.db")->find(
                "babette.filsys HS UNSPECA \"NFS /u1/babette nfs-1.mit.edu w "
                "/mit/babette\""),
            std::string::npos);
  EXPECT_NE(result.common.Find("printcap.db")
                ->find("linus.pcap HS UNSPECA "
                       "\"linus:rp=linus:rm=SUOMI.MIT.EDU:sd=/usr/spool/printer/linus\""),
            std::string::npos);
  EXPECT_NE(result.common.Find("service.db")
                ->find("smtp.service HS UNSPECA \"smtp tcp 25\""),
            std::string::npos);
  EXPECT_NE(result.common.Find("sloc.db")->find("NFS.sloc HS UNSPECA NFS-1.MIT.EDU"),
            std::string::npos);
}

TEST_F(GeneratorTest, NfsPerHostPayloads) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateNfs(*mc_, &result));
  ASSERT_EQ(2u, result.per_host.size());
  const Archive& host1 = result.ForHost("NFS-1.MIT.EDU");
  ASSERT_NE(nullptr, host1.Find("u1.dirs"));
  ASSERT_NE(nullptr, host1.Find("u1.quotas"));
  ASSERT_NE(nullptr, host1.Find("credentials"));
  // babette's locker (autocreate) appears on host 1 only.
  EXPECT_NE(host1.Find("u1.dirs")->find("/u1/babette 6530 10914 HOMEDIR"),
            std::string::npos);
  EXPECT_NE(host1.Find("u1.quotas")->find("6530 300"), std::string::npos);
  const Archive& host2 = result.ForHost("NFS-2.MIT.EDU");
  EXPECT_EQ("", *host2.Find("u1.dirs"));
  // The master credentials file lists both active users with their groups.
  const std::string& creds = *host1.Find("credentials");
  EXPECT_NE(creds.find("babette:6530:10914:10915"), std::string::npos);
  EXPECT_NE(creds.find("abarba:6531:10915"), std::string::npos);
  EXPECT_EQ(creds.find("ghost"), std::string::npos);
  EXPECT_EQ(creds, *host2.Find("credentials"));
}

TEST_F(GeneratorTest, NfsCredentialsRestrictedByValue3) {
  // value3 names a list whose membership becomes the credentials file.
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_server_host_info",
                                {"NFS", "nfs-2.mit.edu", "1", "0", "0", "proj"}));
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateNfs(*mc_, &result));
  const std::string& restricted = *result.ForHost("NFS-2.MIT.EDU").Find("credentials");
  EXPECT_NE(restricted.find("babette:"), std::string::npos);
  EXPECT_NE(restricted.find("abarba:"), std::string::npos);
  // Restricting to babette's own group excludes abarba.
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_server_host_info",
                                {"NFS", "nfs-2.mit.edu", "1", "0", "0", "babette"}));
  GeneratorResult result2;
  ASSERT_EQ(MR_SUCCESS, GenerateNfs(*mc_, &result2));
  const std::string& own = *result2.ForHost("NFS-2.MIT.EDU").Find("credentials");
  EXPECT_NE(own.find("babette:"), std::string::npos);
  EXPECT_EQ(own.find("abarba:"), std::string::npos);
}

// A STRING member that spells a login admits no one to a value3-restricted
// credentials file: only USER members and LIST containment do.
TEST_F(GeneratorTest, NfsValue3StringMemberAdmitsNoUser) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"lockers", "1", "0", "0", "0", "0", "-1",
                                             "NONE", "NONE", "value3 list"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"lockers", "USER", "babette"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"lockers", "STRING", "abarba"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_server_host_info",
                                {"NFS", "nfs-2.mit.edu", "1", "0", "0", "lockers"}));
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateNfs(*mc_, &result));
  const std::string& restricted = *result.ForHost("NFS-2.MIT.EDU").Find("credentials");
  EXPECT_EQ(0u, restricted.find("babette:6530:"));
  EXPECT_EQ(1, std::count(restricted.begin(), restricted.end(), '\n')) << restricted;
  EXPECT_NE(result.ForHost("NFS-1.MIT.EDU").Find("credentials")->find("abarba:"),
            std::string::npos);
}

// Every server whose value3 is blank gets the one master credentials buffer;
// a value3 server gets its own.
TEST_F(GeneratorTest, NfsUnrestrictedServersShareOneCredentialsBuffer) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateNfs(*mc_, &result));
  EXPECT_EQ(result.ForHost("NFS-1.MIT.EDU").Share("credentials"),
            result.ForHost("NFS-2.MIT.EDU").Share("credentials"));
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_server_host_info",
                                {"NFS", "nfs-2.mit.edu", "1", "0", "0", "proj"}));
  GeneratorResult restricted;
  ASSERT_EQ(MR_SUCCESS, GenerateNfs(*mc_, &restricted));
  EXPECT_NE(restricted.ForHost("NFS-1.MIT.EDU").Share("credentials"),
            restricted.ForHost("NFS-2.MIT.EDU").Share("credentials"));
}

TEST_F(GeneratorTest, AliasesFileFormat) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateMail(*mc_, &result));
  const std::string& aliases = *result.common.Find("aliases");
  // Owner alias for the USER ace.
  EXPECT_NE(aliases.find("owner-video-users: babette"), std::string::npos);
  // Members: users by login, sublists by name, strings verbatim.
  EXPECT_NE(aliases.find("video-users: "), std::string::npos);
  EXPECT_NE(aliases.find("abarba"), std::string::npos);
  EXPECT_NE(aliases.find("proj"), std::string::npos);
  EXPECT_NE(aliases.find("rubin@media-lab.mit.edu"), std::string::npos);
  // Pobox routing: POP users to <po>.LOCAL, SMTP users to their address.
  EXPECT_NE(aliases.find("babette: babette@ATHENA-PO-1.LOCAL"), std::string::npos);
  EXPECT_NE(aliases.find("abarba: abarba@other.edu"), std::string::npos);
  // The complete /etc/passwd ships alongside for the mailhub finger server.
  const std::string& passwd = *result.common.Find("passwd");
  EXPECT_NE(passwd.find("babette:*:6530:101:"), std::string::npos);
  EXPECT_EQ(passwd.find("ghost"), std::string::npos);
}

TEST_F(GeneratorTest, ZephyrAclsExpandRecursively) {
  GeneratorResult result;
  ASSERT_EQ(MR_SUCCESS, GenerateZephyrAcls(*mc_, &result));
  ASSERT_EQ(1u, result.common.size());
  const std::string& acl = *result.common.Find("message.acl");
  // The LIST ace expands to member logins.
  EXPECT_NE(acl.find("babette@ATHENA.MIT.EDU"), std::string::npos);
  EXPECT_NE(acl.find("abarba@ATHENA.MIT.EDU"), std::string::npos);
  // NONE aces render as the wildcard.
  EXPECT_NE(acl.find("*.*@*"), std::string::npos);
}

TEST_F(GeneratorTest, ExpandListHandlesNestingAndStrings) {
  RowRef video = mc_->ListByName("video-users");
  ASSERT_EQ(MR_SUCCESS, video.code);
  std::vector<std::string> logins = ExpandListToLogins(
      *mc_, MoiraContext::IntCell(mc_->list(), video.row, "list_id"), true);
  // abarba direct, babette via proj, plus the string member.
  EXPECT_EQ(3u, logins.size());
  // Users only: the string member is no login.
  EXPECT_EQ((std::vector<std::string>{"abarba", "babette"}),
            ExpandListToUserLogins(
                *mc_, MoiraContext::IntCell(mc_->list(), video.row, "list_id"), true));
}

// A user's (group name, gid) pairs, comparable.
std::vector<std::pair<std::string, int64_t>> Pairs(const std::vector<GroupMembership>& groups) {
  std::vector<std::pair<std::string, int64_t>> out;
  for (const GroupMembership& m : groups) {
    out.emplace_back(m.group_name, m.gid);
  }
  return out;
}

// The full build's group map and the patch builders' per-user closure must
// agree for every active user, or a patched grplist.db or credentials file
// differs from a fresh regeneration.
TEST_F(GeneratorTest, GroupMapMatchesUserGroupsFor) {
  AddActiveUser("hnash", 6533);
  AddActiveUser("cwong", 6534);
  // outer holds babette directly and again through inner (two paths), a
  // STRING member whose text is hnash's login, and a non-group list.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"outer", "1", "0", "0", "0", "1", "10920",
                                             "NONE", "NONE", "outer group"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"inner", "1", "0", "0", "0", "1", "10921",
                                             "NONE", "NONE", "inner group"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"relay", "1", "0", "0", "1", "0", "-1",
                                             "NONE", "NONE", "not a group"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"outer", "USER", "babette"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"outer", "LIST", "inner"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"outer", "STRING", "hnash"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"outer", "LIST", "relay"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"inner", "USER", "babette"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"inner", "USER", "abarba"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"inner", "USER", "ghost"}));
  // A membership cycle: inner contains outer.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"inner", "LIST", "outer"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"relay", "USER", "cwong"}));
  // A STRING member whose string id is hnash's users_id.
  Table* users = mc_->users();
  int64_t hnash = MoiraContext::IntCell(users, mc_->UserByLogin("hnash").row, "users_id");
  mc_->members()->Append({Value(MoiraContext::IntCell(mc_->list(), mc_->ListByName("inner").row,
                                                      "list_id")),
                          Value("STRING"), Value(hnash)});

  std::map<int64_t, std::vector<GroupMembership>> map = BuildUserGroupMap(*mc_);
  int checked = 0;
  for (size_t row : From(users).WhereEq("status", Value(int64_t{kUserActive})).Rows()) {
    int64_t users_id = MoiraContext::IntCell(users, row, "users_id");
    EXPECT_EQ(Pairs(UserGroupsFor(*mc_, users_id)), Pairs(map[users_id]))
        << MoiraContext::StrCell(users, row, "login");
    ++checked;
  }
  EXPECT_EQ(4, checked);
  // Only active users have pairs: ghost is an inactive member of inner.
  EXPECT_EQ(0u, map.count(MoiraContext::IntCell(users, mc_->UserByLogin("ghost").row,
                                                "users_id")));
  using Groups = std::vector<std::pair<std::string, int64_t>>;
  int64_t cwong = MoiraContext::IntCell(users, mc_->UserByLogin("cwong").row, "users_id");
  int64_t babette = MoiraContext::IntCell(users, mc_->UserByLogin("babette").row, "users_id");
  EXPECT_EQ(Groups{}, Pairs(map[hnash]));  // STRING members are no users
  // cwong is in outer through relay, and in inner through the cycle.
  EXPECT_EQ((Groups{{"outer", 10920}, {"inner", 10921}}), Pairs(map[cwong]));
  EXPECT_EQ((Groups{{"babette", 10914}, {"proj", 10915}, {"outer", 10920}, {"inner", 10921}}),
            Pairs(map[babette]));
}

// References that resolve to no row, or to several, as an unrepaired restore
// can leave them: the full builds write what a failed ExactOne probe writes.
TEST_F(GeneratorTest, DanglingReferencesKeepTheirBytes) {
  constexpr int64_t kMissing = 99999;
  constexpr int64_t kTwice = 9001;  // a mach_id two machine rows hold
  for (const char* name : {"TWIN-A.MIT.EDU", "TWIN-B.MIT.EDU"}) {
    mc_->machine()->Append({Value(name), Value(kTwice), Value("VAX"), Value(int64_t{0}),
                            Value("root"), Value("test")});
  }
  AddActiveUser("hnash", 6533);
  ASSERT_EQ(MR_SUCCESS, RunRoot("set_pobox", {"hnash", "POP", "athena-po-1.mit.edu"}));
  Table* users = mc_->users();
  MoiraContext::SetCell(users, mc_->UserByLogin("babette").row, "pop_id", Value(kMissing));
  MoiraContext::SetCell(users, mc_->UserByLogin("hnash").row, "pop_id", Value(kTwice));
  Table* filesys = mc_->filesys();
  size_t locker = mc_->FilesysByLabel("babette").row;
  MoiraContext::SetCell(filesys, locker, "owner", Value(kMissing));
  MoiraContext::SetCell(filesys, locker, "owners", Value(kMissing));
  MoiraContext::SetCell(filesys, locker, "mach_id", Value(kTwice));
  Table* quota = mc_->nfsquota();
  MoiraContext::SetCell(quota, From(quota).Rows()[0], "users_id", Value(kMissing));
  for (int64_t mach_id : {kMissing, kTwice}) {
    const std::string name = mach_id == kMissing ? "ghostpr" : "twinpr";
    mc_->printcap()->Append({Value(name), Value(mach_id), Value("/usr/spool/printer/" + name),
                             Value(name), Value(""), Value(int64_t{0}), Value("root"),
                             Value("test")});
    for (const char* service : {"POP", "NFS"}) {
      std::vector<Value> row(mc_->serverhosts()->schema().columns.size(), Value(int64_t{0}));
      row[0] = Value(service);
      row[1] = Value(mach_id);
      row[7] = Value("");
      row[16] = Value("");
      mc_->serverhosts()->Append(std::move(row));
    }
  }
  mc_->mcmap()->Append({Value(kMissing), Value(MoiraContext::IntCell(
                                            mc_->cluster(), mc_->ClusterByName("bldge40").row,
                                            "clu_id"))});
  size_t video = mc_->ListByName("video-users").row;
  MoiraContext::SetCell(mc_->list(), video, "acl_id", Value(kMissing));
  int64_t video_id = MoiraContext::IntCell(mc_->list(), video, "list_id");
  for (const char* type : {"USER", "LIST", "STRING"}) {
    mc_->members()->Append({Value(video_id), Value(type), Value(kMissing)});
  }

  GeneratorResult hesiod;
  ASSERT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &hesiod));
  const std::string& pobox = *hesiod.common.Find("pobox.db");
  EXPECT_NE(pobox.find("babette.pobox HS UNSPECA \"POP ??? babette\"\n"), std::string::npos);
  EXPECT_NE(pobox.find("hnash.pobox HS UNSPECA \"POP ??? hnash\"\n"), std::string::npos);
  const std::string& printcap = *hesiod.common.Find("printcap.db");
  for (const char* name : {"ghostpr", "twinpr"}) {
    EXPECT_NE(printcap.find(std::string(name) + ".pcap HS UNSPECA \"" + name + ":rp=" + name +
                            ":rm=???:sd=/usr/spool/printer/" + name + "\"\n"),
              std::string::npos)
        << name;
  }
  const std::string& sloc = *hesiod.common.Find("sloc.db");
  const std::string dangling = "POP.sloc HS UNSPECA ???\nNFS.sloc HS UNSPECA ???\n";
  EXPECT_NE(sloc.find(dangling + dangling), std::string::npos);
  EXPECT_NE(hesiod.common.Find("filsys.db")
                ->find("babette.filsys HS UNSPECA \"NFS /u1/babette ??? w /mit/babette\"\n"),
            std::string::npos);
  EXPECT_NE(hesiod.common.Find("cluster.db")->find("???.cluster HS CNAME bldge40.cluster\n"),
            std::string::npos);

  GeneratorResult nfs;
  ASSERT_EQ(MR_SUCCESS, GenerateNfs(*mc_, &nfs));
  EXPECT_EQ(2u, nfs.per_host.size());  // no archive for a serverhost on no one machine
  const Archive& host1 = nfs.ForHost("NFS-1.MIT.EDU");
  EXPECT_EQ("/u1/babette 0 0 HOMEDIR\n", *host1.Find("u1.dirs"));
  EXPECT_EQ("0 300\n", *host1.Find("u1.quotas"));

  GeneratorResult mail;
  ASSERT_EQ(MR_SUCCESS, GenerateMail(*mc_, &mail));
  const std::string& aliases = *mail.common.Find("aliases");
  EXPECT_NE(aliases.find("\nowner-video-users: ???\n"), std::string::npos);
  EXPECT_NE(aliases.find("\nvideo-users: abarba, proj, rubin@media-lab.mit.edu, \n"),
            std::string::npos);
  // No route line for a POP box on a machine that does not resolve.
  EXPECT_EQ(aliases.find("\nbabette:"), std::string::npos);
  EXPECT_EQ(aliases.find("\nhnash:"), std::string::npos);
  EXPECT_NE(aliases.find("\nabarba: abarba@other.edu\n"), std::string::npos);
}

}  // namespace
}  // namespace moira
