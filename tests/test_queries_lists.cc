// Tests for the list queries (paper section 7.0.3).
#include "src/core/acl.h"

#include <algorithm>

#include "src/sim/population.h"
#include "tests/test_env.h"

namespace moira {
namespace {

class ListQueriesTest : public MoiraEnv {
 protected:
  void MakeList(const std::string& name, const char* public_flag = "0",
                const char* hidden = "0", const char* group = "0",
                const std::string& ace_type = "NONE", const std::string& ace_name = "NONE") {
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {name, "1", public_flag, hidden, "1", group,
                                               "-1", ace_type, ace_name, "desc " + name}));
  }
};

TEST_F(ListQueriesTest, AddAndGetInfo) {
  AddActiveUser("owner", 100);
  MakeList("video-users", "1", "0", "0", "USER", "owner");
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_list_info", {"video-users"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  const Tuple& t = tuples[0];
  ASSERT_EQ(13u, t.size());
  EXPECT_EQ("video-users", t[0]);
  EXPECT_EQ("1", t[1]);            // active
  EXPECT_EQ("1", t[2]);            // public
  EXPECT_EQ("0", t[3]);            // hidden
  EXPECT_EQ("1", t[4]);            // maillist
  EXPECT_EQ("0", t[5]);            // group
  EXPECT_EQ("USER", t[7]);
  EXPECT_EQ("owner", t[8]);
  EXPECT_EQ("desc video-users", t[9]);
  EXPECT_EQ(MR_EXISTS, RunRoot("add_list", {"video-users", "1", "0", "0", "0", "0", "-1",
                                            "NONE", "NONE", ""}));
}

TEST_F(ListQueriesTest, GroupGidAllocation) {
  MakeList("grp1", "0", "0", "1");
  MakeList("grp2", "0", "0", "1");
  std::vector<Tuple> a;
  std::vector<Tuple> b;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_list_info", {"grp1"}, &a));
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_list_info", {"grp2"}, &b));
  EXPECT_NE(a[0][6], b[0][6]);  // distinct gids
  EXPECT_NE("-1", a[0][6]);
}

TEST_F(ListQueriesTest, SelfReferentialAce) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"selfmgd", "1", "0", "0", "1", "0", "-1",
                                             "LIST", "selfmgd", "self-managed"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_list_info", {"selfmgd"}, &tuples));
  EXPECT_EQ("LIST", tuples[0][7]);
  EXPECT_EQ("selfmgd", tuples[0][8]);
  // A member of the list can now administer it.
  AddActiveUser("selfadm", 101);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"selfmgd", "USER", "selfadm"}));
  EXPECT_EQ(MR_SUCCESS, Run("selfadm", "add_member_to_list",
                            {"selfmgd", "STRING", "guest@elsewhere.edu"}));
}

TEST_F(ListQueriesTest, MembershipLifecycle) {
  AddActiveUser("m1", 102);
  AddActiveUser("m2", 103);
  MakeList("parent");
  MakeList("child");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"parent", "USER", "m1"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"parent", "LIST", "child"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"child", "USER", "m2"}));
  ASSERT_EQ(MR_SUCCESS,
            RunRoot("add_member_to_list", {"parent", "STRING", "x@other.edu"}));
  EXPECT_EQ(MR_EXISTS, RunRoot("add_member_to_list", {"parent", "USER", "m1"}));
  EXPECT_EQ(MR_TYPE, RunRoot("add_member_to_list", {"parent", "MACHINE", "m1"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("add_member_to_list", {"parent", "USER", "ghost"}));
  std::vector<Tuple> members;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_members_of_list", {"parent"}, &members));
  EXPECT_EQ(3u, members.size());
  std::vector<Tuple> count;
  ASSERT_EQ(MR_SUCCESS, RunRoot("count_members_of_list", {"parent"}, &count));
  EXPECT_EQ("3", count[0][0]);
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_member_from_list", {"parent", "USER", "m1"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("delete_member_from_list", {"parent", "USER", "m1"}));
  count.clear();
  ASSERT_EQ(MR_SUCCESS, RunRoot("count_members_of_list", {"parent"}, &count));
  EXPECT_EQ("2", count[0][0]);
}

TEST_F(ListQueriesTest, PublicListSelfAddAndDelete) {
  AddActiveUser("joiner", 104);
  MakeList("public-l", "1");
  MakeList("private-l", "0");
  EXPECT_EQ(MR_SUCCESS, Run("joiner", "add_member_to_list", {"public-l", "USER", "joiner"}));
  EXPECT_EQ(MR_PERM, Run("joiner", "add_member_to_list", {"private-l", "USER", "joiner"}));
  // Only yourself, even on a public list.
  AddActiveUser("bystander", 105);
  EXPECT_EQ(MR_PERM,
            Run("joiner", "add_member_to_list", {"public-l", "USER", "bystander"}));
  EXPECT_EQ(MR_SUCCESS,
            Run("joiner", "delete_member_from_list", {"public-l", "USER", "joiner"}));
}

TEST_F(ListQueriesTest, HiddenListVisibility) {
  AddActiveUser("keeper", 106);
  AddActiveUser("outsider", 107);
  MakeList("secret", "0", "1", "0", "USER", "keeper");
  ASSERT_EQ(MR_SUCCESS, Run("keeper", "add_member_to_list", {"secret", "USER", "keeper"}));
  // The ACE holder sees it; others do not.
  std::vector<Tuple> tuples;
  EXPECT_EQ(MR_SUCCESS, Run("keeper", "get_list_info", {"secret"}, &tuples));
  EXPECT_EQ(MR_NO_MATCH, Run("outsider", "get_list_info", {"secret"}));
  EXPECT_EQ(MR_PERM, Run("outsider", "get_members_of_list", {"secret"}));
  EXPECT_EQ(MR_SUCCESS, Run("keeper", "get_members_of_list", {"secret"}, nullptr));
  // expand_list_names hides it from outsiders too.
  std::vector<Tuple> names;
  EXPECT_EQ(MR_NO_MATCH, Run("outsider", "expand_list_names", {"secr*"}, &names));
  names.clear();
  EXPECT_EQ(MR_SUCCESS, RunRoot("expand_list_names", {"secr*"}, &names));
  EXPECT_EQ(1u, names.size());
}

// Members of dbadmin hold a capability on every query, world queries
// included, so they see hidden lists; a non-member is still refused.
TEST_F(ListQueriesTest, DbadminMemberSeesHiddenList) {
  AddActiveUser("keeper", 106);
  AddActiveUser("outsider", 107);
  AddActiveUser("opsadmin", 110);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"dbadmin", "USER", "opsadmin"}));
  QueryRegistry::Instance().SeedCapacls(*mc_, "dbadmin");
  MakeList("secret", "0", "1", "0", "USER", "keeper");
  ASSERT_EQ(MR_SUCCESS, Run("keeper", "add_member_to_list", {"secret", "USER", "keeper"}));
  std::vector<Tuple> info;
  ASSERT_EQ(MR_SUCCESS, Run("opsadmin", "get_list_info", {"secret"}, &info));
  ASSERT_EQ(1u, info.size());
  EXPECT_EQ("secret", info[0][0]);
  EXPECT_EQ("1", info[0][3]);  // hidden
  std::vector<Tuple> members;
  ASSERT_EQ(MR_SUCCESS, Run("opsadmin", "get_members_of_list", {"secret"}, &members));
  ASSERT_EQ(1u, members.size());
  EXPECT_EQ((Tuple{"USER", "keeper"}), members[0]);
  EXPECT_EQ(MR_NO_MATCH, Run("outsider", "get_list_info", {"secret"}));
  EXPECT_EQ(MR_PERM, Run("outsider", "get_members_of_list", {"secret"}));
}

TEST_F(ListQueriesTest, WildcardGetListInfoRequiresPrivilege) {
  MakeList("wild-a");
  MakeList("wild-b");
  AddActiveUser("pleb", 108);
  EXPECT_EQ(MR_PERM, Run("pleb", "get_list_info", {"wild-*"}));
  std::vector<Tuple> tuples;
  EXPECT_EQ(MR_SUCCESS, RunRoot("get_list_info", {"wild-*"}, &tuples));
  EXPECT_EQ(2u, tuples.size());
  // Exact-name lookup works for anyone on a visible list.
  EXPECT_EQ(MR_SUCCESS, Run("pleb", "get_list_info", {"wild-a"}));
}

TEST_F(ListQueriesTest, UpdateListByAceHolder) {
  AddActiveUser("mgr", 109);
  MakeList("managed", "0", "0", "0", "USER", "mgr");
  EXPECT_EQ(MR_SUCCESS,
            Run("mgr", "update_list", {"managed", "managed", "1", "1", "0", "1", "0", "-1",
                                       "USER", "mgr", "updated desc"}));
  AddActiveUser("rando", 110);
  EXPECT_EQ(MR_PERM,
            Run("rando", "update_list", {"managed", "managed", "1", "1", "0", "1", "0",
                                         "-1", "USER", "mgr", "hijack"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_list_info", {"managed"}, &tuples));
  EXPECT_EQ("updated desc", tuples[0][9]);
}

TEST_F(ListQueriesTest, RenameKeepsReferences) {
  AddActiveUser("u", 111);
  MakeList("oldname");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"oldname", "USER", "u"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_list", {"oldname", "newname", "1", "0", "0", "1",
                                                "0", "-1", "NONE", "NONE", "d"}));
  std::vector<Tuple> members;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_members_of_list", {"newname"}, &members));
  EXPECT_EQ(1u, members.size());
}

TEST_F(ListQueriesTest, DeleteListConstraints) {
  AddActiveUser("u2", 112);
  MakeList("emptyme");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"emptyme", "USER", "u2"}));
  EXPECT_EQ(MR_IN_USE, RunRoot("delete_list", {"emptyme"}));  // not empty
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_member_from_list", {"emptyme", "USER", "u2"}));
  // Used as a member of another list.
  MakeList("holder");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"holder", "LIST", "emptyme"}));
  EXPECT_EQ(MR_IN_USE, RunRoot("delete_list", {"emptyme"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_member_from_list", {"holder", "LIST", "emptyme"}));
  // Used as an ACE.
  MakeList("guarded", "0", "0", "0", "LIST", "emptyme");
  EXPECT_EQ(MR_IN_USE, RunRoot("delete_list", {"emptyme"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_list", {"guarded", "guarded", "1", "0", "0", "1",
                                                "0", "-1", "NONE", "NONE", "d"}));
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_list", {"emptyme"}));
  EXPECT_EQ(MR_LIST, RunRoot("delete_list", {"emptyme"}));
}

TEST_F(ListQueriesTest, QualifiedGetLists) {
  MakeList("qa", "1", "0", "0");
  MakeList("qb", "0", "0", "1");
  std::vector<Tuple> tuples;
  // active TRUE, public TRUE.
  ASSERT_EQ(MR_SUCCESS, RunRoot("qualified_get_lists",
                                {"TRUE", "TRUE", "DONTCARE", "DONTCARE", "DONTCARE"},
                                &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("qa", tuples[0][0]);
  tuples.clear();
  ASSERT_EQ(MR_SUCCESS, RunRoot("qualified_get_lists",
                                {"TRUE", "DONTCARE", "DONTCARE", "DONTCARE", "TRUE"},
                                &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("qb", tuples[0][0]);
  EXPECT_EQ(MR_TYPE, RunRoot("qualified_get_lists", {"YES", "TRUE", "TRUE", "TRUE",
                                                     "TRUE"}));
}

TEST_F(ListQueriesTest, GetListsOfMemberDirectAndRecursive) {
  AddActiveUser("deep", 113);
  MakeList("inner");
  MakeList("outer");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"inner", "USER", "deep"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"outer", "LIST", "inner"}));
  std::vector<Tuple> direct;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_lists_of_member", {"USER", "deep"}, &direct));
  EXPECT_EQ(1u, direct.size());
  std::vector<Tuple> recursive;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_lists_of_member", {"RUSER", "deep"}, &recursive));
  EXPECT_EQ(2u, recursive.size());
  // A user may ask about themselves.
  EXPECT_EQ(MR_SUCCESS, Run("deep", "get_lists_of_member", {"RUSER", "deep"}));
  AddActiveUser("nosy", 114);
  EXPECT_EQ(MR_PERM, Run("nosy", "get_lists_of_member", {"USER", "deep"}));
  EXPECT_EQ(MR_TYPE, RunRoot("get_lists_of_member", {"MACHINE", "deep"}));
}

TEST_F(ListQueriesTest, GetAceUse) {
  AddActiveUser("acer", 115);
  MakeList("aced", "0", "0", "0", "USER", "acer");
  MakeList("umbrella");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"umbrella", "USER", "acer"}));
  MakeList("via-list", "0", "0", "0", "LIST", "umbrella");
  std::vector<Tuple> direct;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_ace_use", {"USER", "acer"}, &direct));
  ASSERT_EQ(1u, direct.size());
  EXPECT_EQ("LIST", direct[0][0]);
  EXPECT_EQ("aced", direct[0][1]);
  // RUSER finds objects reachable through list membership as well.
  std::vector<Tuple> recursive;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_ace_use", {"RUSER", "acer"}, &recursive));
  EXPECT_EQ(2u, recursive.size());
  EXPECT_EQ(MR_TYPE, RunRoot("get_ace_use", {"MACHINE", "acer"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("get_ace_use", {"USER", "ghost"}));
}

TEST_F(ListQueriesTest, RecursiveMembershipCycleIsSafe) {
  MakeList("cyc-a");
  MakeList("cyc-b");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"cyc-a", "LIST", "cyc-b"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"cyc-b", "LIST", "cyc-a"}));
  AddActiveUser("cycuser", 116);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"cyc-a", "USER", "cycuser"}));
  // Recursive expansion terminates and finds both lists.
  std::vector<Tuple> lists;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_lists_of_member", {"RUSER", "cycuser"}, &lists));
  EXPECT_EQ(2u, lists.size());
  // Recursive ACL evaluation terminates too.
  int64_t users_id = PrincipalUserId(*mc_, "cycuser");
  RowRef cyc_a = mc_->ListByName("cyc-a");
  EXPECT_TRUE(IsUserInList(*mc_, users_id,
                           MoiraContext::IntCell(mc_->list(), cyc_a.row, "list_id")));
}

TEST_F(ListQueriesTest, ClosureCacheServesRepeatedRecursiveQueries) {
  AddActiveUser("deep", 113);
  MakeList("inner");
  MakeList("outer");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"inner", "USER", "deep"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"outer", "LIST", "inner"}));

  std::vector<Tuple> first;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_lists_of_member", {"RUSER", "deep"}, &first));
  EXPECT_EQ(2u, first.size());
  const int64_t hits_after_first = mc_->closure_stats().hits;
  const int64_t misses_after_first = mc_->closure_stats().misses;
  EXPECT_GT(misses_after_first, 0);

  // Re-running against an unchanged members table is answered from the
  // memoized closure: hits rise, misses do not.
  for (int i = 0; i < 3; ++i) {
    std::vector<Tuple> again;
    ASSERT_EQ(MR_SUCCESS, RunRoot("get_lists_of_member", {"RUSER", "deep"}, &again));
    EXPECT_EQ(first, again);
  }
  EXPECT_EQ(misses_after_first, mc_->closure_stats().misses);
  EXPECT_EQ(hits_after_first + 3, mc_->closure_stats().hits);
}

TEST_F(ListQueriesTest, ClosureCacheInvalidatedByMembershipWrite) {
  AddActiveUser("deep", 113);
  MakeList("inner");
  MakeList("outer");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"inner", "USER", "deep"}));

  std::vector<Tuple> before;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_lists_of_member", {"RUSER", "deep"}, &before));
  EXPECT_EQ(1u, before.size());
  const int64_t invalidations_before = mc_->closure_stats().invalidations;

  // A members-table write makes every memoized closure stale; the next
  // recursive query must rebuild and see the new edge.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"outer", "LIST", "inner"}));
  std::vector<Tuple> after;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_lists_of_member", {"RUSER", "deep"}, &after));
  EXPECT_EQ(2u, after.size());
  EXPECT_EQ(invalidations_before + 1, mc_->closure_stats().invalidations);

  // Removal invalidates too.
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_member_from_list", {"outer", "LIST", "inner"}));
  std::vector<Tuple> removed;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_lists_of_member", {"RUSER", "deep"}, &removed));
  EXPECT_EQ(before, removed);
}

TEST_F(ListQueriesTest, ContainingListClosureHandlesCyclesAndIsSorted) {
  MakeList("cyc-a");
  MakeList("cyc-b");
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"cyc-a", "LIST", "cyc-b"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"cyc-b", "LIST", "cyc-a"}));
  AddActiveUser("cycuser", 116);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_member_to_list", {"cyc-a", "USER", "cycuser"}));

  const int64_t users_id = PrincipalUserId(*mc_, "cycuser");
  const std::vector<int64_t>& closure = mc_->ContainingListClosure("USER", users_id);
  ASSERT_EQ(2u, closure.size());
  EXPECT_TRUE(std::is_sorted(closure.begin(), closure.end()));
  RowRef cyc_a = mc_->ListByName("cyc-a");
  RowRef cyc_b = mc_->ListByName("cyc-b");
  const int64_t id_a = MoiraContext::IntCell(mc_->list(), cyc_a.row, "list_id");
  const int64_t id_b = MoiraContext::IntCell(mc_->list(), cyc_b.row, "list_id");
  EXPECT_TRUE(std::binary_search(closure.begin(), closure.end(), id_a));
  EXPECT_TRUE(std::binary_search(closure.begin(), closure.end(), id_b));

  // IsUserInList is exact over the cycle (no depth cap to fall off).
  EXPECT_TRUE(IsUserInList(*mc_, users_id, id_a));
  EXPECT_TRUE(IsUserInList(*mc_, users_id, id_b));
  EXPECT_FALSE(IsUserInList(*mc_, users_id, id_a + 1000));
}

// AllocateId("gid", ...) tests each candidate gid with an equality probe on
// list.gid; the index answers it, so neither a registration nor a group
// list's creation scans the list relation.
class GidAllocationTest : public MoiraEnv {
 protected:
  void SetUp() override {
    SiteBuilder builder(mc_.get(), realm_.get());
    builder.Build(TestSiteSpec());
    ASSERT_GE(mc_->list()->LiveCount(), 50u);
  }

  int64_t ListRowsExamined() const { return mc_->list()->stats().rows_examined; }
};

TEST_F(GidAllocationTest, RegisterUserExaminesAHandfulOfLists) {
  Table* users = mc_->users();
  const int status = users->ColumnIndex("status");
  const int uid = users->ColumnIndex("uid");
  int64_t unregistered_uid = -1;
  users->Scan([&](size_t, const Row& row) {
    if (row[status].AsInt() == kUserNotRegistered) {
      unregistered_uid = row[uid].AsInt();
      return false;
    }
    return true;
  });
  ASSERT_NE(-1, unregistered_uid);
  const int64_t before = ListRowsExamined();
  ASSERT_EQ(MR_SUCCESS, RunRoot("register_user", {std::to_string(unregistered_uid), "gidprobe",
                                                  std::to_string(kFsStudent)}));
  EXPECT_LE(ListRowsExamined() - before, 4);
  EXPECT_EQ(MR_SUCCESS, mc_->ListByName("gidprobe").code);
}

TEST_F(GidAllocationTest, GroupListCreationExaminesAHandfulOfLists) {
  const int64_t before = ListRowsExamined();
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"gidgroup", "1", "0", "0", "0", "1", "-1", "NONE",
                                             "NONE", "a group list"}));
  EXPECT_LE(ListRowsExamined() - before, 4);
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_list_info", {"gidgroup"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_NE("-1", tuples[0][6]);  // a gid was allocated
}

}  // namespace
}  // namespace moira
