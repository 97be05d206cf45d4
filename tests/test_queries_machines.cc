// Tests for the machine and cluster queries (paper section 7.0.2).
#include "src/core/acl.h"
#include "tests/test_env.h"

namespace moira {
namespace {

class MachineQueriesTest : public MoiraEnv {};

TEST_F(MachineQueriesTest, AddUppercasesAndValidatesType) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"kermit.mit.edu", "VAX"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_machine", {"KERMIT.MIT.EDU"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("KERMIT.MIT.EDU", tuples[0][0]);
  EXPECT_EQ("VAX", tuples[0][1]);
  EXPECT_EQ(MR_TYPE, RunRoot("add_machine", {"other.mit.edu", "SUN"}));
  EXPECT_EQ(MR_NOT_UNIQUE, RunRoot("add_machine", {"KERMIT.mit.edu", "RT"}));
}

TEST_F(MachineQueriesTest, GetMachineIsCaseInsensitiveWithWildcards) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"a1.mit.edu", "VAX"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"a2.mit.edu", "RT"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"b1.mit.edu", "RT"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_machine", {"a*"}, &tuples));
  EXPECT_EQ(2u, tuples.size());
  EXPECT_EQ(MR_NO_MATCH, RunRoot("get_machine", {"z*"}));
  // Anyone may look up machines (world query).
  EXPECT_EQ(MR_SUCCESS, Run("nobody", "get_machine", {"B1.MIT.EDU"}));
}

TEST_F(MachineQueriesTest, UpdateMachine) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"old.mit.edu", "VAX"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"taken.mit.edu", "VAX"}));
  EXPECT_EQ(MR_NOT_UNIQUE,
            RunRoot("update_machine", {"old.mit.edu", "taken.mit.edu", "VAX"}));
  EXPECT_EQ(MR_SUCCESS, RunRoot("update_machine", {"old.mit.edu", "new.mit.edu", "RT"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_machine", {"NEW.MIT.EDU"}, &tuples));
  EXPECT_EQ("RT", tuples[0][1]);
  EXPECT_EQ(MR_MACHINE, RunRoot("update_machine", {"old.mit.edu", "x.mit.edu", "RT"}));
}

TEST_F(MachineQueriesTest, DeleteMachineBlockedWhileReferenced) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"spool.mit.edu", "VAX"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_printcap", {"lp1", "spool.mit.edu", "/spool/lp1",
                                                 "lp1", ""}));
  EXPECT_EQ(MR_IN_USE, RunRoot("delete_machine", {"spool.mit.edu"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_printcap", {"lp1"}));
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_machine", {"spool.mit.edu"}));
  EXPECT_EQ(MR_MACHINE, RunRoot("delete_machine", {"spool.mit.edu"}));
}

TEST_F(MachineQueriesTest, DeleteMachineBlockedByPobox) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"po.mit.edu", "VAX"}));
  AddActiveUser("boxuser", 3100);
  ASSERT_EQ(MR_SUCCESS, RunRoot("set_pobox", {"boxuser", "POP", "po.mit.edu"}));
  EXPECT_EQ(MR_IN_USE, RunRoot("delete_machine", {"po.mit.edu"}));
}

TEST_F(MachineQueriesTest, ClusterLifecycle) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"bldge40", "E40 cluster", "E40"}));
  EXPECT_EQ(MR_NOT_UNIQUE, RunRoot("add_cluster", {"bldge40", "dup", "x"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_cluster", {"bldg*"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("E40 cluster", tuples[0][1]);
  ASSERT_EQ(MR_SUCCESS,
            RunRoot("update_cluster", {"bldge40", "bldge40-vs", "still E40", "E40"}));
  EXPECT_EQ(MR_CLUSTER, RunRoot("update_cluster", {"bldge40", "x", "d", "l"}));
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_cluster", {"bldge40-vs"}));
  EXPECT_EQ(MR_CLUSTER, RunRoot("delete_cluster", {"bldge40-vs"}));
}

TEST_F(MachineQueriesTest, ClusterNamesAreCaseSensitive) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"Alpha", "d", "l"}));
  EXPECT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"alpha", "d", "l"}));
}

TEST_F(MachineQueriesTest, MachineClusterMap) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"toto.mit.edu", "RT"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"oz", "d", "l"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine_to_cluster", {"toto.mit.edu", "oz"}));
  EXPECT_EQ(MR_EXISTS, RunRoot("add_machine_to_cluster", {"toto.mit.edu", "oz"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_machine_to_cluster_map", {"*", "*"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("TOTO.MIT.EDU", tuples[0][0]);
  EXPECT_EQ("oz", tuples[0][1]);
  // A cluster with machines cannot be deleted.
  EXPECT_EQ(MR_IN_USE, RunRoot("delete_cluster", {"oz"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_machine_from_cluster", {"toto.mit.edu", "oz"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("delete_machine_from_cluster", {"toto.mit.edu", "oz"}));
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_cluster", {"oz"}));
}

TEST_F(MachineQueriesTest, ClusterMapOfOneClusterRunsTailFirst) {
  // An administrator's errand: every machine of one named cluster.  The
  // cluster name is a unique-key probe while "*" matches every machine, so
  // the join runs from the cluster, probes mcmap and machine in reverse, and
  // sorts the answer back to machine storage order.
  for (const char* name : {"m1.mit.edu", "m2.mit.edu", "m3.mit.edu"}) {
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {name, "RT"}));
  }
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"c1", "d", "l"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"c2", "d", "l"}));
  // Mapped out of machine order, so the map's order is not the answer's.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine_to_cluster", {"m3.mit.edu", "c1"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine_to_cluster", {"m2.mit.edu", "c2"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine_to_cluster", {"m1.mit.edu", "c1"}));
  const int64_t reorders_before = mc_->machine()->stats().join_reorders;
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_machine_to_cluster_map", {"*", "c1"}, &tuples));
  EXPECT_EQ(reorders_before + 1, mc_->machine()->stats().join_reorders);
  EXPECT_EQ((std::vector<Tuple>{{"M1.MIT.EDU", "c1"}, {"M3.MIT.EDU", "c1"}}), tuples);
}

TEST_F(MachineQueriesTest, DeleteMachineDropsClusterAssignment) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"gone.mit.edu", "RT"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"c1", "d", "l"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine_to_cluster", {"gone.mit.edu", "c1"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_machine", {"gone.mit.edu"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("get_machine_to_cluster_map", {"*", "c1"}));
}

TEST_F(MachineQueriesTest, ClusterData) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster", {"bldgw20", "d", "l"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster_data", {"bldgw20", "zephyr", "z1.mit.edu"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_cluster_data", {"bldgw20", "usrlib", "w20-usrlib"}));
  EXPECT_EQ(MR_TYPE, RunRoot("add_cluster_data", {"bldgw20", "badlabel", "x"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_cluster_data", {"bldgw20", "*"}, &tuples));
  EXPECT_EQ(2u, tuples.size());
  tuples.clear();
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_cluster_data", {"*", "zephyr"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("z1.mit.edu", tuples[0][2]);
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_cluster_data", {"bldgw20", "zephyr", "z1.mit.edu"}));
  EXPECT_EQ(MR_NO_MATCH,
            RunRoot("delete_cluster_data", {"bldgw20", "zephyr", "z1.mit.edu"}));
  // Deleting the cluster deletes its remaining service data.
  ASSERT_EQ(MR_SUCCESS, RunRoot("delete_cluster", {"bldgw20"}));
  EXPECT_EQ(0u, mc_->svc()->LiveCount());
}

TEST_F(MachineQueriesTest, NonPrivilegedCannotMutate) {
  AddActiveUser("pleb", 3200);
  EXPECT_EQ(MR_PERM, Run("pleb", "add_machine", {"h.mit.edu", "VAX"}));
  EXPECT_EQ(MR_PERM, Run("pleb", "add_cluster", {"c", "d", "l"}));
  EXPECT_EQ(MR_PERM, Run("", "add_machine", {"h.mit.edu", "VAX"}));
}

TEST_F(MachineQueriesTest, DbadminMemberGainsAccess) {
  AddActiveUser("admin2", 3300);
  RowRef dbadmin = mc_->ListByName("dbadmin");
  ASSERT_EQ(MR_SUCCESS, dbadmin.code);
  mc_->members()->Append({Value(MoiraContext::IntCell(mc_->list(), dbadmin.row, "list_id")),
                          Value("USER"), Value(int64_t{
                              PrincipalUserId(*mc_, "admin2")})});
  QueryRegistry::Instance().SeedCapacls(*mc_, "dbadmin");
  EXPECT_EQ(MR_SUCCESS, Run("admin2", "add_machine", {"h.mit.edu", "VAX"}));
}

}  // namespace
}  // namespace moira
