// Tests for zephyr, hostaccess, services, printcap, alias, values, table
// statistics, and the built-in special queries (paper sections 7.0.6-7.0.8).
#include "tests/test_env.h"

namespace moira {
namespace {

class MiscQueriesTest : public MoiraEnv {};

TEST_F(MiscQueriesTest, ZephyrClassLifecycle) {
  AddActiveUser("zuser", 100);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"zlist", "1", "0", "0", "0", "0", "-1",
                                             "NONE", "NONE", "d"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_zephyr_class",
                                {"message", "USER", "zuser", "NONE", "NONE", "LIST",
                                 "zlist", "NONE", "NONE"}));
  EXPECT_EQ(MR_EXISTS, RunRoot("add_zephyr_class",
                               {"message", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE",
                                "NONE", "NONE"}));
  EXPECT_EQ(MR_ACE, RunRoot("add_zephyr_class",
                            {"m2", "USER", "ghost", "NONE", "NONE", "NONE", "NONE", "NONE",
                             "NONE"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_zephyr_class", {"mess*"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  ASSERT_EQ(12u, tuples[0].size());
  EXPECT_EQ("USER", tuples[0][1]);
  EXPECT_EQ("zuser", tuples[0][2]);
  EXPECT_EQ("LIST", tuples[0][5]);
  EXPECT_EQ("zlist", tuples[0][6]);
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_zephyr_class",
                                {"message", "message2", "NONE", "NONE", "USER", "zuser",
                                 "NONE", "NONE", "NONE", "NONE"}));
  tuples.clear();
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_zephyr_class", {"message2"}, &tuples));
  EXPECT_EQ("NONE", tuples[0][1]);
  EXPECT_EQ("USER", tuples[0][3]);
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_zephyr_class", {"message2"}));
  EXPECT_EQ(MR_ZEPHYR, RunRoot("delete_zephyr_class", {"message2"}));
}

TEST_F(MiscQueriesTest, HostAccessLifecycle) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"guarded.mit.edu", "VAX"}));
  AddActiveUser("klog", 101);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_server_host_access",
                                {"guarded.mit.edu", "USER", "klog"}));
  EXPECT_EQ(MR_EXISTS, RunRoot("add_server_host_access",
                               {"guarded.mit.edu", "NONE", "NONE"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_server_host_access", {"guarded*"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("GUARDED.MIT.EDU", tuples[0][0]);
  EXPECT_EQ("USER", tuples[0][1]);
  EXPECT_EQ("klog", tuples[0][2]);
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_server_host_access",
                                {"guarded.mit.edu", "NONE", "NONE"}));
  tuples.clear();
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_server_host_access", {"*"}, &tuples));
  EXPECT_EQ("NONE", tuples[0][1]);
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_server_host_access", {"guarded.mit.edu"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("delete_server_host_access", {"guarded.mit.edu"}));
}

TEST_F(MiscQueriesTest, NetworkServices) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_service", {"smtp", "tcp", "25", "mail transfer"}));
  EXPECT_EQ(MR_EXISTS, RunRoot("add_service", {"smtp", "tcp", "25", "dup"}));
  EXPECT_EQ(MR_TYPE, RunRoot("add_service", {"x25", "x25", "1", ""}));
  EXPECT_EQ(MR_INTEGER, RunRoot("add_service", {"qotd", "tcp", "low", ""}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, Run("", "get_service", {"smtp"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("TCP", tuples[0][1]);
  EXPECT_EQ("25", tuples[0][2]);
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_service", {"smtp"}));
  EXPECT_EQ(MR_SERVICE, RunRoot("delete_service", {"smtp"}));
}

TEST_F(MiscQueriesTest, Printcap) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_machine", {"blanket.mit.edu", "VAX"}));
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_printcap",
                                {"linus", "blanket.mit.edu", "/usr/spool/printer/linus",
                                 "linus", "lab printer"}));
  EXPECT_EQ(MR_EXISTS, RunRoot("add_printcap", {"linus", "blanket.mit.edu", "/s", "r",
                                                ""}));
  EXPECT_EQ(MR_MACHINE, RunRoot("add_printcap", {"p2", "ghost.mit.edu", "/s", "r", ""}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, Run("", "get_printcap", {"lin*"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  ASSERT_EQ(7u, tuples[0].size());
  EXPECT_EQ("BLANKET.MIT.EDU", tuples[0][1]);
  EXPECT_EQ("/usr/spool/printer/linus", tuples[0][2]);
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_printcap", {"linus"}));
}

TEST_F(MiscQueriesTest, AliasQueries) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_alias", {"lpr1", "PRINTER", "linus"}));
  // Duplicate translations for a (name, type) pair are allowed.
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_alias", {"lpr1", "PRINTER", "lucy"}));
  EXPECT_EQ(MR_EXISTS, RunRoot("add_alias", {"lpr1", "PRINTER", "linus"}));
  EXPECT_EQ(MR_TYPE, RunRoot("add_alias", {"x", "NOTATYPE", "y"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, Run("", "get_alias", {"lpr1", "PRINTER", "*"}, &tuples));
  EXPECT_EQ(2u, tuples.size());
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_alias", {"lpr1", "PRINTER", "linus"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("delete_alias", {"lpr1", "PRINTER", "linus"}));
}

TEST_F(MiscQueriesTest, ValuesQueries) {
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_value", {"my_var", "17"}));
  EXPECT_EQ(MR_EXISTS, RunRoot("add_value", {"my_var", "18"}));
  EXPECT_EQ(MR_INTEGER, RunRoot("add_value", {"other", "xyz"}));
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, Run("", "get_value", {"my_var"}, &tuples));
  EXPECT_EQ("17", tuples[0][0]);
  ASSERT_EQ(MR_SUCCESS, RunRoot("update_value", {"my_var", "18"}));
  tuples.clear();
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_value", {"my_var"}, &tuples));
  EXPECT_EQ("18", tuples[0][0]);
  EXPECT_EQ(MR_SUCCESS, RunRoot("delete_value", {"my_var"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("get_value", {"my_var"}));
  EXPECT_EQ(MR_NO_MATCH, RunRoot("update_value", {"my_var", "1"}));
}

TEST_F(MiscQueriesTest, TableStats) {
  AddActiveUser("statuser", 102);
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, Run("", "get_all_table_stats", {}, &tuples));
  EXPECT_EQ(21u, tuples.size());
  bool found_users = false;
  for (const Tuple& t : tuples) {
    if (t[0] == "users") {
      found_users = true;
      EXPECT_EQ("0", t[1]);            // retrieves: obsolete, always 0
      EXPECT_NE("0", t[2]);            // appends
    }
  }
  EXPECT_TRUE(found_users);
}

TEST_F(MiscQueriesTest, TableStatisticsReportAccessPaths) {
  AddActiveUser("pathuser", 103);
  // Privileged only: world_ok is false and anonymous principals hold no
  // capability ACLs.
  EXPECT_EQ(MR_PERM, Run("", "get_table_statistics", {}));
  // An indexed lookup should be answered by the login index, not a scan.
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_user_by_login", {"pathuser"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  tuples.clear();
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_table_statistics", {}, &tuples));
  ASSERT_FALSE(tuples.empty());
  bool found_users = false;
  for (const Tuple& t : tuples) {
    // table, appends, updates, deletes, index_hits, prefix_scans,
    // range_scans, full_scans, rows_examined, rows_emitted, join_reorders,
    // set_probes.
    ASSERT_EQ(12u, t.size());
    if (t[0] == "users") {
      found_users = true;
      EXPECT_NE("0", t[1]);  // appends from AddActiveUser
      EXPECT_NE("0", t[4]);  // index_hits from get_user_by_login
      EXPECT_NE("0", t[9]);  // rows_emitted
    }
  }
  EXPECT_TRUE(found_users);
}

TEST_F(MiscQueriesTest, HelpAndListQueries) {
  std::vector<Tuple> tuples;
  ASSERT_EQ(MR_SUCCESS, Run("", "_help", {"get_user_by_login"}, &tuples));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_NE(tuples[0][0].find("gubl"), std::string::npos);
  EXPECT_NE(tuples[0][0].find("retrieve"), std::string::npos);
  EXPECT_EQ(MR_NO_HANDLE, Run("", "_help", {"nope"}));
  tuples.clear();
  ASSERT_EQ(MR_SUCCESS, Run("", "_list_queries", {}, &tuples));
  EXPECT_GE(tuples.size(), 100u);
  EXPECT_EQ(2u, tuples[0].size());
}

TEST_F(MiscQueriesTest, AccessCheckMirrorsExecution) {
  const QueryRegistry& registry = QueryRegistry::Instance();
  AddActiveUser("checker", 103);
  // World query: anyone.
  EXPECT_EQ(MR_SUCCESS, registry.CheckAccess(*mc_, "", "get_machine", {"*"}));
  // Privileged query: denied for a plain user, allowed for root.
  EXPECT_EQ(MR_PERM, registry.CheckAccess(*mc_, "checker", "add_machine", {"m", "VAX"}));
  EXPECT_EQ(MR_SUCCESS, registry.CheckAccess(*mc_, "root", "add_machine", {"m", "VAX"}));
  // Self-service path allowed via access check.
  EXPECT_EQ(MR_SUCCESS, registry.CheckAccess(*mc_, "checker", "update_user_shell",
                                             {"checker", "/bin/sh"}));
  EXPECT_EQ(MR_PERM, registry.CheckAccess(*mc_, "checker", "update_user_shell",
                                          {"other", "/bin/sh"}));
  // Arg count and unknown query surface the same errors as execution.
  EXPECT_EQ(MR_ARGS, registry.CheckAccess(*mc_, "root", "add_machine", {"m"}));
  EXPECT_EQ(MR_NO_HANDLE, registry.CheckAccess(*mc_, "root", "zzz", {}));
  // The trigger_dcm pseudo-query is access-checked like any other.
  EXPECT_EQ(MR_PERM, registry.CheckAccess(*mc_, "checker", "trigger_dcm", {}));
  EXPECT_EQ(MR_SUCCESS, registry.CheckAccess(*mc_, "root", "trigger_dcm", {}));
}

}  // namespace
}  // namespace moira
