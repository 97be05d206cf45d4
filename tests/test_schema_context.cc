// Tests for the Moira schema (paper section 6) and the context helpers.
#include "src/db/exec.h"
#include "tests/test_env.h"

namespace moira {
namespace {

class SchemaTest : public MoiraEnv {};

TEST_F(SchemaTest, AllTwentyRelationsExist) {
  const char* tables[] = {
      kUsersTable,    kMachineTable,  kClusterTable,    kMcmapTable,   kSvcTable,
      kListTable,     kMembersTable,  kServersTable,    kServerHostsTable,
      kFilesysTable,  kNfsPhysTable,  kNfsQuotaTable,   kZephyrTable,
      kHostAccessTable, kStringsTable, kServicesTable,  kPrintcapTable,
      kCapAclsTable,  kAliasTable,    kValuesTable,
  };
  EXPECT_EQ(20u, std::size(tables));
  for (const char* name : tables) {
    EXPECT_NE(nullptr, db_->GetTable(name)) << name;
  }
}

TEST_F(SchemaTest, SeededTypeAliases) {
  EXPECT_TRUE(mc_->IsLegalType("class", "G"));
  EXPECT_TRUE(mc_->IsLegalType("class", "STAFF"));
  EXPECT_FALSE(mc_->IsLegalType("class", "NOPE"));
  EXPECT_TRUE(mc_->IsLegalType("mach_type", "VAX"));
  EXPECT_TRUE(mc_->IsLegalType("mach_type", "RT"));
  EXPECT_TRUE(mc_->IsLegalType("pobox", "POP"));
  EXPECT_TRUE(mc_->IsLegalType("pobox", "SMTP"));
  EXPECT_TRUE(mc_->IsLegalType("pobox", "NONE"));
  EXPECT_TRUE(mc_->IsLegalType("filesys", "NFS"));
  EXPECT_TRUE(mc_->IsLegalType("filesys", "RVD"));
  EXPECT_TRUE(mc_->IsLegalType("lockertype", "HOMEDIR"));
  EXPECT_TRUE(mc_->IsLegalType("service-type", "UNIQUE"));
  EXPECT_TRUE(mc_->IsLegalType("service-type", "REPLICAT"));
  EXPECT_TRUE(mc_->IsLegalType("protocol", "TCP"));
}

TEST_F(SchemaTest, SeededValues) {
  int64_t v = 0;
  EXPECT_EQ(MR_SUCCESS, mc_->GetValue("dcm_enable", &v));
  EXPECT_EQ(1, v);
  EXPECT_EQ(MR_SUCCESS, mc_->GetValue("def_quota", &v));
  EXPECT_EQ(300, v);
  EXPECT_EQ(MR_SUCCESS, mc_->GetValue("users_id", &v));
  EXPECT_EQ(MR_NO_MATCH, mc_->GetValue("nonexistent", &v));
}

TEST_F(SchemaTest, DbadminBootstrapListExists) {
  RowRef dbadmin = mc_->ListByName("dbadmin");
  EXPECT_EQ(MR_SUCCESS, dbadmin.code);
}

// The one rule gen_nfs.cc names partition files by and report_quota_usage
// resolves a fileserver's report with.
TEST_F(SchemaTest, PartitionStemFlattensPartitionDirectories) {
  EXPECT_EQ("u1", PartitionStem("/u1"));
  EXPECT_EQ("a_b", PartitionStem("/a/b"));
  EXPECT_EQ("root", PartitionStem("/"));
}

class ContextTest : public MoiraEnv {};

TEST_F(ContextTest, ExactOneSemantics) {
  Table* machine = mc_->machine();
  machine->Append({"HOST-A.MIT.EDU", 1, "VAX", 0, "", ""});
  machine->Append({"HOST-B.MIT.EDU", 2, "VAX", 0, "", ""});
  machine->Append({"HOST-B.MIT.EDU", 3, "VAX", 0, "", ""});
  EXPECT_EQ(MR_SUCCESS, mc_->MachineByName("host-a.mit.edu").code);
  EXPECT_EQ(MR_MACHINE, mc_->MachineByName("host-c.mit.edu").code);
  EXPECT_EQ(MR_NOT_UNIQUE, mc_->MachineByName("HOST-B.MIT.EDU").code);
}

TEST_F(ContextTest, AllocateIdAdvancesAndSkipsCollisions) {
  int64_t first = 0;
  ASSERT_EQ(MR_SUCCESS, mc_->AllocateId("users_id", mc_->users(), "users_id", &first));
  // Occupy the next id manually; allocation must skip it.
  std::vector<Value> row(mc_->users()->schema().columns.size(), Value(""));
  row[mc_->users()->ColumnIndex("users_id")] = Value(first + 1);
  row[mc_->users()->ColumnIndex("uid")] = Value(int64_t{-100});
  mc_->users()->Append(std::move(row));
  int64_t second = 0;
  ASSERT_EQ(MR_SUCCESS, mc_->AllocateId("users_id", mc_->users(), "users_id", &second));
  EXPECT_EQ(first + 2, second);
}

TEST_F(ContextTest, StringInterningIsIdempotent) {
  int64_t a = mc_->InternString("jflubber@other.edu");
  int64_t b = mc_->InternString("jflubber@other.edu");
  int64_t c = mc_->InternString("different@other.edu");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ("jflubber@other.edu", mc_->StringById(a));
  EXPECT_EQ(a, mc_->LookupString("jflubber@other.edu").value());
  EXPECT_FALSE(mc_->LookupString("never-seen").has_value());
  EXPECT_EQ("", mc_->StringById(99999));
}

TEST_F(ContextTest, ResolveAceAllTypes) {
  AddActiveUser("aceuser", 700);
  ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"acelist", "1", "0", "0", "0", "0", "-1",
                                             "NONE", "NONE", "d"}));
  int64_t id = -1;
  EXPECT_EQ(MR_SUCCESS, mc_->ResolveAce("NONE", "whatever", &id));
  EXPECT_EQ(0, id);
  EXPECT_EQ(MR_SUCCESS, mc_->ResolveAce("USER", "aceuser", &id));
  EXPECT_GT(id, 0);
  EXPECT_EQ("aceuser", mc_->AceName("USER", id));
  EXPECT_EQ(MR_SUCCESS, mc_->ResolveAce("LIST", "acelist", &id));
  EXPECT_EQ("acelist", mc_->AceName("LIST", id));
  EXPECT_EQ(MR_ACE, mc_->ResolveAce("USER", "ghost", &id));
  EXPECT_EQ(MR_ACE, mc_->ResolveAce("LIST", "ghost", &id));
  EXPECT_EQ(MR_ACE, mc_->ResolveAce("BOGUS", "x", &id));
  EXPECT_EQ("NONE", mc_->AceName("NONE", 0));
}

TEST_F(ContextTest, StampSetsModTriples) {
  AddActiveUser("stampme", 701);
  RowRef user = mc_->UserByLogin("stampme");
  ASSERT_EQ(MR_SUCCESS, user.code);
  clock_.Set(600000000);
  mc_->Stamp(mc_->users(), user.row, "someone", "someapp", "f");
  EXPECT_EQ(600000000, MoiraContext::IntCell(mc_->users(), user.row, "fmodtime"));
  EXPECT_EQ("someone", MoiraContext::StrCell(mc_->users(), user.row, "fmodby"));
  EXPECT_EQ("someapp", MoiraContext::StrCell(mc_->users(), user.row, "fmodwith"));
}

class RegistryShapeTest : public MoiraEnv {};

TEST_F(RegistryShapeTest, RegistryHasPaperScaleQueryCount) {
  // Paper section 5.1.C: "Over 100 query handles".
  EXPECT_GE(QueryRegistry::Instance().All().size(), 100u);
}

TEST_F(RegistryShapeTest, LongAndShortNamesResolve) {
  const QueryRegistry& registry = QueryRegistry::Instance();
  const QueryDef* by_long = registry.Find("get_user_by_login");
  const QueryDef* by_short = registry.Find("gubl");
  ASSERT_NE(nullptr, by_long);
  EXPECT_EQ(by_long, by_short);
  EXPECT_EQ(nullptr, registry.Find("no_such_query"));
}

TEST_F(RegistryShapeTest, NamesAreUnique) {
  std::set<std::string> longs;
  std::set<std::string> shorts;
  for (const QueryDef& def : QueryRegistry::Instance().All()) {
    EXPECT_TRUE(longs.insert(def.name).second) << def.name;
    EXPECT_TRUE(shorts.insert(def.shortname).second) << def.shortname;
    EXPECT_EQ(4u, std::string(def.shortname).size()) << def.name;
  }
}

TEST_F(RegistryShapeTest, UnknownQueryIsNoHandle) {
  EXPECT_EQ(MR_NO_HANDLE, RunRoot("bogus_query", {}));
}

TEST_F(RegistryShapeTest, ArgCountEnforced) {
  EXPECT_EQ(MR_ARGS, RunRoot("get_user_by_login", {}));
  EXPECT_EQ(MR_ARGS, RunRoot("get_user_by_login", {"a", "b"}));
}

// Every query gets a row, world queries included: the row is what makes
// dbadmin members privileged there (hidden lists in get_list_info).
TEST_F(RegistryShapeTest, SeedCapaclsCoversNonWorldQueries) {
  QueryRegistry::Instance().SeedCapacls(*mc_, "dbadmin");
  size_t world = 0;
  for (const QueryDef& def : QueryRegistry::Instance().All()) {
    world += def.world_ok ? 1 : 0;
    EXPECT_TRUE(From(mc_->capacls()).WhereEq("capability", Value(def.name)).Any())
        << def.name;
  }
  EXPECT_GT(world, 0u);
  EXPECT_EQ(QueryRegistry::Instance().All().size(), mc_->capacls()->LiveCount());
}

}  // namespace
}  // namespace moira
