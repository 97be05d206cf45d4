// Tests for the Hesiod name server substrate (paper section 5.8.2).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/hesiod/hesiod.h"

namespace moira {
namespace {

constexpr char kSampleDb[] =
    "; comment line\n"
    "\n"
    "babette.passwd HS UNSPECA \"babette:*:6530:101:Harmon C Fowler,,,,:/mit/babette"
    ":/bin/csh\"\n"
    "6530.uid HS CNAME babette.passwd\n"
    "bldge40-vs.cluster HS UNSPECA \"zephyr neskaya.mit.edu\"\n"
    "bldge40-vs.cluster HS UNSPECA \"lpr e40\"\n"
    "TOTO.cluster HS CNAME bldge40-vs.cluster\n"
    "HESIOD.sloc HS UNSPECA KIWI.MIT.EDU\n";

TEST(Hesiod, LoadsAndCounts) {
  HesiodServer server;
  EXPECT_EQ(6, server.LoadDb(kSampleDb));
  EXPECT_EQ(6u, server.record_count());
}

TEST(Hesiod, ResolvesUnspecA) {
  HesiodServer server;
  ASSERT_GT(server.LoadDb(kSampleDb), 0);
  std::vector<std::string> result = server.Resolve("babette", "passwd");
  ASSERT_EQ(1u, result.size());
  EXPECT_NE(result[0].find("Harmon C Fowler"), std::string::npos);
}

TEST(Hesiod, ResolvesMultipleRecords) {
  HesiodServer server;
  ASSERT_GT(server.LoadDb(kSampleDb), 0);
  EXPECT_EQ(2u, server.Resolve("bldge40-vs", "cluster").size());
}

TEST(Hesiod, ChasesCname) {
  HesiodServer server;
  ASSERT_GT(server.LoadDb(kSampleDb), 0);
  // uid -> passwd entry, machine -> cluster data.
  std::vector<std::string> uid = server.Resolve("6530", "uid");
  ASSERT_EQ(1u, uid.size());
  EXPECT_NE(uid[0].find("babette"), std::string::npos);
  EXPECT_EQ(2u, server.Resolve("TOTO", "cluster").size());
}

TEST(Hesiod, CaseInsensitiveLookups) {
  HesiodServer server;
  ASSERT_GT(server.LoadDb(kSampleDb), 0);
  EXPECT_EQ(1u, server.Resolve("BABETTE", "PASSWD").size());
  EXPECT_EQ(2u, server.Resolve("toto", "cluster").size());
}

TEST(Hesiod, UnquotedDataToken) {
  HesiodServer server;
  ASSERT_GT(server.LoadDb(kSampleDb), 0);
  std::vector<std::string> sloc = server.Resolve("HESIOD", "sloc");
  ASSERT_EQ(1u, sloc.size());
  EXPECT_EQ("KIWI.MIT.EDU", sloc[0]);
}

TEST(Hesiod, MissingNameIsEmpty) {
  HesiodServer server;
  ASSERT_GT(server.LoadDb(kSampleDb), 0);
  EXPECT_TRUE(server.Resolve("nobody", "passwd").empty());
  EXPECT_TRUE(server.Resolve("babette", "pobox").empty());
}

TEST(Hesiod, CnameCycleTerminates) {
  HesiodServer server;
  ASSERT_EQ(2, server.LoadDb("a.t HS CNAME b.t\nb.t HS CNAME a.t\n"));
  EXPECT_TRUE(server.Resolve("a", "t").empty());
}

TEST(Hesiod, DanglingCnameIsEmpty) {
  HesiodServer server;
  ASSERT_EQ(1, server.LoadDb("a.t HS CNAME missing.t\n"));
  EXPECT_TRUE(server.Resolve("a", "t").empty());
}

TEST(Hesiod, MalformedLinesRejected) {
  HesiodServer empty;
  EXPECT_EQ(-1, empty.LoadDb("not a record\n"));
  EXPECT_EQ(-1, empty.LoadDb("name.type HS BOGUSTYPE data\n"));
  EXPECT_EQ(-1, empty.LoadDb("name.type IN UNSPECA \"wrong class\"\n"));
  EXPECT_EQ(-1, empty.LoadDb("name.type HS UNSPECA \"unterminated\n"));
}

TEST(Hesiod, ReloadReplacesRecords) {
  HesiodServer server;
  ASSERT_GT(server.LoadDb(kSampleDb), 0);
  EXPECT_EQ(0, server.reload_count());
  // The Moira install script kills and restarts the server so the new files
  // are read into memory.
  int loaded = server.Reload({"fresh.passwd HS UNSPECA \"fresh:*:1:101::/mit/fresh:/bin/sh\"\n"});
  EXPECT_EQ(1, loaded);
  EXPECT_EQ(1, server.reload_count());
  EXPECT_TRUE(server.Resolve("babette", "passwd").empty());
  EXPECT_EQ(1u, server.Resolve("fresh", "passwd").size());
}

// A file with `copies` records for dup.t, numbered in file order and
// interleaved with records whose keys sort on both sides of it.
std::string DuplicateKeyDb(int first, int copies) {
  std::string text;
  for (int i = first; i < first + copies; ++i) {
    text += "zz" + std::to_string(i) + ".t HS UNSPECA \"z\"\n";
    text += "DUP.t HS UNSPECA \"" + std::to_string(i) + "\"\n";
    text += "aa" + std::to_string(i) + ".t HS UNSPECA \"a\"\n";
  }
  return text;
}

std::vector<std::string> Numbered(int first, int count) {
  std::vector<std::string> out;
  for (int i = first; i < first + count; ++i) {
    out.push_back(std::to_string(i));
  }
  return out;
}

TEST(Hesiod, DuplicateKeysKeepFileOrderAcrossReload) {
  HesiodServer server;
  ASSERT_EQ(300 + 150, server.Reload({DuplicateKeyDb(0, 100), DuplicateKeyDb(100, 50)}));
  std::vector<std::string> expected = Numbered(0, 150);
  EXPECT_EQ(expected, server.Resolve("dup", "t"));
  // Lookups fold case whatever case the file used.
  EXPECT_EQ(expected, server.Resolve("Dup", "T"));
  // A second restart on new files gives the same order again.
  ASSERT_EQ(3 * 80, server.Reload({DuplicateKeyDb(7, 80)}));
  EXPECT_EQ(Numbered(7, 80), server.Resolve("DUP", "t"));
}

TEST(Hesiod, DuplicateKeysKeepLoadOrderAcrossLoadDb) {
  HesiodServer server;
  ASSERT_EQ(3 * 60, server.LoadDb(DuplicateKeyDb(0, 60)));
  ASSERT_EQ(3 * 40, server.LoadDb(DuplicateKeyDb(60, 40)));
  EXPECT_EQ(Numbered(0, 100), server.Resolve("dup", "t"));
  EXPECT_EQ(1u, server.Resolve("AA59", "t").size());
  EXPECT_EQ(2u * 3 * 50, server.record_count());
}

// Two files holding one key, in several cases, among enough other keys that
// the sort is not an insertion sort, and with empty data strings, resolve in
// file order, the first file first.
TEST(Hesiod, SameKeyInTwoFilesResolvesInFileOrder) {
  std::string first;
  std::string second;
  for (int i = 0; i < 40; ++i) {
    first += "k" + std::to_string(i) + ".t HS UNSPECA \"f" + std::to_string(i) + "\"\n";
    second += "k" + std::to_string(39 - i) + ".t HS UNSPECA \"s\"\n";
    if (i % 10 == 0) {
      first += "Same.T HS UNSPECA \"first-" + std::to_string(i) + "\"\n";
      first += "same.t HS UNSPECA \"\"\n";
      second += "SAME.t HS UNSPECA \"second-" + std::to_string(i) + "\"\n";
    }
  }
  HesiodServer server;
  ASSERT_EQ(40 + 8 + 40 + 4, server.Reload({first, second}));
  EXPECT_EQ((std::vector<std::string>{"first-0", "", "first-10", "", "first-20", "", "first-30",
                                      "", "second-0", "second-10", "second-20", "second-30"}),
            server.Resolve("same", "t"));
  EXPECT_EQ((std::vector<std::string>{"f7", "s"}), server.Resolve("k7", "t"));
}

TEST(Hesiod, CnameChainAcrossFilesAndCase) {
  HesiodServer server;
  // The chain's links are spread over files loaded out of order, with
  // mixed-case keys and targets.
  ASSERT_EQ(3, server.Reload({"C.t HS UNSPECA \"end\"\n",
                              "a.T HS CNAME B.t\n",
                              "b.t HS CNAME c.T\n"}));
  EXPECT_EQ(std::vector<std::string>{"end"}, server.Resolve("A", "t"));
  EXPECT_EQ(std::vector<std::string>{"end"}, server.Resolve("b", "T"));
  EXPECT_TRUE(server.Resolve("d", "t").empty());
}

TEST(Hesiod, EmptyAndCommentOnlyFiles) {
  HesiodServer server;
  EXPECT_EQ(0, server.LoadDb(""));
  EXPECT_EQ(0, server.LoadDb("; nothing here\n;\n"));
}

}  // namespace
}  // namespace moira
