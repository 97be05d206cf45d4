// Unit and property tests for the Moira library string utilities (paper
// section 5.6.3).
#include <gtest/gtest.h>

#include <tuple>

#include "src/common/strutil.h"

namespace moira {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ("abc", TrimWhitespace("  abc\t\n"));
  EXPECT_EQ("a b", TrimWhitespace(" a b "));
  EXPECT_EQ("", TrimWhitespace("   "));
  EXPECT_EQ("", TrimWhitespace(""));
  EXPECT_EQ("x", TrimWhitespace("x"));
}

TEST(CaseFolding, UpperLower) {
  EXPECT_EQ("ABC-12.Z", ToUpperCopy("abc-12.z"));
  EXPECT_EQ("abc-12.z", ToLowerCopy("ABC-12.Z"));
  EXPECT_TRUE(EqualsIgnoreCase("HeLLo", "hEllO"));
  EXPECT_FALSE(EqualsIgnoreCase("hello", "hello!"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(SplitJoin, RoundTrips) {
  std::vector<std::string> parts = {"a", "", "b", "c"};
  EXPECT_EQ(parts, Split("a::b:c", ':'));
  EXPECT_EQ("a::b:c", Join(parts, ":"));
  EXPECT_EQ(std::vector<std::string>{""}, Split("", ':'));
}

TEST(SplitJoin, SplitViewsReplacesFields) {
  std::vector<std::string_view> fields = {"stale"};
  SplitViews("login:1:2:", ':', &fields);
  EXPECT_EQ((std::vector<std::string_view>{"login", "1", "2", ""}), fields);
  SplitViews("", ' ', &fields);
  EXPECT_EQ(std::vector<std::string_view>{""}, fields);
}

TEST(ParseInt, AcceptsSignedDecimals) {
  EXPECT_EQ(42, ParseInt("42").value());
  EXPECT_EQ(-7, ParseInt("-7").value());
  EXPECT_EQ(0, ParseInt("0").value());
  EXPECT_EQ(123, ParseInt("  123  ").value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("12x").has_value());
  EXPECT_FALSE(ParseInt("-").has_value());
  EXPECT_FALSE(ParseInt("1.5").has_value());
}

TEST(LegalNameChars, RejectsFormatBreakingCharacters) {
  EXPECT_TRUE(IsLegalNameChars("jrandom"));
  EXPECT_TRUE(IsLegalNameChars("a-b_c.d@e"));
  EXPECT_FALSE(IsLegalNameChars("a:b"));
  EXPECT_FALSE(IsLegalNameChars("a*b"));
  EXPECT_FALSE(IsLegalNameChars("a?b"));
  EXPECT_FALSE(IsLegalNameChars("a\"b"));
  EXPECT_FALSE(IsLegalNameChars(std::string("a\x01") + "b"));
}

TEST(CanonicalizeHostname, UppercasesAndStripsDot) {
  EXPECT_EQ("E40-PO.MIT.EDU", CanonicalizeHostname("e40-po.mit.edu."));
  EXPECT_EQ("HOST", CanonicalizeHostname("  host "));
}

struct WildcardCase {
  const char* pattern;
  const char* value;
  bool matches;
};

// Prints the case as its literals. Without it gtest prints the struct's raw
// bytes (two string addresses and uninitialised padding), so the test names
// that gtest_discover_tests derives from it changed with every load address.
void PrintTo(const WildcardCase& c, std::ostream* os) {
  *os << "{\"" << c.pattern << "\", \"" << c.value << "\", "
      << (c.matches ? "true" : "false") << "}";
}

class WildcardTest : public ::testing::TestWithParam<WildcardCase> {};

TEST_P(WildcardTest, MatchesExpected) {
  const WildcardCase& c = GetParam();
  EXPECT_EQ(c.matches, WildcardMatch(c.pattern, c.value))
      << c.pattern << " vs " << c.value;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, WildcardTest,
    ::testing::Values(
        WildcardCase{"*", "", true}, WildcardCase{"*", "anything", true},
        WildcardCase{"abc", "abc", true}, WildcardCase{"abc", "abd", false},
        WildcardCase{"a*c", "abc", true}, WildcardCase{"a*c", "ac", true},
        WildcardCase{"a*c", "abxc", true}, WildcardCase{"a*c", "abx", false},
        WildcardCase{"*mit*", "kermit.mit.edu", true},
        WildcardCase{"a?c", "abc", true}, WildcardCase{"a?c", "ac", false},
        WildcardCase{"??", "ab", true}, WildcardCase{"??", "a", false},
        WildcardCase{"a**b", "ab", true}, WildcardCase{"a**b", "axyzb", true},
        WildcardCase{"", "", true}, WildcardCase{"", "x", false},
        WildcardCase{"*.mit.edu", "W1.MIT.EDU", false},
        WildcardCase{"x*y*z", "xAAyBBz", true}, WildcardCase{"x*y*z", "xzy", false}));

TEST(Wildcard, CaseInsensitiveVariant) {
  EXPECT_TRUE(WildcardMatch("*.mit.edu", "W1.MIT.EDU", /*case_insensitive=*/true));
  EXPECT_TRUE(WildcardMatch("ABC", "abc", true));
  EXPECT_FALSE(WildcardMatch("ABC", "abd", true));
}

TEST(Wildcard, HasWildcardDetection) {
  EXPECT_TRUE(HasWildcard("a*"));
  EXPECT_TRUE(HasWildcard("a?b"));
  EXPECT_FALSE(HasWildcard("plain-name.mit.edu"));
}

// Property: a pattern equal to the value (no metacharacters) always matches,
// and appending "*" keeps it matching.
class WildcardPropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WildcardPropertyTest, ExactAndStarSuffix) {
  std::string value = GetParam();
  EXPECT_TRUE(WildcardMatch(value, value));
  EXPECT_TRUE(WildcardMatch(value + "*", value));
  EXPECT_TRUE(WildcardMatch("*" + value, value));
  EXPECT_TRUE(WildcardMatch(value + "*", value + "suffix"));
}

INSTANTIATE_TEST_SUITE_P(Values, WildcardPropertyTest,
                         ::testing::Values("", "a", "login", "e40-po.mit.edu",
                                           "x_y-z.123", "MiXeD"));

}  // namespace
}  // namespace moira
