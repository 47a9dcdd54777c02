#include "support/string_util.h"

#include <gtest/gtest.h>

namespace polaris {
namespace {

TEST(StringUtilTest, ToLowerUpper) {
  EXPECT_EQ(to_lower("DO 100 I = 1, N"), "do 100 i = 1, n");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t a b \r\n"), "a b");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitSingle) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("csrd$ doall", "csrd$"));
  EXPECT_FALSE(starts_with("x", "xy"));
  EXPECT_TRUE(ends_with("file.f", ".f"));
  EXPECT_FALSE(ends_with("f", ".f"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

}  // namespace
}  // namespace polaris
