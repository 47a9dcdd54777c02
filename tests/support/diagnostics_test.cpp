#include "support/diagnostics.h"

#include <gtest/gtest.h>

#include <sstream>

namespace polaris {
namespace {

TEST(DiagnosticsTest, CountsBySeverity) {
  Diagnostics d;
  d.note("rangetest", "main/do_10", "loop proven parallel");
  d.warning("inline", "main", "recursion depth limit reached");
  d.error("parser", "sub1", "unsupported construct");
  EXPECT_EQ(d.count(DiagSeverity::Note), 1u);
  EXPECT_EQ(d.count(DiagSeverity::Warning), 1u);
  EXPECT_EQ(d.count(DiagSeverity::Error), 1u);
}

TEST(DiagnosticsTest, ContainsSearchesMessages) {
  Diagnostics d;
  d.note("priv", "main/do_20", "array a privatized");
  EXPECT_TRUE(d.contains("privatized"));
  EXPECT_FALSE(d.contains("reduction"));
}

TEST(DiagnosticsTest, PrintFormat) {
  Diagnostics d;
  d.note("doall", "main/do_10", "parallel");
  std::ostringstream os;
  d.print(os);
  EXPECT_EQ(os.str(), "note [doall] main/do_10: parallel\n");
}

TEST(DiagnosticsTest, ClearEmpties) {
  Diagnostics d;
  d.error("x", "y", "z");
  d.clear();
  EXPECT_EQ(d.count(DiagSeverity::Error), 0u);
  EXPECT_TRUE(d.all().empty());
}

}  // namespace
}  // namespace polaris
