// Tests for the io module: table rendering, CSV output, arg parsing.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"

namespace tmwia::io {
namespace {

TEST(Table, RejectsNoColumns) {
  EXPECT_THROW(Table("t", {}), std::invalid_argument);
}

TEST(Table, RejectsWrongCellCount) {
  Table t("t", {{"a"}, {"b"}});
  EXPECT_THROW(t.add_row({Cell{std::string("x")}}), std::invalid_argument);
}

TEST(Table, PrintsAlignedRows) {
  Table t("demo", {{"name"}, {"count"}, {"ratio", 2}});
  t.add_row({std::string("alpha"), 42LL, 0.3333});
  t.add_row({std::string("b"), 7LL, 12.5});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("0.33"), std::string::npos);
  EXPECT_NE(s.find("12.50"), std::string::npos);
}

TEST(Table, CsvFormat) {
  Table t("demo", {{"x"}, {"y", 1}});
  t.add_row({1LL, 2.0});
  t.add_row({3LL, 4.5});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2.0\n3,4.5\n");
}

TEST(Args, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--alpha=0.5", "--verbose", "--name=test"};
  Args a(5, argv);
  EXPECT_EQ(a.get_u64("n", 0), 128u);
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 0.0), 0.5);
  EXPECT_TRUE(a.get_flag("verbose"));
  EXPECT_FALSE(a.get_flag("quiet"));
  EXPECT_EQ(*a.get("name"), "test");
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Args a(1, argv);
  EXPECT_EQ(a.get_u64("n", 7), 7u);
  EXPECT_DOUBLE_EQ(a.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(a.get("missing").has_value());
}

TEST(Args, RejectsPositional) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

TEST(Args, SeedParsesLargeValues) {
  const char* argv[] = {"prog", "--seed=18446744073709551615"};
  Args a(2, argv);
  EXPECT_EQ(a.get_u64("seed", 0), 18446744073709551615ull);
}

/// Integer flags are counts, ids or seeds: digits only, whole, below
/// 2^64. Doubles parse whole and finite. Each failure names its flag.
TEST(Args, NumbersParseWholeOrNameTheFlag) {
  const char* argv[] = {"prog",        "--n=8x",     "--seed=-1", "--big=99999999999999999999",
                        "--plus=+3",   "--empty=",   "--flag",    "--alpha=0.5abc",
                        "--nan=nan",   "--inf=inf",  "--huge=1e999", "--neg=-0.25"};
  Args a(12, argv);
  for (const std::string name : {"n", "seed", "big", "plus", "empty", "flag", "neg"}) {
    try {
      (void)a.get_u64(name, 0);
      ADD_FAILURE() << "--" << name << " parsed as an integer";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("--" + name + ": ", 0), 0u) << e.what();
    }
  }
  for (const std::string name : {"alpha", "nan", "inf", "huge", "empty", "flag"}) {
    try {
      (void)a.get_double(name, 0.0);
      ADD_FAILURE() << "--" << name << " parsed as a number";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("--" + name + ": ", 0), 0u) << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(a.get_double("neg", 0.0), -0.25);
}

}  // namespace
}  // namespace tmwia::io
