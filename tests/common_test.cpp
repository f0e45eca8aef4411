#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/require.hpp"
#include "common/table.hpp"

namespace {

using decor::common::Options;
using decor::common::Table;

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, KeyValueParsing) {
  const auto o = parse({"--k=5", "--label=grid-small"});
  EXPECT_EQ(o.get_int("k", 0), 5);
  EXPECT_EQ(o.get("label", ""), "grid-small");
}

TEST(Options, DefaultsWhenAbsent) {
  const auto o = parse({});
  EXPECT_EQ(o.get_int("k", 3), 3);
  EXPECT_DOUBLE_EQ(o.get_double("rs", 4.0), 4.0);
  EXPECT_EQ(o.get("name", "x"), "x");
  EXPECT_FALSE(o.has("k"));
}

TEST(Options, BareFlagIsTrue) {
  const auto o = parse({"--verbose"});
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_TRUE(o.has("verbose"));
}

TEST(Options, BoolSpellings) {
  const auto o = parse({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(o.get_bool("a", false));
  EXPECT_TRUE(o.get_bool("b", false));
  EXPECT_TRUE(o.get_bool("c", false));
  EXPECT_FALSE(o.get_bool("d", true));
}

TEST(Options, Positional) {
  const auto o = parse({"file.csv", "--k=1", "other"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "file.csv");
  EXPECT_EQ(o.positional()[1], "other");
}

TEST(Options, DoubleParsing) {
  const auto o = parse({"--rs=4.5"});
  EXPECT_DOUBLE_EQ(o.get_double("rs", 0.0), 4.5);
}

TEST(Table, TextAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const auto text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscapingFreeRoundTrip) {
  Table t({"x", "y"});
  t.add_row_numeric({1.5, 2.25}, 2);
  const auto csv = t.to_csv();
  EXPECT_EQ(csv, "x,y\n1.50,2.25\n");
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), decor::common::RequireError);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), decor::common::RequireError);
}

TEST(Require, ThrowsWithContext) {
  try {
    DECOR_REQUIRE_MSG(1 == 2, "numbers drifted");
    FAIL() << "should have thrown";
  } catch (const decor::common::RequireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("numbers drifted"), std::string::npos);
  }
}

TEST(Require, PassesSilently) {
  DECOR_REQUIRE(2 + 2 == 4);
  DECOR_REQUIRE_MSG(true, "never shown");
}

TEST(Log, LevelRoundTrip) {
  const auto prev = decor::common::log_level();
  decor::common::set_log_level(decor::common::LogLevel::kDebug);
  EXPECT_EQ(decor::common::log_level(), decor::common::LogLevel::kDebug);
  decor::common::set_log_level(prev);
}

TEST(Log, MacroCompilesAndFilters) {
  const auto prev = decor::common::log_level();
  decor::common::set_log_level(decor::common::LogLevel::kError);
  // Should be filtered (no crash, no output assertion needed).
  DECOR_LOG_DEBUG("invisible " << 42);
  decor::common::set_log_level(prev);
}

TEST(ParseJson, ScalarsAndContainers) {
  const auto v = decor::common::parse_json(
      "{\"a\":1.5,\"b\":\"hi\",\"c\":[true,false,null],\"d\":{\"e\":-2}}");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->find("a")->as_number(), 1.5);
  EXPECT_EQ(v->find("b")->as_string(), "hi");
  const auto* c = v->find("c");
  ASSERT_TRUE(c != nullptr && c->is_array());
  ASSERT_EQ(c->items().size(), 3u);
  EXPECT_TRUE(c->items()[0].as_bool());
  EXPECT_TRUE(c->items()[2].is_null());
  EXPECT_DOUBLE_EQ(v->get("d", "e")->as_number(), -2.0);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(ParseJson, MemberOrderIsDocumentOrder) {
  const auto v =
      decor::common::parse_json("{\"z\":1,\"a\":2,\"m\":3}");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->members().size(), 3u);
  EXPECT_EQ(v->members()[0].first, "z");
  EXPECT_EQ(v->members()[1].first, "a");
  EXPECT_EQ(v->members()[2].first, "m");
}

TEST(ParseJson, StringEscapes) {
  const auto v = decor::common::parse_json(
      "\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(ParseJson, RejectsMalformedInput) {
  using decor::common::parse_json;
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{\"a\":").has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(parse_json("[1 2]").has_value());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(parse_json("nul").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
}

TEST(ParseJson, MemberAccessorsFallBackToDefaults) {
  const auto v = decor::common::parse_json(
      "{\"n\":7,\"neg\":-1,\"big\":1e30,\"u32\":4294967296,"
      "\"s\":\"x\"}");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->number_at("n"), 7.0);
  EXPECT_EQ(v->number_at<std::uint64_t>("n"), 7u);
  EXPECT_EQ(v->number_at<std::int64_t>("neg"), -1);
  EXPECT_EQ(v->number_at<std::uint64_t>("u32"), 4294967296u);
  // Absent, non-numeric, and out of the target type's range: the default.
  EXPECT_DOUBLE_EQ(v->number_at("missing", 2.5), 2.5);
  EXPECT_DOUBLE_EQ(v->number_at("s", 2.5), 2.5);
  EXPECT_EQ(v->number_at<std::uint64_t>("neg", 9), 9u);
  EXPECT_EQ(v->number_at<std::uint64_t>("big", 9), 9u);
  EXPECT_EQ(v->number_at<std::uint32_t>("u32", 9), 9u);
  EXPECT_EQ(v->string_at("s"), "x");
  EXPECT_EQ(v->string_at("n"), "");
  EXPECT_EQ(v->string_at("missing"), "");
}

TEST(ParseJson, RoundTripsOwnWriters) {
  // The repo's own JSONL lines must parse back: this is what the robust
  // trace report and the HTML renderer rely on.
  const auto v = decor::common::parse_json(
      "{\"seq\":12,\"t\":3.25,\"kind\":\"tx\",\"node\":4,\"trace\":9,"
      "\"detail\":\"kind=2 to=7\"}");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->find("seq")->as_number(), 12.0);
  EXPECT_EQ(v->find("detail")->as_string(), "kind=2 to=7");
}

}  // namespace
