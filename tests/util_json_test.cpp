// util::Json: construction, typed access, writer/parser round trips,
// lossless 64-bit integers, escape handling and strict rejection.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace cspls::util {
namespace {

TEST(Json, TypesAndAccessors) {
  EXPECT_EQ(Json().type(), Json::Type::kNull);
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_FALSE(Json(false).as_bool());
  EXPECT_EQ(Json(42).as_int64(), 42);
  EXPECT_EQ(Json(std::int64_t{-7}).as_int64(), -7);
  EXPECT_DOUBLE_EQ(Json(0.5).as_double(), 0.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
  EXPECT_EQ(Json(std::string("ho")).as_string(), "ho");
  // Integers read as doubles too (JSON has one number type).
  EXPECT_DOUBLE_EQ(Json(42).as_double(), 42.0);
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW((void)Json("text").as_int64(), std::runtime_error);
  EXPECT_THROW((void)Json(1).as_string(), std::runtime_error);
  EXPECT_THROW((void)Json(true).as_double(), std::runtime_error);
  EXPECT_THROW((void)Json(1.5).as_int64(), std::runtime_error);
  EXPECT_THROW((void)Json(std::int64_t{-1}).as_uint64(), std::runtime_error);
  EXPECT_THROW((void)Json().at("key"), std::runtime_error);
  EXPECT_THROW((void)Json::array().at("key"), std::runtime_error);
}

TEST(Json, Uint64RoundTripsLosslessly) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const Json encoded(max);
  EXPECT_EQ(encoded.dump(), "18446744073709551615");
  const auto decoded = Json::parse(encoded.dump());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->as_uint64(), max);
  // A double store would have rounded this; the text store must not.
  EXPECT_EQ(decoded->dump(), "18446744073709551615");
}

TEST(Json, Int64MinRoundTrips) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const auto decoded = Json::parse(Json(min).dump());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->as_int64(), min);
}

TEST(Json, ObjectPreservesInsertionOrderAndReplaces) {
  Json object = Json::object();
  object.set("b", 1).set("a", 2).set("b", 3);
  EXPECT_EQ(object.dump(), R"({"b":3,"a":2})");
  EXPECT_EQ(object.at("b").as_int64(), 3);
  EXPECT_TRUE(object.contains("a"));
  EXPECT_FALSE(object.contains("c"));
  EXPECT_EQ(object.find("c"), nullptr);
  EXPECT_EQ(object.size(), 2u);
}

TEST(Json, ArrayAccess) {
  Json array = Json::array();
  array.push_back(1);
  array.push_back("two");
  array.push_back(Json());
  ASSERT_EQ(array.size(), 3u);
  const std::vector<Json>& elements = array.elements();
  EXPECT_EQ(elements[0].as_int64(), 1);
  EXPECT_EQ(elements[1].as_string(), "two");
  EXPECT_EQ(elements[2].type(), Json::Type::kNull);
  EXPECT_THROW((void)Json(1).elements(), std::runtime_error);
}

TEST(Json, EncodeDecodeEncodeIsStable) {
  Json document = Json::object();
  Json walkers = Json::array();
  for (int i = 0; i < 3; ++i) {
    Json w = Json::object();
    w.set("id", i).set("cost", i * 10).set("solved", i == 0);
    walkers.push_back(std::move(w));
  }
  document.set("problem", "costas:18")
      .set("seed", std::uint64_t{0x5eed})
      .set("rate", 0.125)
      .set("walkers", std::move(walkers))
      .set("note", Json());

  const std::string first = document.dump();
  const auto reparsed = Json::parse(first);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->dump(), first);
  EXPECT_EQ(*reparsed, document);
  // Pretty form parses back to the same document.
  const auto pretty = Json::parse(document.dump(2));
  ASSERT_TRUE(pretty.has_value());
  EXPECT_EQ(*pretty, document);
}

TEST(Json, StringEscapes) {
  const Json original(std::string("a\"b\\c\nd\te\x01"));
  const std::string dumped = original.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  const auto parsed = Json::parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), original.as_string());
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const auto bmp = Json::parse(R"("\u0041\u00e9")");
  ASSERT_TRUE(bmp.has_value());
  EXPECT_EQ(bmp->as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  const auto astral = Json::parse(R"("\ud83d\ude00")");
  ASSERT_TRUE(astral.has_value());
  EXPECT_EQ(astral->as_string(), "\xf0\x9f\x98\x80");
  EXPECT_FALSE(Json::parse(R"("\ud83d")").has_value());  // lone surrogate
}

TEST(Json, ParsesScalarsAndNesting) {
  EXPECT_EQ(Json::parse("null")->type(), Json::Type::kNull);
  EXPECT_EQ(Json::parse("-12.5e2")->as_double(), -1250.0);
  const auto nested = Json::parse(R"({"a":[{"b":[1,2,{"c":null}]}]})");
  ASSERT_TRUE(nested.has_value());
  const std::vector<Json>& b =
      nested->at("a").elements().at(0).at("b").elements();
  EXPECT_EQ(read_json<int>(b.at(1), JsonPath{"b", {}, 1}), 2);
  EXPECT_EQ(b.at(2).at("c").type(), Json::Type::kNull);
  EXPECT_TRUE(Json::parse("  [ ]  ")->elements().empty());
  EXPECT_TRUE(Json::parse("{}")->is_object());
}

TEST(Json, ParserKeepsARepeatedMemberForTheReaderToReject) {
  const auto twice = Json::parse(R"({"a":1,"b":2,"a":3})");
  ASSERT_TRUE(twice.has_value());
  EXPECT_EQ(twice->size(), 3u);
  EXPECT_EQ(twice->at("a").as_int64(), 1);  // the first one
  try {
    (void)JsonReader(*twice, JsonPath{"Value"}, {"a", "b"});
    ADD_FAILURE() << "accepted a repeated member";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), R"(Value: repeated member "a")");
  }
  const Json unique = *Json::parse(R"({"b":2,"a":1})");
  EXPECT_EQ(JsonReader(unique, JsonPath{"Value"}, {"a", "b"}).get<int>("a"),
            1);
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":1,}", "tru", "01", "-01", "1.",
        "\"unterminated", "{} trailing", "{'single':1}", "[1 2]",
        "\"\\q\"", "nan", "+1"}) {
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(Json::parse(deep).has_value());
}

}  // namespace
}  // namespace cspls::util
