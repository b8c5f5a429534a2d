/** @file Unit tests for the minimal JSON value type. */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hh"
#include "common/json.hh"

using twig::common::FatalError;
using twig::common::Json;

TEST(Json, ParseScalars)
{
    EXPECT_EQ(Json::parse("null").type(), Json::Type::Null);
    EXPECT_TRUE(Json::parse("true").asBool());
    EXPECT_FALSE(Json::parse("false").asBool());
    EXPECT_DOUBLE_EQ(Json::parse("2.5").asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(Json::parse("-3").asNumber(), -3.0);
    EXPECT_DOUBLE_EQ(Json::parse("1e3").asNumber(), 1000.0);
    EXPECT_EQ(Json::parse("\"a\\nb\"").asString(), "a\nb");
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json j = Json::object();
    j.set("zeta", 1);
    j.set("alpha", 2);
    j.set("mid", 3);
    EXPECT_EQ(j.dump(), "{\"zeta\": 1, \"alpha\": 2, \"mid\": 3}");
    j.set("alpha", 9); // overwrite keeps the original position
    EXPECT_EQ(j.dump(), "{\"zeta\": 1, \"alpha\": 9, \"mid\": 3}");
}

TEST(Json, DumpParseDumpIsByteIdentical)
{
    Json j = Json::object();
    j.set("name", "round-trip");
    j.set("fraction", 0.5);
    j.set("steps", std::size_t{2000});
    Json arr = Json::array();
    arr.push(1);
    arr.push(2.25);
    arr.push("three");
    j.set("mixed", std::move(arr));
    Json nested = Json::object();
    nested.set("flag", true);
    nested.set("none", Json());
    j.set("nested", std::move(nested));

    const std::string once = j.dump();
    EXPECT_EQ(Json::parse(once).dump(), once);
    const std::string pretty = j.dump(2);
    EXPECT_EQ(Json::parse(pretty).dump(2), pretty);
}

TEST(Json, LargeIntegersKeepExactPrecision)
{
    // Above 2^53 a double drops low bits; seeds must survive exactly.
    const std::uint64_t seed = 7297471543603743092ULL;
    Json j(seed);
    EXPECT_EQ(j.asIndex(), seed);
    EXPECT_EQ(j.dump(), "7297471543603743092");
    EXPECT_EQ(Json::parse(j.dump()).asIndex(), seed);
    EXPECT_EQ(Json::parse("18446744073709551615").asIndex(),
              ~std::uint64_t{0});
}

TEST(Json, FractionalAndExponentLiteralsStayDoubles)
{
    EXPECT_DOUBLE_EQ(Json::parse("2.0").asNumber(), 2.0);
    EXPECT_EQ(Json::parse("2.0").asIndex(), 2u); // integral double is fine
    EXPECT_DOUBLE_EQ(Json::parse("5e2").asNumber(), 500.0);
    EXPECT_THROW(Json::parse("2.5").asIndex(), FatalError);
    EXPECT_THROW(Json::parse("-1").asIndex(), FatalError);
}

TEST(Json, TypedGettersWithDefaults)
{
    const Json j = Json::parse(
        "{\"s\": \"x\", \"n\": 1.5, \"i\": 7, \"b\": true}");
    EXPECT_EQ(j.stringOr("s", "d"), "x");
    EXPECT_EQ(j.stringOr("missing", "d"), "d");
    EXPECT_DOUBLE_EQ(j.numberOr("n", 0.0), 1.5);
    EXPECT_DOUBLE_EQ(j.numberOr("missing", 9.0), 9.0);
    EXPECT_EQ(j.indexOr("i", 0), 7u);
    EXPECT_EQ(j.indexOr("missing", 3), 3u);
    EXPECT_TRUE(j.boolOr("b", false));
    EXPECT_FALSE(j.boolOr("missing", false));
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_THROW(j.at("missing"), FatalError);
}

TEST(Json, StrictParserRejectsMalformedInput)
{
    EXPECT_THROW(Json::parse(""), FatalError);
    EXPECT_THROW(Json::parse("{\"a\": 1,}"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\": 1, \"a\": 2}"), FatalError);
    EXPECT_THROW(Json::parse("[1, 2"), FatalError);
    EXPECT_THROW(Json::parse("{'a': 1}"), FatalError);
    EXPECT_THROW(Json::parse("nul"), FatalError);
}

TEST(Json, TypeMismatchesAreFatal)
{
    const Json j = Json::parse("{\"a\": [1]}");
    EXPECT_THROW(j.asNumber(), FatalError);
    EXPECT_THROW(j.at("a").asString(), FatalError);
    EXPECT_THROW(j.at("a").at("k"), FatalError);
    EXPECT_THROW(j.at(std::size_t{0}), FatalError);
    EXPECT_THROW(j.at("a").at(std::size_t{5}), FatalError);
}
