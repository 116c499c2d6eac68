// support/json.hpp: the minimal DOM parser behind bench_diff, the
// BENCH_tables.json loader of src/model and the run-profile loader.
#include <gtest/gtest.h>

#include <string>

#include "support/json.hpp"

namespace vodsm {
namespace {

using support::Json;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").isNull());
  EXPECT_TRUE(Json::parse("true").asBool());
  EXPECT_FALSE(Json::parse("false").asBool());
  EXPECT_DOUBLE_EQ(Json::parse("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-0.125").asNumber(), -0.125);
  EXPECT_DOUBLE_EQ(Json::parse("6.02e23").asNumber(), 6.02e23);
  EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\n\t")").asString(), "a\"b\\c\n\t");
  EXPECT_EQ(Json::parse(R"("A")").asString(), "A");
  // Non-ASCII BMP codepoint -> UTF-8, and a surrogate pair.
  EXPECT_EQ(Json::parse(R"("é")").asString(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("😀")").asString(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParsesNestedStructure) {
  // The shape the model loader actually reads: tables -> cells -> numbers.
  Json doc = Json::parse(R"({
    "suite": "paper_tables",
    "tables": [
      {"name": "table3_is_speedup", "cells": [
        {"id": "IS/VC_sd/8p", "sim_seconds": 0.25,
         "breakdown_seconds": {"compute": 0.1, "barrier_wait": 0.05}}
      ]}
    ]
  })");
  EXPECT_EQ(doc.at("suite").asString(), "paper_tables");
  const Json& cell = doc.at("tables").items()[0].at("cells").items()[0];
  EXPECT_EQ(cell.at("id").asString(), "IS/VC_sd/8p");
  EXPECT_DOUBLE_EQ(cell.at("sim_seconds").asNumber(), 0.25);
  EXPECT_DOUBLE_EQ(cell.at("breakdown_seconds").at("compute").asNumber(),
                   0.1);
  // Object members keep file order.
  EXPECT_EQ(cell.at("breakdown_seconds").members()[1].first, "barrier_wait");
  EXPECT_EQ(cell.find("missing"), nullptr);
  EXPECT_THROW(cell.at("missing"), Error);
}

TEST(Json, ParsesEmptyContainersAndWhitespace) {
  EXPECT_TRUE(Json::parse(" [ ] ").items().empty());
  EXPECT_TRUE(Json::parse("\n{\t}\r\n").members().empty());
  EXPECT_EQ(Json::parse("[1, [2, 3], {\"a\": [4]}]").items().size(), 3u);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "{\"a\": 1,}", "tru", "01a", "\"open",
        "\"bad\\q\"", "1 2", "[1] x", "{\"a\": }"}) {
    EXPECT_THROW(Json::parse(bad), Error) << "input: " << bad;
  }
}

TEST(Json, TypeMismatchThrows) {
  Json v = Json::parse("[1]");
  EXPECT_THROW(v.asNumber(), Error);
  EXPECT_THROW(v.asString(), Error);
  EXPECT_THROW(v.members(), Error);
  EXPECT_THROW(Json::parse("3").items(), Error);
}

}  // namespace
}  // namespace vodsm
