// Unit tests for the JSON layer (util/json.hpp): parsing, serialization,
// typed access, and error behavior. Wisdom files and captures depend on
// byte-stable round trips.

#include <gtest/gtest.h>

#include <cmath>

#include "util/fs.hpp"
#include "util/json.hpp"

namespace kl::json {
namespace {

TEST(JsonValue, DefaultIsNull) {
    Value v;
    EXPECT_TRUE(v.is_null());
    EXPECT_EQ(v.dump(), "null");
}

TEST(JsonValue, ScalarTypes) {
    EXPECT_TRUE(Value(true).is_bool());
    EXPECT_TRUE(Value(42).is_int());
    EXPECT_TRUE(Value(3.5).is_double());
    EXPECT_TRUE(Value("hi").is_string());
    EXPECT_TRUE(Value(42).is_number());
    EXPECT_TRUE(Value(3.5).is_number());
    EXPECT_FALSE(Value("hi").is_number());
}

TEST(JsonValue, IntDoubleDistinct) {
    EXPECT_EQ(Value(1).dump(), "1");
    EXPECT_EQ(Value(1.0).dump(), "1.0");
    Value big(int64_t {1} << 62);
    EXPECT_EQ(big.as_int(), int64_t {1} << 62);
}

TEST(JsonValue, TypeMismatchThrows) {
    Value v(42);
    EXPECT_THROW(v.as_string(), JsonError);
    EXPECT_THROW(v.as_bool(), JsonError);
    EXPECT_THROW(v.as_array(), JsonError);
    EXPECT_THROW(v.as_object(), JsonError);
    EXPECT_NO_THROW(v.as_double());  // int widens to double
}

TEST(JsonValue, ObjectAccess) {
    Value obj = Value::object();
    obj["a"] = 1;
    obj["b"] = "two";
    EXPECT_TRUE(obj.contains("a"));
    EXPECT_FALSE(obj.contains("c"));
    EXPECT_EQ(obj["a"].as_int(), 1);
    const Value& cobj = obj;
    EXPECT_THROW(cobj["missing"], JsonError);
    EXPECT_EQ(cobj.find("b")->as_string(), "two");
    EXPECT_EQ(cobj.find("missing"), nullptr);
}

TEST(JsonValue, AutoVivifyFromNull) {
    Value v;
    v["key"] = 7;
    EXPECT_TRUE(v.is_object());
    Value w;
    w.push_back(1);
    EXPECT_TRUE(w.is_array());
}

TEST(JsonValue, ArrayAccess) {
    Value arr = Value::array();
    arr.push_back(1);
    arr.push_back(2);
    EXPECT_EQ(arr.size(), 2u);
    EXPECT_EQ(arr.at(1).as_int(), 2);
    EXPECT_THROW(arr.at(2), JsonError);
}

TEST(JsonValue, TypedLookupsWithDefaults) {
    Value obj = Value::object();
    obj["i"] = 3;
    obj["d"] = 2.5;
    obj["s"] = "x";
    obj["b"] = true;
    EXPECT_EQ(obj.get_int_or("i", -1), 3);
    EXPECT_EQ(obj.get_int_or("missing", -1), -1);
    EXPECT_EQ(obj.get_int_or("s", -1), -1);  // wrong type -> fallback
    EXPECT_DOUBLE_EQ(obj.get_double_or("d", 0), 2.5);
    EXPECT_DOUBLE_EQ(obj.get_double_or("i", 0), 3.0);  // int widens
    EXPECT_EQ(obj.get_string_or("s", "y"), "x");
    EXPECT_EQ(obj.get_bool_or("b", false), true);
    EXPECT_EQ(obj.get_bool_or("i", false), false);
}

TEST(JsonParse, Scalars) {
    EXPECT_EQ(parse("true").as_bool(), true);
    EXPECT_EQ(parse("false").as_bool(), false);
    EXPECT_TRUE(parse("null").is_null());
    EXPECT_EQ(parse("-17").as_int(), -17);
    EXPECT_DOUBLE_EQ(parse("2.75").as_double(), 2.75);
    EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
    EXPECT_DOUBLE_EQ(parse("-1.5E-2").as_double(), -0.015);
    EXPECT_EQ(parse("\"abc\"").as_string(), "abc");
}

TEST(JsonParse, Whitespace) {
    Value v = parse("  {\n\t\"a\" : [ 1 , 2 ] }\r\n");
    EXPECT_EQ(v["a"].size(), 2u);
}

TEST(JsonParse, NestedStructures) {
    Value v = parse(R"({"a": {"b": [1, {"c": null}]}, "d": []})");
    EXPECT_TRUE(v["a"]["b"].at(1)["c"].is_null());
    EXPECT_TRUE(v["d"].as_array().empty());
}

TEST(JsonParse, StringEscapes) {
    EXPECT_EQ(parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
    EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
    EXPECT_EQ(parse(R"("☃")").as_string(), "\xe2\x98\x83");  // snowman
}

TEST(JsonParse, IntegerOverflowFallsBackToDouble) {
    Value v = parse("99999999999999999999999999");
    EXPECT_TRUE(v.is_double());
}

struct BadInput {
    const char* text;
};

// Prints the input itself, so the test name is stable from build to build
// (without it gtest prints the bytes of the pointer).
void PrintTo(const BadInput& in, std::ostream* os) {
    *os << ::testing::PrintToString(std::string(in.text));
}

class JsonParseErrors: public ::testing::TestWithParam<BadInput> {};

TEST_P(JsonParseErrors, Throws) {
    EXPECT_THROW(parse(GetParam().text), JsonError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed,
    JsonParseErrors,
    ::testing::Values(
        BadInput {""},
        BadInput {"{"},
        BadInput {"}"},
        BadInput {"[1,]"},
        BadInput {"{\"a\":}"},
        BadInput {"{\"a\" 1}"},
        BadInput {"{a: 1}"},
        BadInput {"\"unterminated"},
        BadInput {"tru"},
        BadInput {"nul"},
        BadInput {"1 2"},
        BadInput {"[1] trailing"},
        BadInput {"-"},
        BadInput {"\"\\x\""},
        BadInput {"\"\\u12\""},
        BadInput {"{\"a\":1,}"}));

TEST(JsonParse, ErrorMessageHasLineAndColumn) {
    try {
        parse("{\n  \"a\": oops\n}");
        FAIL() << "expected JsonError";
    } catch (const JsonError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
}

// Hostile input: unbounded nesting used to recurse until the stack
// overflowed (8 MiB of '[' crashed kl-wisdomd). It must be a JsonError.
TEST(JsonParse, DeepNestingIsRejected) {
    const std::string brackets(8u << 20, '[');
    EXPECT_THROW(parse(brackets), JsonError);

    std::string objects;
    for (int i = 0; i < 200000; i++) {
        objects += "{\"a\":";
    }
    try {
        parse(objects);
        FAIL() << "expected JsonError";
    } catch (const JsonError& e) {
        EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos) << e.what();
    }

    // The limit is 256 levels.
    auto nested = [](size_t levels) {
        return std::string(levels, '[') + std::string(levels, ']');
    };
    EXPECT_NO_THROW(parse(nested(256)));
    EXPECT_THROW(parse(nested(257)), JsonError);
}

TEST(JsonParse, ValueLimit) {
    // An array, an object and a scalar each count one value.
    EXPECT_NO_THROW(parse(R"([1, {"a": 2}])", 4));
    EXPECT_THROW(parse(R"([1, {"a": 2}])", 3), JsonError);
    std::string flat = "[";
    for (int i = 0; i < 1000; i++) {
        flat += "0,";
    }
    flat += "0]";
    EXPECT_NO_THROW(parse(flat));
    EXPECT_THROW(parse(flat, 1000), JsonError);
}

class JsonRoundTrip: public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, CompactRoundTripIsStable) {
    Value first = parse(GetParam());
    std::string dumped = first.dump();
    Value second = parse(dumped);
    EXPECT_EQ(second.dump(), dumped);
}

TEST_P(JsonRoundTrip, PrettyRoundTrip) {
    Value first = parse(GetParam());
    EXPECT_EQ(parse(first.dump_pretty()).dump(), first.dump());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus,
    JsonRoundTrip,
    ::testing::Values(
        "null",
        "true",
        "-123",
        "0.5",
        "\"text with \\\"escapes\\\"\"",
        "[]",
        "{}",
        "[1, 2.5, \"x\", null, true]",
        R"({"kernel": "advec_u", "problem_size": [256, 256, 256]})",
        R"({"nested": {"deep": [{"a": [[1], [2]]}]}})",
        R"({"unicode": "sn☃w"})"));

TEST(JsonSerialize, SortedKeysAreDeterministic) {
    Value a = Value::object();
    a["zebra"] = 1;
    a["alpha"] = 2;
    EXPECT_EQ(a.dump(), R"({"alpha": 2, "zebra": 1})");
}

TEST(JsonSerialize, ControlCharactersEscaped) {
    EXPECT_EQ(Value(std::string("a\x01""b")).dump(), "\"a\\u0001b\"");
}

TEST(JsonSerialize, NanAndInfBecomeNull) {
    EXPECT_EQ(Value(std::nan("")).dump(), "null");
    EXPECT_EQ(Value(1.0 / 0.0 * 1.0).dump(), "null");
}

TEST(JsonFile, WriteAndParseFile) {
    std::string dir = kl::make_temp_dir("kl-json-test");
    std::string path = dir + "/doc.json";
    Value doc = parse(R"({"a": [1, 2, 3], "b": "text"})");
    write_file(path, doc);
    EXPECT_EQ(parse_file(path).dump(), doc.dump());
}

TEST(JsonFile, MissingFileThrowsIoError) {
    EXPECT_THROW(parse_file("/nonexistent/nowhere.json"), kl::IoError);
}

}  // namespace
}  // namespace kl::json
