// json::parse reads everything json::dump writes: a document parsed and
// dumped again comes back byte for byte, reals, null and \u escapes
// included, and a malformed literal or escape throws naming its byte offset.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "runtime/runtime.hpp"
#include "util/error.hpp"

namespace nab::runtime {
namespace {

/// How many values of kind `k` the document holds, at any depth.
int count_kind(const json& j, json::kind k) {
  int n = j.type() == k ? 1 : 0;
  for (const auto& [key, value] : j.members()) n += count_kind(value, k);
  for (const json& e : j.elements()) n += count_kind(e, k);
  return n;
}

/// Expects parse to throw a message naming byte `offset`.
void expect_malformed_at(const std::string& text, std::size_t offset) {
  SCOPED_TRACE(text);
  try {
    json::parse(text);
    ADD_FAILURE() << "parsed";
  } catch (const nab::error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte " + std::to_string(offset) + ")"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, CommittedBenchRoundTripsByteIdentically) {
  std::ifstream in(NAB_TEST_DATA_DIR "/../../../BENCH_runtime.json", std::ios::binary);
  ASSERT_TRUE(in) << "BENCH_runtime.json not found";
  std::stringstream text;
  text << in.rdbuf();
  const json doc = json::parse(text.str());
  EXPECT_GT(count_kind(doc, json::kind::number_real), 0);
  EXPECT_GT(count_kind(doc, json::kind::number_int), 0);
  EXPECT_EQ(doc.dump(), text.str());
}

TEST(Json, SweepDocumentRoundTripsByteIdentically) {
  // A document with its wall-clock and timing fields: reals next to
  // integers, strings, booleans and nesting.
  const std::vector<run_record> records = run_sweep(select_scenarios("fig1"), 1, 1);
  const std::map<std::string, double> family_walls{{"fig1", 1.25e-3}};
  const std::string text = sweep_document("fig1", 1, 1, records, 0.5, &family_walls).dump();
  const json doc = json::parse(text);
  EXPECT_GT(count_kind(doc, json::kind::number_real), 0);
  EXPECT_EQ(doc.dump(), text);
}

TEST(Json, FractionsAndExponentsAreReals) {
  const json doc = json::parse(R"([1.5, -2.5e-3, 1E10, 0.1, 7e+2, 42, -0, 1e300])");
  const auto& e = doc.elements();
  ASSERT_EQ(e.size(), 8u);
  const double reals[] = {1.5, -2.5e-3, 1e10, 0.1, 7e2};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(e[i].type(), json::kind::number_real) << i;
    EXPECT_EQ(e[i].real_value(), reals[i]) << i;
  }
  EXPECT_EQ(e[5].type(), json::kind::number_int);
  EXPECT_EQ(e[5].int_value(), 42);
  EXPECT_EQ(e[6].type(), json::kind::number_int);  // an integer literal stays one
  EXPECT_EQ(e[7].real_value(), 1e300);
  // Reals with 17-digit mantissas survive dump and parse exactly, the
  // extremes of double's range included.
  for (const double v : {1.0 / 3.0, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min()})
    EXPECT_EQ(json::parse(json::num(v).dump()).real_value(), v);
}

TEST(Json, NullParses) {
  const json doc = json::parse(R"({"a": null, "b": [null]})");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->type(), json::kind::null);
  EXPECT_EQ(doc.find("b")->elements().at(0).type(), json::kind::null);
  // dump writes a non-finite real as null, and null reads back as null.
  EXPECT_EQ(json::parse(json::num(1.0 / 0.0).dump()).type(), json::kind::null);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // Every control byte dump escapes as \u00XX comes back.
  std::string controls;
  for (char c = 1; c < 0x20; ++c) controls.push_back(c);
  controls.push_back('\0');
  const std::string dumped = json::str(controls).dump();
  EXPECT_NE(dumped.find("\\u001f"), std::string::npos);
  EXPECT_EQ(json::parse(dumped).string_value(), controls);
  EXPECT_EQ(json::parse(dumped).dump(), dumped);

  // Other code points become UTF-8, a surrogate pair one 4-byte sequence.
  EXPECT_EQ(json::parse(R"("\u00e9\u20AC\u0041")").string_value(),
            "\xC3\xA9\xE2\x82\xAC" "A");
  EXPECT_EQ(json::parse(R"("\ud83d\ude00")").string_value(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(json::parse(R"("\b\f\/")").string_value(), "\b\f/");
}

TEST(Json, MalformedLiteralsAndEscapesThrowNamingTheOffset) {
  expect_malformed_at("[1.]", 3);       // fraction without digits
  expect_malformed_at("[1.e5]", 3);
  expect_malformed_at("[1e]", 3);       // exponent without digits
  expect_malformed_at("[2E+]", 4);
  expect_malformed_at("[-]", 2);
  expect_malformed_at("[.5]", 1);
  expect_malformed_at("[1e999]", 1);    // beyond double range
  expect_malformed_at("[nul]", 1);
  expect_malformed_at(R"("\u12")", 3);  // short \u escape
  expect_malformed_at(R"("\u12g4")", 3);
  expect_malformed_at(R"("\q")", 3);
  expect_malformed_at(R"("\ud800")", 7);  // lone high surrogate
  expect_malformed_at(R"("\ud800\u0041")", 13);
  expect_malformed_at(R"("\udc00")", 7);  // lone low surrogate
  expect_malformed_at("[99999999999999999999]", 19);
}

}  // namespace
}  // namespace nab::runtime
