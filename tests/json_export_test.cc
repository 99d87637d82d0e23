// JSON export: escaping, numbers, and the report shapes dashboards consume.
#include "perfsight/json_export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfsight::json {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(escape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(JsonNumberTest, IntegersPrintExactly) {
  EXPECT_EQ(number(42), "42");
  EXPECT_EQ(number(-7), "-7");
  EXPECT_EQ(number(1234567890123.0), "1234567890123");
}

TEST(JsonNumberTest, NonFiniteBecomesNull) {
  EXPECT_EQ(number(std::nan("")), "null");
  EXPECT_EQ(number(1.0 / 0.0 * 1.0), "null");
}

// Regression (%.10g bugfix): byte counters above ~1e10 — a few seconds of
// traffic at modelled 10 Gbps — lost their low digits on export.  %.17g is
// the shortest printf width guaranteed to round-trip any double exactly.
TEST(JsonNumberTest, LargeCountersRoundTripExactly) {
  // Non-integral values above 1e10: the integer fast path does not apply,
  // so these exercise the %g branch end to end.
  const double values[] = {
      98765432109.875,         // ~9.9e10 with a fractional part
      1.23456789012345e14,     // full-precision mantissa
      40271998156.03125,       // exact binary fraction above 1e10
  };
  for (double v : values) {
    std::string printed = number(v);
    EXPECT_EQ(std::strtod(printed.c_str(), nullptr), v)
        << "'" << printed << "' does not round-trip";
  }
  // The old format demonstrably loses these: %.10g of 98765432109.875 is
  // "9.876543211e+10" == 98765432110.0.
  char old_buf[64];
  std::snprintf(old_buf, sizeof(old_buf), "%.10g", 98765432109.875);
  EXPECT_NE(std::strtod(old_buf, nullptr), 98765432109.875);

  // Integral counters above 1e10 keep the plain-integer fast path.
  EXPECT_EQ(number(12500000000.0), "12500000000");
}

// Property: escape() and unescape() are exact inverses over every byte
// value 0x00..0xff, in random strings and in the worst-case string holding
// all 256 values — and the escaped form always survives the linter inside
// a quoted JSON document.
TEST(JsonEscapeTest, EscapeUnescapeRoundTripsEveryByteValue) {
  std::string all;
  for (int v = 0; v < 256; ++v) all.push_back(static_cast<char>(v));
  Pcg32 rng(4096);
  std::vector<std::string> inputs = {all, "", std::string(1, '\0')};
  for (int trial = 0; trial < 200; ++trial) {
    std::string s;
    size_t len = rng.next_below(96);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.next_below(256)));
    }
    inputs.push_back(std::move(s));
  }
  for (const std::string& s : inputs) {
    const std::string esc = escape(s);
    Result<std::string> back = unescape(esc);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(back.value(), s);
    Status ok = lint("{\"k\":\"" + esc + "\"}");
    EXPECT_TRUE(ok.is_ok()) << ok.message();
  }
}

TEST(JsonEscapeTest, UnescapeRejectsDamage) {
  EXPECT_FALSE(unescape("\\").ok());          // dangling backslash
  EXPECT_FALSE(unescape("\\q").ok());         // unknown escape
  EXPECT_FALSE(unescape("\\u12").ok());       // truncated \u
  EXPECT_FALSE(unescape("\\u12zq").ok());     // bad hex digit
  EXPECT_FALSE(unescape("\\u0100").ok());     // beyond one byte
  // The full grammar is accepted, including escapes escape() never emits.
  Result<std::string> r = unescape("\\u0041\\/\\b\\f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "A/\b\f");
}

TEST(JsonRecordTest, SerializesRecord) {
  StatsRecord r;
  r.timestamp = SimTime::millis(5);
  r.element = ElementId{"m0/vm1/tun"};
  r.attrs = {{"rxPkts", 10}, {"dropPkts", 2}};
  EXPECT_EQ(to_json(r),
            "{\"timestampNs\":5000000,\"element\":\"m0/vm1/tun\","
            "\"attrs\":{\"rxPkts\":10,\"dropPkts\":2}}");
}

TEST(JsonContentionTest, SerializesReport) {
  ContentionReport r;
  r.problem_found = true;
  r.primary_location = ElementKind::kTun;
  r.spread = LossSpread::kMultiVm;
  r.is_contention = true;
  r.candidate_resources = {ResourceKind::kMemoryBandwidth};
  r.affected_vms = {0, 1};
  r.ranked.push_back({ElementId{"m0/vm0/tun"}, ElementKind::kTun, 0, 500});
  r.ranked.push_back({ElementId{"m0/pnic"}, ElementKind::kPNic, -1, 0});
  r.narrative = "loss at TUN";
  std::string j = to_json(r);
  EXPECT_NE(j.find("\"classification\":\"contention\""), std::string::npos);
  EXPECT_NE(j.find("\"memory-bandwidth\""), std::string::npos);
  EXPECT_NE(j.find("\"affectedVms\":[0,1]"), std::string::npos);
  // Zero-loss entries are omitted from rankedLosses.
  EXPECT_EQ(j.find("m0/pnic"), std::string::npos);
  EXPECT_NE(j.find("\"lossPkts\":500"), std::string::npos);
}

TEST(JsonContentionTest, HealthyReport) {
  ContentionReport r;
  std::string j = to_json(r);
  EXPECT_NE(j.find("\"problemFound\":false"), std::string::npos);
  EXPECT_NE(j.find("\"classification\":\"healthy\""), std::string::npos);
}

TEST(JsonRootCauseTest, SerializesReport) {
  RootCauseReport r;
  MbObservation o;
  o.id = ElementId{"lb"};
  o.state = MbState::kWriteBlocked;
  o.in_rate_mbps = 320.5;
  o.out_rate_mbps = 32;
  o.capacity_mbps = 100;
  r.observations.push_back(o);
  r.root_causes.push_back(ElementId{"server"});
  r.root_cause_roles.push_back(MbRole::kOverloaded);
  r.narrative = "root cause: server";
  std::string j = to_json(r);
  EXPECT_NE(j.find("\"state\":\"WriteBlocked\""), std::string::npos);
  EXPECT_NE(j.find("\"inRateMbps\":320.5"), std::string::npos);
  EXPECT_NE(j.find("{\"element\":\"server\",\"role\":\"Overloaded\"}"),
            std::string::npos);
}

// Reports say how much they saw: a verdict from partial data carries its
// coverage and blind spots, and every Algorithm 2 observation its quality.
TEST(JsonContentionTest, CarriesCoverageAndBlindSpots) {
  ContentionReport r;
  r.ranked.push_back({ElementId{"m0/pnic"}, ElementKind::kPNic, -1, 7});
  r.blind_spots.push_back({ElementId{"m0/vm1/tun"}, DataQuality::kStale});
  r.blind_spots.push_back({ElementId{"m0/napi"}, DataQuality::kMissing});
  r.coverage = 1.0 / 3.0;
  std::string j = to_json(r);
  EXPECT_TRUE(lint(j).is_ok()) << lint(j).message() << "\n" << j;
  EXPECT_NE(j.find("\"coverage\":0.333"), std::string::npos) << j;
  EXPECT_NE(j.find("\"blindSpots\":[{\"element\":\"m0/vm1/tun\","
                   "\"quality\":\"stale\"},{\"element\":\"m0/napi\","
                   "\"quality\":\"missing\"}]"),
            std::string::npos)
      << j;

  const std::string full = to_json(ContentionReport{});
  EXPECT_TRUE(lint(full).is_ok());
  EXPECT_NE(full.find("\"coverage\":1,\"blindSpots\":[]"), std::string::npos)
      << full;
}

TEST(JsonRootCauseTest, CarriesCoverageBlindSpotsAndQuality) {
  RootCauseReport r;
  MbObservation fresh;
  fresh.id = ElementId{"lb"};
  MbObservation torn;
  torn.id = ElementId{"nfs"};
  torn.quality = DataQuality::kTorn;
  r.observations = {fresh, torn};
  r.blind_spots = {torn};
  r.coverage = 0.5;
  std::string j = to_json(r);
  EXPECT_TRUE(lint(j).is_ok()) << lint(j).message() << "\n" << j;
  EXPECT_NE(j.find("\"capacityMbps\":0,\"quality\":\"fresh\"}"),
            std::string::npos)
      << j;
  EXPECT_NE(j.find("\"coverage\":0.5,\"blindSpots\":[{\"element\":\"nfs\","
                   "\"quality\":\"torn\"}]"),
            std::string::npos)
      << j;
}

// A light structural sanity check: braces and quotes balance.
TEST(JsonTest, BalancedStructure) {
  RootCauseReport r;
  r.root_causes.push_back(ElementId{"x\"y"});  // hostile name
  r.root_cause_roles.push_back(MbRole::kUnknown);
  std::string j = to_json(r);
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < j.size(); ++i) {
    char c = j[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

}  // namespace
}  // namespace perfsight::json
