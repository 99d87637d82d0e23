// Property/fuzz battery for the wire codec (perfsight/wire.h).
//
// The damage contract under test: decoding arbitrary bytes never crashes
// and never yields a silently wrong record.  Whatever decode_batch returns
// is always a verified prefix of what was encoded; everything lost is
// reported through DecodeStats and, via reconcile(), surfaces as kMissing
// blind spots rather than a silently shrunken batch.  All randomness comes
// from seeded Pcg32 draws — every run is bit-reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "perfsight/agent.h"
#include "perfsight/wire.h"

namespace perfsight {
namespace {

std::string random_name(Pcg32& rng, size_t max_len) {
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789/_-.";
  std::string s;
  size_t len = rng.next_below(static_cast<uint32_t>(max_len)) + 1;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
  }
  return s;
}

QueryResponse random_response(Pcg32& rng) {
  QueryResponse r;
  r.record.timestamp = SimTime::nanos(static_cast<int64_t>(rng.next_u32()) *
                                      static_cast<int64_t>(rng.next_u32() % 7));
  r.record.element = ElementId{random_name(rng, 24)};
  size_t attrs = rng.next_below(8);
  for (size_t i = 0; i < attrs; ++i) {
    double v = rng.uniform(-1e12, 1e12);
    if (rng.next_below(10) == 0) v = 0.0;
    r.record.attrs.push_back({random_name(rng, 16), v});
  }
  r.response_time = Duration::nanos(rng.next_below(1u << 30));
  switch (rng.next_below(4)) {
    case 0: r.quality = DataQuality::kFresh; break;
    case 1: r.quality = DataQuality::kStale; break;
    case 2: r.quality = DataQuality::kTorn; break;
    default: r.quality = DataQuality::kMissing; break;
  }
  r.attempts = rng.next_below(5);
  r.fail_code = r.quality == DataQuality::kMissing
                    ? StatusCode::kUnavailable
                    : StatusCode::kOk;
  return r;
}

BatchResponse random_batch(Pcg32& rng, size_t max_frames) {
  BatchResponse b;
  size_t n = rng.next_below(static_cast<uint32_t>(max_frames) + 1);
  for (size_t i = 0; i < n; ++i) b.responses.push_back(random_response(rng));
  b.channel_time = Duration::nanos(rng.next_below(1u << 28));
  b.unknown_ids = rng.next_below(4);
  return b;
}

// Canonical byte form of one response — the equality yardstick everywhere
// below (covers every field the codec carries, including NaN-free floats).
// Every response built in this file is encodable, so .value() is safe.
std::string canon(const QueryResponse& r) {
  return wire::encode_frame(r).value();
}

TEST(WireCodecTest, RoundTripIdentity) {
  Pcg32 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    BatchResponse b = random_batch(rng, 12);
    std::string bytes = wire::encode_batch(b).value();

    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(bytes, &st);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_TRUE(st.complete());
    EXPECT_EQ(st.frames_expected, b.responses.size());
    EXPECT_EQ(st.frames_ok, b.responses.size());

    const BatchResponse& d = got.value();
    ASSERT_EQ(d.responses.size(), b.responses.size());
    for (size_t i = 0; i < b.responses.size(); ++i) {
      EXPECT_EQ(canon(d.responses[i]), canon(b.responses[i]));
    }
    EXPECT_EQ(d.channel_time.ns(), b.channel_time.ns());
    EXPECT_EQ(d.unknown_ids, b.unknown_ids);
    // Re-encoding the decoded batch reproduces the original bytes exactly.
    EXPECT_EQ(wire::encode_batch(d).value(), bytes);
  }
}

TEST(WireCodecTest, EmptyBatchRoundTrips) {
  BatchResponse b;
  b.channel_time = Duration::micros(7);
  std::string bytes = wire::encode_batch(b).value();
  wire::DecodeStats st;
  Result<BatchResponse> got = wire::decode_batch(bytes, &st);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(st.complete());
  EXPECT_TRUE(got.value().responses.empty());
  EXPECT_EQ(got.value().channel_time.ns(), b.channel_time.ns());
}

TEST(WireCodecTest, TruncationIsDetected) {
  Pcg32 rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    BatchResponse b = random_batch(rng, 6);
    std::string bytes = wire::encode_batch(b).value();
    if (bytes.size() < 2) continue;
    // Every strict prefix: never crash, never fabricate a record.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      wire::DecodeStats st;
      Result<BatchResponse> got =
          wire::decode_batch(std::string_view(bytes.data(), cut), &st);
      if (!got.ok()) continue;  // header didn't survive — fine.
      ASSERT_LE(got.value().responses.size(), b.responses.size());
      for (size_t i = 0; i < got.value().responses.size(); ++i) {
        EXPECT_EQ(canon(got.value().responses[i]), canon(b.responses[i]))
            << "cut=" << cut << ": decoded frame " << i
            << " is not the original — silent corruption";
      }
      if (got.value().responses.size() < b.responses.size()) {
        EXPECT_TRUE(st.truncated || st.corrupt)
            << "cut=" << cut << " lost frames without flagging damage";
        EXPECT_FALSE(st.complete());
      }
    }
  }
}

TEST(WireCodecTest, BitFlipNeverYieldsWrongRecord) {
  Pcg32 rng(4242);
  int damaged_detected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    BatchResponse b = random_batch(rng, 8);
    std::string bytes = wire::encode_batch(b).value();
    if (bytes.empty()) continue;
    std::string mutated = bytes;
    size_t pos = rng.next_below(static_cast<uint32_t>(mutated.size()));
    mutated[pos] = static_cast<char>(
        static_cast<unsigned char>(mutated[pos]) ^
        (1u << rng.next_below(8)));

    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(mutated, &st);
    if (!got.ok()) {
      ++damaged_detected;  // header damage is a hard error — acceptable.
      continue;
    }
    // Every returned record must be byte-identical to the corresponding
    // original: a flipped bit may shrink the batch, never rewrite it.
    // (A flip in the header's aux fields can legally alter channel_time /
    // unknown_ids — those are not checksummed records — but frames are.)
    ASSERT_LE(got.value().responses.size(), b.responses.size());
    for (size_t i = 0; i < got.value().responses.size(); ++i) {
      EXPECT_EQ(canon(got.value().responses[i]), canon(b.responses[i]))
          << "trial " << trial << ": bit flip at byte " << pos
          << " produced a silently wrong record";
    }
    if (got.value().responses.size() < b.responses.size()) {
      EXPECT_TRUE(st.truncated || st.corrupt);
      ++damaged_detected;
    }
  }
  // The fuzz loop must actually exercise the damage paths.
  EXPECT_GT(damaged_detected, 50);
}

TEST(WireCodecTest, GarbageDecodesSafely) {
  Pcg32 rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string junk;
    size_t len = rng.next_below(256);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.next_below(256)));
    }
    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(junk, &st);
    if (got.ok()) {
      // Random bytes that pass the magic check can only yield frames whose
      // checksums verify — astronomically unlikely, but structurally legal.
      EXPECT_TRUE(st.frames_ok == got.value().responses.size());
    }
    // And the single-frame entry point.
    size_t consumed = 0;
    (void)wire::decode_frame(junk, &consumed);
    EXPECT_LE(consumed, junk.size());
  }
}

TEST(WireCodecTest, DecodeFrameRejectsEveryTruncation) {
  Pcg32 rng(11);
  QueryResponse r = random_response(rng);
  std::string frame = wire::encode_frame(r).value();
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    size_t consumed = 0;
    Result<QueryResponse> got =
        wire::decode_frame(std::string_view(frame.data(), cut), &consumed);
    EXPECT_FALSE(got.ok()) << "truncated frame (cut=" << cut << ") decoded";
  }
  size_t consumed = 0;
  Result<QueryResponse> got = wire::decode_frame(frame, &consumed);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(canon(got.value()), canon(r));
}

TEST(WireCodecTest, ReconcileMapsDamageToMissing) {
  // Build a batch for three known ids, truncate after the first frame, and
  // check the lost ids come back as kMissing with the failure metadata the
  // sequential path would synthesize.
  std::vector<ElementId> ids = {ElementId{"el-a"}, ElementId{"el-b"},
                                ElementId{"el-c"}};
  BatchResponse b;
  for (const ElementId& id : ids) {
    QueryResponse r;
    r.record.element = id;
    r.record.timestamp = SimTime::micros(5);
    r.record.attrs = {{"rxPkts", 42.0}};
    r.response_time = Duration::micros(3);
    b.responses.push_back(r);
  }
  b.channel_time = Duration::micros(9);

  std::string bytes = wire::encode_batch(b).value();
  // Find the end of frame 1: header is fixed-size, then len-prefixed frames.
  size_t header_size = wire::encode_batch(BatchResponse{}).value().size();
  uint32_t payload_len;
  std::memcpy(&payload_len, bytes.data() + header_size, sizeof(payload_len));
  size_t first_frame_end =
      header_size + sizeof(uint32_t) + sizeof(uint64_t) + payload_len;
  ASSERT_LT(first_frame_end, bytes.size());

  wire::DecodeStats st;
  Result<BatchResponse> got = wire::decode_batch(
      std::string_view(bytes.data(), first_frame_end), &st);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().responses.size(), 1u);
  EXPECT_TRUE(st.truncated);
  EXPECT_FALSE(st.complete());

  BatchResponse healed =
      wire::reconcile(ids, got.value(), SimTime::micros(5));
  ASSERT_EQ(healed.responses.size(), ids.size());
  EXPECT_EQ(canon(healed.responses[0]), canon(b.responses[0]));
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(healed.responses[i].record.element, ids[i]);
    EXPECT_EQ(healed.responses[i].quality, DataQuality::kMissing);
    EXPECT_EQ(healed.responses[i].fail_code, StatusCode::kUnavailable);
    EXPECT_EQ(healed.responses[i].attempts, 1u);
  }
  EXPECT_EQ(healed.degraded, ids.size() - 1);
  EXPECT_EQ(healed.channel_time.ns(), got.value().channel_time.ns());
}

// Regression (silent-truncation bugfix): encode used to clamp names >64 KiB
// and attr lists >65535 to fit the u16 prefixes — the frame checksummed fine
// but decoded to a record different from what was encoded.  The contract is
// now round-trip identity or an explicit error, never a shrunken record.
TEST(WireCodecTest, OversizeInputIsRejectedNotClamped) {
  // Element name one past the u16 limit.
  {
    QueryResponse r;
    r.record.element = ElementId{std::string(0x10000, 'n')};
    Result<std::string> frame = wire::encode_frame(r);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  }
  // Attr name past the limit.
  {
    QueryResponse r;
    r.record.element = ElementId{"el"};
    r.record.attrs.push_back({std::string(0x10000, 'a'), 1.0});
    ASSERT_FALSE(wire::encode_frame(r).ok());
  }
  // More attrs than the u16 count can carry.
  {
    QueryResponse r;
    r.record.element = ElementId{"el"};
    r.record.attrs.resize(0x10000, {"a", 1.0});
    ASSERT_FALSE(wire::encode_frame(r).ok());
  }
  // A batch containing one unencodable frame fails whole — never a batch
  // with a silently dropped or shrunken member.
  {
    BatchResponse b;
    QueryResponse ok_r;
    ok_r.record.element = ElementId{"fine"};
    QueryResponse bad;
    bad.record.element = ElementId{std::string(0x10000, 'x')};
    b.responses.push_back(ok_r);
    b.responses.push_back(bad);
    ASSERT_FALSE(wire::encode_batch(b).ok());
  }
  // At the boundary (exactly 0xffff), encode succeeds and round-trips
  // byte-identical.
  {
    QueryResponse r;
    r.record.element = ElementId{std::string(0xffff, 'b')};
    Result<std::string> frame = wire::encode_frame(r);
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    size_t consumed = 0;
    Result<QueryResponse> back = wire::decode_frame(frame.value(), &consumed);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(consumed, frame.value().size());
    EXPECT_EQ(back.value().record.element.name.size(), 0xffffu);
    EXPECT_EQ(canon(back.value()), frame.value());
  }
}

// Regression (unsigned-underflow bugfix): the primitive reads computed
// `bytes.size() - at` unsigned, so a caller that over-advanced `at` — the
// streaming transport's length-chain reader is exactly such a caller — saw a
// wrapped-around huge remainder instead of a refusal.  The length-chain
// readers now go through the prefix parsers, which must refuse short inputs,
// offsets past the end and lengths past kMaxPayload without reading out of
// bounds.
TEST(WireCodecTest, PrimitiveReadsGuardOffsetPastEnd) {
  const std::string frame = wire::encode_frame(QueryResponse{}).value();
  const std::string message =
      wire::encode_message(wire::MessageKind::kError, "body");
  const std::string batch = wire::encode_batch(BatchResponse{}).value();

  // Short inputs: every strict prefix of each header is refused.
  for (size_t cut = 0; cut < wire::kFramePrefixSize; ++cut) {
    EXPECT_FALSE(wire::parse_frame_prefix(frame.substr(0, cut)).ok());
  }
  for (size_t cut = 0; cut < wire::kMessagePrefixSize; ++cut) {
    EXPECT_FALSE(wire::parse_message_prefix(message.substr(0, cut)).ok());
  }
  wire::DecodeStats header;
  for (size_t cut = 0; cut < wire::kBatchHeaderSize; ++cut) {
    EXPECT_FALSE(wire::parse_batch_header(batch.substr(0, cut), &header).ok());
  }

  // Over-advanced offsets, including ones whose `size() - at` would wrap.
  for (const std::string& bytes : {frame, message}) {
    const size_t offsets[] = {bytes.size() + 1, bytes.size() + 1000,
                              static_cast<size_t>(-1), bytes.size(),
                              bytes.size() - 1};
    for (size_t at : offsets) {
      EXPECT_FALSE(wire::parse_frame_prefix(bytes, at).ok()) << "at=" << at;
      EXPECT_FALSE(wire::parse_message_prefix(bytes, at).ok()) << "at=" << at;
    }
  }

  // In-range offsets still parse: the same prefix behind a junk lead-in.
  Result<wire::Prefix> at_head = wire::parse_frame_prefix(frame);
  ASSERT_TRUE(at_head.ok());
  EXPECT_EQ(at_head.value().body_len, frame.size() - wire::kFramePrefixSize);
  Result<wire::Prefix> shifted = wire::parse_frame_prefix("xyz" + frame, 3);
  ASSERT_TRUE(shifted.ok());
  EXPECT_EQ(shifted.value().body_len, at_head.value().body_len);
  EXPECT_EQ(shifted.value().checksum, at_head.value().checksum);
  Result<wire::Prefix> msg = wire::parse_message_prefix("ab" + message, 2);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().kind, wire::MessageKind::kError);
  EXPECT_EQ(msg.value().body_len, 4u);

  // Lengths past kMaxPayload are refused however many bytes follow.
  for (uint32_t len : {wire::kMaxPayload + 1, 0xffffffffu}) {
    std::string f = frame;
    std::memcpy(f.data(), &len, sizeof(len));
    EXPECT_FALSE(wire::parse_frame_prefix(f).ok()) << len;
    std::string m = message;
    std::memcpy(m.data() + 5, &len, sizeof(len));
    EXPECT_FALSE(wire::parse_message_prefix(m).ok()) << len;
  }

  // Fuzz the decoder with frames whose length prefixes point past the end
  // in every combination the guard must absorb.
  Pcg32 rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk;
    size_t len = wire::kFramePrefixSize + rng.next_below(64);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.next_below(256)));
    }
    // Force a huge payload_len some of the time.
    if (trial % 3 == 0) {
      uint32_t huge = 0xffffff00u + rng.next_below(256);
      std::memcpy(junk.data(), &huge, sizeof(huge));
    }
    size_t consumed = 0;
    Result<QueryResponse> got = wire::decode_frame(junk, &consumed);
    if (got.ok()) {
      EXPECT_LE(consumed, junk.size());
    }
  }
}

// The PSM2 control-message envelope: round trip + damage refusal for every
// message the transport speaks.
TEST(WireMessageTest, ControlMessagesRoundTrip) {
  wire::HelloMsg hello{987654321,
                       {{"agent-7", {ElementId{"a"}, ElementId{"b/c"}}}}};
  std::string m = wire::encode_message(wire::MessageKind::kHello,
                                       wire::encode_hello(hello));
  size_t consumed = 0;
  Result<wire::Message> got = wire::decode_message(m, &consumed);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(consumed, m.size());
  EXPECT_EQ(got.value().kind, wire::MessageKind::kHello);
  Result<wire::HelloMsg> h = wire::decode_hello(got.value().body);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h.value().roster.size(), 1u);
  EXPECT_EQ(h.value().roster[0].name, "agent-7");
  ASSERT_EQ(h.value().roster[0].elements.size(), 2u);
  EXPECT_EQ(h.value().roster[0].elements[1].name, "b/c");
  EXPECT_EQ(h.value().clock_ns, 987654321);

  wire::BatchRequestMsg req{SimTime::millis(12),
                            {ElementId{"x"}, ElementId{"y"}},
                            /*trace_id=*/0xdeadbeefcafef00dULL,
                            /*parent_span=*/42, /*agent=*/"agent-7"};
  Result<wire::BatchRequestMsg> r = wire::decode_batch_request(
      wire::encode_batch_request(req));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().now.ns(), SimTime::millis(12).ns());
  ASSERT_EQ(r.value().ids.size(), 2u);
  EXPECT_EQ(r.value().trace_id, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.value().parent_span, 42u);
  EXPECT_EQ(r.value().agent, "agent-7");

  // Damage: every strict prefix of the envelope is refused, and a body bit
  // flip fails the checksum.
  for (size_t cut = 0; cut < m.size(); ++cut) {
    EXPECT_FALSE(wire::decode_message(std::string_view(m.data(), cut)).ok());
  }
  std::string flipped = m;
  flipped.back() = static_cast<char>(flipped.back() ^ 1);
  EXPECT_FALSE(wire::decode_message(flipped).ok());
}

// A fleet hello: the roster round-trips, names and element sets, and a
// routed batch request carries its agent name.
TEST(WireMessageTest, FleetRosterAndRoutingRoundTrip) {
  wire::HelloMsg fleet;
  fleet.clock_ns = 1234;
  fleet.roster.push_back({"first", {ElementId{"p/0"}, ElementId{"p/1"}}});
  fleet.roster.push_back({"second", {ElementId{"s/0"}}});
  fleet.roster.push_back({"third", {}});
  Result<wire::HelloMsg> fd = wire::decode_hello(wire::encode_hello(fleet));
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd.value().clock_ns, 1234);
  ASSERT_EQ(fd.value().roster.size(), 3u);
  EXPECT_EQ(fd.value().roster[0].name, "first");
  EXPECT_EQ(fd.value().roster[0].elements.size(), 2u);
  EXPECT_EQ(fd.value().roster[1].name, "second");
  ASSERT_EQ(fd.value().roster[1].elements.size(), 1u);
  EXPECT_EQ(fd.value().roster[1].elements[0].name, "s/0");
  EXPECT_TRUE(fd.value().roster[2].elements.empty());

  // Every strict prefix of the hello is damage, never a shorter roster.
  const std::string bytes = wire::encode_hello(fleet);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(wire::decode_hello(bytes.substr(0, cut)).ok()) << cut;
  }

  // Routed batch request: the agent name rides behind the trace context.
  wire::BatchRequestMsg routed{SimTime::millis(5),
                               {ElementId{"x"}},
                               /*trace_id=*/1,
                               /*parent_span=*/2,
                               /*agent=*/"second"};
  Result<wire::BatchRequestMsg> rd =
      wire::decode_batch_request(wire::encode_batch_request(routed));
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd.value().agent, "second");
  // Trailing garbage after the agent field is damage, not ignored.
  EXPECT_FALSE(
      wire::decode_batch_request(wire::encode_batch_request(routed) + "!")
          .ok());
}

// Little-endian field writers for hand-built bodies.
template <typename T>
void put_le(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}
void put_str(std::string* out, const std::string& s) {
  put_le<uint16_t>(out, static_cast<uint16_t>(s.size()));
  *out += s;
}

// The layouts the handshake and requests had before every request named
// its agent decode to a refusal, never to a misread message: the hello
// that led with one agent's name and ids, a hello followed by an 8-byte
// epoch, a batch request without an agent name, and a subscribe naming "".
TEST(WireMessageTest, PreRosterEpochAndNamelessFormsAreRefused) {
  // u16-str agent | u32 count | u16-str* | i64 clock
  std::string pre_roster;
  put_str(&pre_roster, "agent-7");
  put_le<uint32_t>(&pre_roster, 2);
  put_str(&pre_roster, "a");
  put_str(&pre_roster, "b/c");
  put_le<int64_t>(&pre_roster, 987654321);
  Result<wire::HelloMsg> h = wire::decode_hello(pre_roster);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);

  wire::HelloMsg hello{5, {{"solo", {ElementId{"a"}}}}};
  std::string with_epoch = wire::encode_hello(hello);
  put_le<uint64_t>(&with_epoch, 0x0123456789abcdefULL);
  EXPECT_FALSE(wire::decode_hello(with_epoch).ok());

  // An empty roster is refused too.
  std::string no_agents;
  put_le<int64_t>(&no_agents, 5);
  put_le<uint32_t>(&no_agents, 0);
  EXPECT_FALSE(wire::decode_hello(no_agents).ok());

  // i64 now | u32 count | u16-str* | u64 trace | u64 parent: no agent.
  std::string nameless;
  put_le<int64_t>(&nameless, SimTime::millis(12).ns());
  put_le<uint32_t>(&nameless, 1);
  put_str(&nameless, "x");
  put_le<uint64_t>(&nameless, 0);
  put_le<uint64_t>(&nameless, 0);
  EXPECT_FALSE(wire::decode_batch_request(nameless).ok());
  EXPECT_FALSE(wire::decode_batch_request(wire::encode_batch_request(
                   {SimTime::millis(12), {ElementId{"x"}}, 0, 0, ""}))
                   .ok());

  EXPECT_FALSE(wire::decode_subscribe(wire::encode_subscribe({"", 1, 2})).ok());
}

// Harvested trace rings cross the wire losslessly — span links, durations,
// value bits and both strings — and the decoder refuses structural damage.
TEST(WireMessageTest, TraceDataRoundTripsAndRefusesDamage) {
  wire::TraceDataMsg td;
  td.process = "agent-7";
  TraceEvent point;
  point.t = SimTime::micros(5);
  point.kind = TraceEventKind::kDrop;
  point.value = 3.5;
  point.element = "mbox0";
  point.detail = "tail drop";
  td.events.push_back(point);
  TraceEvent span;
  span.t = SimTime::micros(9);
  span.kind = TraceEventKind::kSpanServerBatch;
  span.value = 64;
  span.element = "agent-7/serve";
  span.detail = "batch";
  span.span_id = (uint64_t(0x00a7) << 48) | 17;
  span.parent_span = 3;
  span.dur = Duration::micros(250);
  td.events.push_back(span);

  const std::string body = wire::encode_trace_data(td);
  Result<wire::TraceDataMsg> got = wire::decode_trace_data(body);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().process, "agent-7");
  ASSERT_EQ(got.value().events.size(), 2u);
  const TraceEvent& p = got.value().events[0];
  EXPECT_EQ(p.t.ns(), SimTime::micros(5).ns());
  EXPECT_EQ(p.kind, TraceEventKind::kDrop);
  EXPECT_EQ(p.value, 3.5);
  EXPECT_EQ(p.element, "mbox0");
  EXPECT_EQ(p.detail, "tail drop");
  EXPECT_FALSE(p.is_span());
  const TraceEvent& s = got.value().events[1];
  EXPECT_EQ(s.span_id, span.span_id);
  EXPECT_EQ(s.parent_span, 3u);
  EXPECT_EQ(s.dur.ns(), Duration::micros(250).ns());
  EXPECT_TRUE(s.is_span());

  // An empty harvest is legal (nothing recorded since the last drain).
  wire::TraceDataMsg empty;
  empty.process = "agent-7";
  Result<wire::TraceDataMsg> e =
      wire::decode_trace_data(wire::encode_trace_data(empty));
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.value().events.empty());

  // Damage: every strict prefix is refused, trailing bytes are refused, an
  // out-of-range event kind is refused, and a corrupted event count cannot
  // force a huge reserve.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(
        wire::decode_trace_data(std::string_view(body.data(), cut)).ok());
  }
  EXPECT_FALSE(wire::decode_trace_data(body + "x").ok());
  std::string bad_kind = body;
  // kind byte of event 0 sits after process string + u32 count + i64 t.
  const size_t kind_at = 2 + td.process.size() + 4 + 8;
  bad_kind[kind_at] = static_cast<char>(0xee);
  EXPECT_FALSE(wire::decode_trace_data(bad_kind).ok());
  std::string bad_count = body;
  const uint32_t huge = 0xfffffff0u;
  std::memcpy(bad_count.data() + 2 + td.process.size(), &huge, sizeof(huge));
  EXPECT_FALSE(wire::decode_trace_data(bad_count).ok());

  // And the envelope accepts the two new kinds.
  for (wire::MessageKind k : {wire::MessageKind::kTraceHarvest,
                              wire::MessageKind::kTraceData}) {
    Result<wire::Message> menv =
        wire::decode_message(wire::encode_message(k, body));
    ASSERT_TRUE(menv.ok());
    EXPECT_EQ(menv.value().kind, k);
  }
}

TEST(WireCodecTest, ChecksumIsPinned) {
  // Pin the check so the wire format can't silently change.
  EXPECT_EQ(wire::checksum(""), 0x75a6bd0a0f9ca20cULL);
  EXPECT_EQ(wire::checksum("a"), 0x7b0af73eafc91c52ULL);
  EXPECT_EQ(wire::checksum("foobar"), 0xadb8a82e903b1aadULL);
  EXPECT_EQ(wire::checksum("0123456789abcdefg"), 0x7445ebf0a930cf00ULL);
  EXPECT_EQ(wire::kMagic, 0x32425350u);
  // FNV-1a stays the fault plan's decision key and the goldens' digest:
  // standard test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

// Each step of the check is a bijection of its state, so changing any one
// byte (hence one word) of the input always changes the result.
TEST(WireCodecTest, ChecksumCatchesEverySingleBitFlip) {
  Pcg32 rng(31);
  for (size_t len = 1; len <= 40; ++len) {
    std::string bytes;
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.next_below(256)));
    }
    const uint64_t want = wire::checksum(bytes);
    for (size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string f = bytes;
        f[i] = static_cast<char>(f[i] ^ (1 << bit));
        EXPECT_NE(wire::checksum(f), want) << "len=" << len << " byte " << i;
      }
    }
  }
}

// --- PSB2 schema table -------------------------------------------------------

// A batch whose records draw their attr names from `kinds` distinct lists,
// interleaved at random, the way an agent's id-sorted batch mixes element
// kinds.
BatchResponse multi_schema_batch(Pcg32& rng, size_t kinds, size_t frames) {
  std::vector<std::vector<std::string>> lists(kinds);
  for (auto& names : lists) {
    const size_t n = rng.next_below(7);
    for (size_t i = 0; i < n; ++i) names.push_back(random_name(rng, 12));
  }
  BatchResponse b;
  for (size_t f = 0; f < frames; ++f) {
    QueryResponse r = random_response(rng);
    r.record.attrs.clear();
    for (const std::string& name : lists[rng.next_below(
             static_cast<uint32_t>(kinds))]) {
      r.record.attrs.push_back({name, rng.uniform(-1e9, 1e9)});
    }
    b.responses.push_back(std::move(r));
  }
  b.channel_time = Duration::nanos(rng.next_below(1u << 28));
  b.unknown_ids = rng.next_below(4);
  return b;
}

// Byte offsets of each frame of a well-formed batch.
std::vector<size_t> frame_offsets(const std::string& batch) {
  std::vector<size_t> at;
  wire::DecodeStats st;
  EXPECT_TRUE(wire::parse_batch_header(batch, &st).ok());
  size_t pos = wire::kBatchHeaderSize;
  for (size_t i = 0; i < st.frames_expected; ++i) {
    at.push_back(pos);
    pos += wire::kFramePrefixSize +
           wire::parse_frame_prefix(batch, pos).value().body_len;
  }
  return at;
}

TEST(WireSchemaTest, RandomMultiSchemaBatchesRoundTrip) {
  Pcg32 rng(2325);
  size_t elided = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t kinds = 1 + rng.next_below(6);
    const BatchResponse b = multi_schema_batch(rng, kinds, rng.next_below(24));
    const std::string bytes = wire::encode_batch(b).value();

    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(bytes, &st);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_TRUE(st.complete()) << st.damage;
    EXPECT_TRUE(st.damage.empty());
    ASSERT_EQ(got.value().responses.size(), b.responses.size());
    for (size_t i = 0; i < b.responses.size(); ++i) {
      EXPECT_EQ(canon(got.value().responses[i]), canon(b.responses[i]))
          << "trial " << trial << " frame " << i;
    }
    EXPECT_EQ(got.value().channel_time.ns(), b.channel_time.ns());
    EXPECT_EQ(got.value().unknown_ids, b.unknown_ids);
    EXPECT_EQ(wire::encode_batch(got.value()).value(), bytes);

    // Every frame after the first of its kind drops its names.
    size_t standalone = wire::kBatchHeaderSize;
    for (const QueryResponse& r : b.responses) standalone += canon(r).size();
    EXPECT_LE(bytes.size(), standalone);
    if (bytes.size() < standalone) ++elided;
  }
  EXPECT_GT(elided, 200u);
}

TEST(WireSchemaTest, EveryFlipAndCutOfAMultiSchemaBatchIsAPrefixOrRefusal) {
  Pcg32 rng(77);
  const BatchResponse b = multi_schema_batch(rng, 3, 9);
  const std::string bytes = wire::encode_batch(b).value();
  auto check_prefix = [&](const std::string& input, const std::string& what) {
    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(input, &st);
    if (!got.ok()) return;  // header damage is a hard error
    const std::vector<QueryResponse>& rs = got.value().responses;
    ASSERT_LE(rs.size(), b.responses.size()) << what;
    for (size_t i = 0; i < rs.size(); ++i) {
      ASSERT_EQ(canon(rs[i]), canon(b.responses[i]))
          << what << ": frame " << i << " decoded to a different record";
    }
    // A flipped frame count in the (unchecked) header shows as a short
    // count with trailing bytes; every other loss names its damage.
    if (rs.size() < b.responses.size()) {
      EXPECT_FALSE(st.complete()) << what;
    }
    EXPECT_EQ(st.truncated || st.corrupt, !st.damage.empty()) << what;
  };
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    check_prefix(bytes.substr(0, cut), "cut " + std::to_string(cut));
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string f = bytes;
      f[i] = static_cast<char>(f[i] ^ (1 << bit));
      check_prefix(f, "flip byte " + std::to_string(i) + " bit " +
                          std::to_string(bit));
    }
  }
}

// A 15-bit index names the first 32768 table entries.  Later lists still
// join the table but cannot be named, so their repeats carry names again.
TEST(WireSchemaTest, ListsPastTheIndexRangeKeepCarryingNames) {
  BatchResponse b;
  for (size_t i = 0; i <= wire::kMaxAttrs + 1; ++i) {
    QueryResponse r;
    r.record.element = ElementId{"e"};
    r.record.attrs = {{"a" + std::to_string(i), 1.0}};
    b.responses.push_back(std::move(r));
  }
  const QueryResponse first = b.responses.front();
  const QueryResponse last = b.responses.back();
  b.responses.push_back(first);
  b.responses.push_back(last);
  const std::string bytes = wire::encode_batch(b).value();

  const std::vector<size_t> at = frame_offsets(bytes);
  const size_t n = at.size();
  ASSERT_EQ(n, b.responses.size());
  // The repeat of entry 0 carries its value alone; the repeat of the
  // unnamed entry is as long as its standalone frame.
  EXPECT_EQ(at[n - 1] - at[n - 2], canon(first).size() - 2 - 2);
  EXPECT_EQ(bytes.size() - at[n - 1], canon(last).size());

  wire::DecodeStats st;
  Result<BatchResponse> got = wire::decode_batch(bytes, &st);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(st.complete()) << st.damage;
  EXPECT_EQ(canon(got.value().responses[n - 2]), canon(first));
  EXPECT_EQ(canon(got.value().responses[n - 1]), canon(last));
  EXPECT_EQ(wire::encode_batch(got.value()).value(), bytes);
}

// A batch that passes every checksum but misuses the schema table, as only
// a faulty encoder could write it: frame `k`'s attr field is replaced and
// its checksum recomputed.
std::string with_attr_field(std::string batch, size_t k, uint16_t field) {
  const size_t frame = frame_offsets(batch)[k];
  const size_t payload = frame + wire::kFramePrefixSize;
  // The element name's length follows the record header's 22 fixed bytes;
  // the attr field follows the name.
  uint16_t element_len = 0;
  std::memcpy(&element_len, batch.data() + payload + 22, 2);
  std::memcpy(batch.data() + payload + 24 + element_len, &field, 2);
  uint32_t len = 0;
  std::memcpy(&len, batch.data() + frame, 4);
  const uint64_t check =
      wire::checksum(std::string_view(batch).substr(payload, len));
  std::memcpy(batch.data() + frame + 4, &check, 8);
  return batch;
}

TEST(WireSchemaTest, SchemaMisuseIsRefusedByName) {
  const auto response = [](const std::string& element,
                           std::vector<Attr> attrs) {
    QueryResponse r;
    r.record.element = ElementId{element};
    r.record.attrs = std::move(attrs);
    return r;
  };
  BatchResponse b;
  b.responses = {response("a", {{"rx", 1}, {"tx", 2}}),
                 response("b", {{"drop", 3}}),
                 response("c", {{"rx", 4}, {"tx", 5}})};
  const std::string bytes = wire::encode_batch(b).value();
  ASSERT_EQ(bytes.size(), wire::kBatchHeaderSize + canon(b.responses[0]).size() +
                              canon(b.responses[1]).size() +
                              canon(b.responses[2]).size() - 2 * (2 + 2));

  auto damage_of = [](const std::string& input, size_t* ok) {
    wire::DecodeStats st;
    Result<BatchResponse> got = wire::decode_batch(input, &st);
    EXPECT_TRUE(got.ok());
    EXPECT_TRUE(st.corrupt);
    *ok = got.value().responses.size();
    return st.damage;
  };
  size_t ok = 0;
  // Frame c names entry 2; only entries 0 (a) and 1 (b) exist.
  EXPECT_EQ(damage_of(with_attr_field(bytes, 2, 0x8002), &ok),
            "wire frame names an undefined batch schema");
  EXPECT_EQ(ok, 2u);
  // Frame c names entry 1, b's single name, but carries two values.
  EXPECT_EQ(damage_of(with_attr_field(bytes, 2, 0x8001), &ok),
            "wire frame value count differs from its batch schema");
  EXPECT_EQ(ok, 2u);
  // A reference cannot name the entry its own frame would define.
  EXPECT_EQ(damage_of(with_attr_field(bytes, 0, 0x8000), &ok),
            "wire frame names an undefined batch schema");
  EXPECT_EQ(ok, 0u);

  // Taken out of its batch, a referring frame cannot be resolved.
  const size_t c = frame_offsets(bytes)[2];
  size_t consumed = 0;
  Result<QueryResponse> alone =
      wire::decode_frame(std::string_view(bytes).substr(c), &consumed);
  ASSERT_FALSE(alone.ok());
  EXPECT_EQ(alone.status().message(),
            "wire frame refers to a batch schema outside a batch");
  EXPECT_EQ(consumed, 0u);
}

// --- kSubscribe / kStreamData codec ------------------------------------------

wire::StreamDataMsg random_stream_frame(Pcg32& rng, uint64_t seq) {
  wire::StreamDataMsg m;
  m.agent = random_name(rng, 12);
  m.seq = seq;
  m.window_start = SimTime::nanos(static_cast<int64_t>(rng.next_u32()) * 100);
  m.channel_time = Duration::nanos(rng.next_below(1u << 26));
  size_t n = rng.next_below(6);
  for (size_t i = 0; i < n; ++i) m.responses.push_back(random_response(rng));
  // A stream frame ascends by element id (the decoder refuses one that
  // descends).
  std::stable_sort(m.responses.begin(), m.responses.end(),
                   [](const QueryResponse& a, const QueryResponse& b) {
                     return a.record.element < b.record.element;
                   });
  return m;
}

// The next window of the same stream: same elements, counters advanced by
// small integral deltas — the shape the delta coder is built for.
wire::StreamDataMsg next_window(Pcg32& rng, const wire::StreamDataMsg& prev) {
  wire::StreamDataMsg m = prev;
  m.seq = prev.seq + 1;
  m.window_start = prev.window_start + Duration::millis(100);
  for (QueryResponse& r : m.responses) {
    r.record.timestamp = m.window_start;
    for (Attr& a : r.record.attrs) {
      a.value += static_cast<double>(rng.next_below(100000));
    }
  }
  return m;
}

// Canonical byte form of one stream frame: its all-absolute encoding.  Two
// frames are equal iff their snapshots are byte-equal — covers agent, seq,
// window, channel time, and every record bit.
std::string canon_stream(const wire::StreamDataMsg& m) {
  return wire::encode_stream_data(m, nullptr).value();
}

TEST(StreamCodecTest, SubscribeRoundTrips) {
  Pcg32 rng(808);
  for (int trial = 0; trial < 50; ++trial) {
    wire::SubscribeMsg s;
    s.agent = trial % 5 == 0 ? "" : random_name(rng, 20);
    s.from_seq = (static_cast<uint64_t>(rng.next_u32()) << 32) | rng.next_u32();
    s.window_ns = static_cast<int64_t>(rng.next_u32());
    Result<wire::SubscribeMsg> got =
        wire::decode_subscribe(wire::encode_subscribe(s));
    if (s.agent.empty()) {  // every subscribe names its agent
      EXPECT_FALSE(got.ok());
      continue;
    }
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().agent, s.agent);
    EXPECT_EQ(got.value().from_seq, s.from_seq);
    EXPECT_EQ(got.value().window_ns, s.window_ns);
  }
}

TEST(StreamCodecTest, RoundTripIdentitySnapshotAndDeltaChains) {
  Pcg32 rng(6060);
  for (int trial = 0; trial < 60; ++trial) {
    // Snapshot (no base) round-trips.
    wire::StreamDataMsg f1 = random_stream_frame(rng, 1);
    Result<std::string> b1 = wire::encode_stream_data(f1, nullptr);
    ASSERT_TRUE(b1.ok()) << b1.status().message();
    Result<wire::StreamDataMsg> d1 = wire::decode_stream_data(b1.value(), nullptr);
    ASSERT_TRUE(d1.ok()) << d1.status().message();
    EXPECT_EQ(canon_stream(d1.value()), canon_stream(f1));

    // A chain of delta-coded windows round-trips frame by frame, and the
    // delta form really is smaller than the snapshot form for counter-like
    // updates (that is the point of push mode).
    wire::StreamDataMsg prev = f1;
    size_t delta_bytes = 0, snapshot_bytes = 0;
    for (int k = 0; k < 4; ++k) {
      wire::StreamDataMsg cur = next_window(rng, prev);
      Result<std::string> body = wire::encode_stream_data(cur, &prev);
      ASSERT_TRUE(body.ok()) << body.status().message();
      Result<wire::StreamDataMsg> got =
          wire::decode_stream_data(body.value(), &prev);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(canon_stream(got.value()), canon_stream(cur))
          << "trial " << trial << " chain step " << k;
      delta_bytes += body.value().size();
      snapshot_bytes += canon_stream(cur).size();
      prev = cur;
    }
    if (!f1.responses.empty()) {
      EXPECT_LE(delta_bytes, snapshot_bytes);
    }
  }
}

TEST(StreamCodecTest, EveryPrefixTruncationNeverSilentlyWrong) {
  Pcg32 rng(71);
  for (int trial = 0; trial < 25; ++trial) {
    wire::StreamDataMsg f1 = random_stream_frame(rng, 1);
    wire::StreamDataMsg f2 = next_window(rng, f1);
    for (const bool delta : {false, true}) {
      const wire::StreamDataMsg* prev = delta ? &f1 : nullptr;
      const wire::StreamDataMsg& m = delta ? f2 : f1;
      std::string bytes = wire::encode_stream_data(m, prev).value();
      for (size_t cut = 0; cut < bytes.size(); ++cut) {
        Result<wire::StreamDataMsg> got = wire::decode_stream_data(
            std::string_view(bytes.data(), cut), prev);
        // A strict prefix must never decode to anything but the original
        // (and with a fixed record count in the header it should fail).
        if (got.ok()) {
          EXPECT_EQ(canon_stream(got.value()), canon_stream(m))
              << "cut=" << cut << " fabricated a frame";
        }
      }
    }
  }
}

TEST(StreamCodecTest, BitFlipOnEnvelopedFrameNeverSilentlyWrong) {
  Pcg32 rng(4343);
  int damaged_detected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    wire::StreamDataMsg f1 = random_stream_frame(rng, 1);
    wire::StreamDataMsg f2 = next_window(rng, f1);
    const bool delta = trial % 2 != 0;
    const wire::StreamDataMsg& sent = delta ? f2 : f1;
    std::string body =
        wire::encode_stream_data(sent, delta ? &f1 : nullptr).value();
    std::string msg = wire::encode_message(wire::MessageKind::kStreamData, body);
    size_t pos = rng.next_below(static_cast<uint32_t>(msg.size()));
    msg[pos] = static_cast<char>(static_cast<unsigned char>(msg[pos]) ^
                                 (1u << rng.next_below(8)));

    Result<wire::Message> env = wire::decode_message(msg);
    if (!env.ok() || env.value().kind != wire::MessageKind::kStreamData) {
      ++damaged_detected;  // checksum/framing caught it (or re-kinded it)
      continue;
    }
    Result<wire::StreamDataMsg> got =
        wire::decode_stream_data(env.value().body, delta ? &f1 : nullptr);
    if (!got.ok()) {
      ++damaged_detected;
      continue;
    }
    // The envelope checksum passed and the frame decoded: it must BE the
    // original, bit for bit.
    EXPECT_EQ(canon_stream(got.value()), canon_stream(sent))
        << "trial " << trial << ": flip at byte " << pos
        << " survived the checksum AND the frame decode";
  }
  EXPECT_GT(damaged_detected, 250);
}

TEST(StreamCodecTest, DeltaWithoutBaseIsStructuralDamage) {
  // Construct a frame guaranteed to carry delta-mode attrs (integral
  // counters advance by an exactly-representable step).
  wire::StreamDataMsg f1;
  f1.agent = "a0";
  f1.seq = 1;
  f1.window_start = SimTime::millis(100);
  QueryResponse r;
  r.record.timestamp = f1.window_start;
  r.record.element = ElementId{"m0/pnic"};
  r.record.attrs = {{"rxPkts", 12000.0}, {"dropPkts", 800.0}};
  f1.responses.push_back(r);
  wire::StreamDataMsg f2 = f1;
  f2.seq = 2;
  f2.window_start = SimTime::millis(200);
  f2.responses[0].record.timestamp = f2.window_start;
  f2.responses[0].record.attrs = {{"rxPkts", 24000.0}, {"dropPkts", 1600.0}};

  std::string delta_body = wire::encode_stream_data(f2, &f1).value();
  // With the base, the delta frame reconstructs exactly.
  Result<wire::StreamDataMsg> with_base =
      wire::decode_stream_data(delta_body, &f1);
  ASSERT_TRUE(with_base.ok());
  EXPECT_EQ(canon_stream(with_base.value()), canon_stream(f2));
  // The delta form must actually be in play for this test to mean anything.
  ASSERT_LT(delta_body.size(), canon_stream(f2).size());

  // Without the base the same bytes are structural damage, never a guess.
  Result<wire::StreamDataMsg> without_base =
      wire::decode_stream_data(delta_body, nullptr);
  ASSERT_FALSE(without_base.ok());
  EXPECT_NE(without_base.status().message().find("delta without base"),
            std::string::npos)
      << without_base.status().message();
}

TEST(StreamCodecTest, DescendingElementIdsAreRefused) {
  wire::StreamDataMsg m;
  m.agent = "a0";
  m.seq = 1;
  m.window_start = SimTime::millis(100);
  for (const char* id : {"m0/a", "m0/b", "m0/b", "m0/c"}) {
    QueryResponse r;
    r.record.timestamp = m.window_start;
    r.record.element = ElementId{id};
    r.record.attrs = {{"rxPkts", 100.0}};
    m.responses.push_back(r);
  }
  // Equal neighbours (a duplicated id) ascend.
  Result<wire::StreamDataMsg> dup =
      wire::decode_stream_data(wire::encode_stream_data(m, nullptr).value(),
                               nullptr);
  ASSERT_TRUE(dup.ok()) << dup.status().message();
  EXPECT_EQ(canon_stream(dup.value()), canon_stream(m));

  // One descent anywhere, first pair or last, snapshot or delta, is refused.
  wire::StreamDataMsg next = m;
  next.seq = 2;
  next.window_start = SimTime::millis(200);
  for (const auto& [i, j] : {std::pair<size_t, size_t>{0, 1}, {2, 3}}) {
    wire::StreamDataMsg bad = next;
    std::swap(bad.responses[i], bad.responses[j]);
    const wire::StreamDataMsg* const bases[] = {nullptr, &m};
    for (const wire::StreamDataMsg* base : bases) {
      Result<std::string> body = wire::encode_stream_data(bad, base);
      ASSERT_TRUE(body.ok()) << body.status().message();
      bool no_base = true;
      Result<wire::StreamDataMsg> got =
          wire::decode_stream_data(body.value(), base, &no_base);
      ASSERT_FALSE(got.ok()) << "swap " << i << "," << j;
      EXPECT_EQ(got.status().message(), "wire stream data element ids descend");
      EXPECT_FALSE(no_base);
    }
  }
}

// The base-lookup contract: an IdCursor answers exactly what
// std::lower_bound over the whole vector answers, for ascending, duplicated
// and shuffled vectors, looked up in ascending, repeated and random order.
TEST(StreamCodecTest, CursorAgreesWithBinarySearchOnEveryBase) {
  Pcg32 rng(41);
  const auto lower_bound_hit = [](const std::vector<QueryResponse>& rs,
                                  const ElementId& id) -> const QueryResponse* {
    auto it = std::lower_bound(rs.begin(), rs.end(), id,
                               [](const QueryResponse& r, const ElementId& w) {
                                 return r.record.element < w;
                               });
    return it != rs.end() && it->record.element == id ? &*it : nullptr;
  };
  const auto id_of = [](uint32_t i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "e%03u", i);
    return ElementId{buf};
  };
  size_t hits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<QueryResponse> rs(rng.next_u32() % 40);
    for (QueryResponse& r : rs) r.record.element = id_of(rng.next_u32() % 48);
    const uint32_t shape = rng.next_u32() % 3;  // sorted, dups kept, shuffled
    if (shape != 2) {
      std::sort(rs.begin(), rs.end(),
                [](const QueryResponse& a, const QueryResponse& b) {
                  return a.record.element < b.record.element;
                });
    }
    if (shape == 0) {
      rs.erase(std::unique(rs.begin(), rs.end(),
                           [](const QueryResponse& a, const QueryResponse& b) {
                             return a.record.element == b.record.element;
                           }),
               rs.end());
    }
    std::vector<ElementId> ids;
    for (uint32_t i = 0; i < 48; ++i) {
      if (rng.next_u32() % 2 == 0) ids.push_back(id_of(i));
    }
    if (trial % 3 == 1) ids.insert(ids.end(), ids.begin(), ids.end());
    if (trial % 3 == 2) {
      for (size_t i = ids.size(); i > 1; --i) {
        std::swap(ids[i - 1], ids[rng.next_u32() % i]);
      }
    }
    // The same ids as a plain id vector: the cursor over ids agrees too.
    std::vector<ElementId> keys;
    for (const QueryResponse& r : rs) keys.push_back(r.record.element);
    IdCursor<QueryResponse> cursor(&rs);
    IdCursor<ElementId> key_cursor(&keys);
    EXPECT_EQ(IdCursor<QueryResponse>::ascends(rs),
              shape != 2 || std::is_sorted(keys.begin(), keys.end()));
    for (const ElementId& id : ids) {
      const QueryResponse* want = lower_bound_hit(rs, id);
      ASSERT_EQ(cursor.find(id), want) << "trial " << trial << " " << id.name;
      const ElementId* key = key_cursor.find(id);
      ASSERT_EQ(key == nullptr ? -1 : key - keys.data(),
                want == nullptr ? -1 : want - rs.data());
      if (want != nullptr) ++hits;
    }
  }
  EXPECT_GT(hits, 1000u);
  IdCursor<QueryResponse> none(nullptr);
  EXPECT_EQ(none.find(id_of(1)), nullptr);
}

// --- kIntReport codec --------------------------------------------------------

wire::IntReportMsg random_int_report(Pcg32& rng) {
  wire::IntReportMsg m;
  m.agent = rng.next_below(6) == 0 ? "" : random_name(rng, 20);
  m.tag = (static_cast<uint64_t>(rng.next_u32()) << 32) | rng.next_u32();
  m.start = SimTime::nanos(static_cast<int64_t>(rng.next_u32()));
  m.end = m.start + Duration::nanos(rng.next_below(1u << 20));
  m.dropped = rng.next_below(4) == 0;
  size_t hops = rng.next_below(9);
  for (size_t i = 0; i < hops; ++i) {
    wire::IntHopWire h;
    h.element = ElementId{random_name(rng, 24)};
    h.queue_pkts = rng.next_below(1u << 16);
    h.io_time_ns = static_cast<int64_t>(rng.next_below(1u << 24));
    h.flags = (m.dropped && i + 1 == hops) ? 1 : 0;
    m.hops.push_back(h);
  }
  return m;
}

std::string canon_int(const wire::IntReportMsg& m) {
  return wire::encode_int_report(m).value();
}

TEST(IntReportCodecTest, RoundTripIdentity) {
  Pcg32 rng(2727);
  for (int trial = 0; trial < 100; ++trial) {
    wire::IntReportMsg m = random_int_report(rng);
    Result<std::string> body = wire::encode_int_report(m);
    ASSERT_TRUE(body.ok()) << body.status().message();
    Result<wire::IntReportMsg> got = wire::decode_int_report(body.value());
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().agent, m.agent);
    EXPECT_EQ(got.value().tag, m.tag);
    EXPECT_EQ(got.value().start, m.start);
    EXPECT_EQ(got.value().end, m.end);
    EXPECT_EQ(got.value().dropped, m.dropped);
    ASSERT_EQ(got.value().hops.size(), m.hops.size());
    EXPECT_EQ(canon_int(got.value()), canon_int(m)) << "trial " << trial;
  }
}

TEST(IntReportCodecTest, EveryPrefixTruncationFails) {
  Pcg32 rng(929);
  for (int trial = 0; trial < 25; ++trial) {
    wire::IntReportMsg m = random_int_report(rng);
    std::string bytes = wire::encode_int_report(m).value();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      Result<wire::IntReportMsg> got =
          wire::decode_int_report(std::string_view(bytes.data(), cut));
      // The layout is fully length-pinned (string lengths + hop count), so
      // no strict prefix can be a valid report.
      EXPECT_FALSE(got.ok()) << "trial " << trial << " cut=" << cut
                             << " decoded a truncated report";
    }
    // Trailing garbage is damage too.
    Result<wire::IntReportMsg> longer = wire::decode_int_report(bytes + "x");
    EXPECT_FALSE(longer.ok());
  }
}

TEST(IntReportCodecTest, BitFlipOnEnvelopedReportNeverSilentlyWrong) {
  Pcg32 rng(1717);
  int damaged_detected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    wire::IntReportMsg sent = random_int_report(rng);
    std::string body = wire::encode_int_report(sent).value();
    std::string msg =
        wire::encode_message(wire::MessageKind::kIntReport, body);
    size_t pos = rng.next_below(static_cast<uint32_t>(msg.size()));
    msg[pos] = static_cast<char>(static_cast<unsigned char>(msg[pos]) ^
                                 (1u << rng.next_below(8)));

    Result<wire::Message> env = wire::decode_message(msg);
    if (!env.ok() || env.value().kind != wire::MessageKind::kIntReport) {
      ++damaged_detected;
      continue;
    }
    Result<wire::IntReportMsg> got =
        wire::decode_int_report(env.value().body);
    if (!got.ok()) {
      ++damaged_detected;
      continue;
    }
    EXPECT_EQ(canon_int(got.value()), canon_int(sent))
        << "trial " << trial << ": flip at byte " << pos
        << " survived the checksum AND the report decode";
  }
  EXPECT_GT(damaged_detected, 250);
}

// The harvester prices each flight with int_report_size instead of
// encoding it, so the size function is pinned to the encoder the way
// frame_size is pinned to put_frame: the same size wherever the encoder
// accepts a report, nullopt wherever it refuses one.
void expect_size_pinned(const wire::IntReportMsg& m, const std::string& what) {
  const Result<std::string> body = wire::encode_int_report(m);
  const std::optional<size_t> size = wire::int_report_size(
      m.agent.size(), m.hops.size(),
      [&](size_t i) { return m.hops[i].element.name.size(); });
  ASSERT_EQ(size.has_value(), body.ok()) << what;
  if (body.ok()) {
    EXPECT_EQ(*size, body.value().size()) << what;
  }
}

TEST(IntReportCodecTest, SizeFunctionMatchesTheEncoder) {
  Pcg32 rng(4141);
  for (int trial = 0; trial < 300; ++trial) {
    const wire::IntReportMsg m = random_int_report(rng);
    ASSERT_TRUE(wire::encode_int_report(m).ok());
    expect_size_pinned(m, "trial " + std::to_string(trial));
  }
}

TEST(IntReportCodecTest, SizeFunctionRefusesWhatTheEncoderRefuses) {
  wire::IntReportMsg m;
  m.agent = "m0/int";
  m.hops.resize(2);
  // Each limit, at its largest accepted value and one past it.
  m.agent.assign(0xffff, 'a');
  expect_size_pinned(m, "agent name of 65535 bytes");
  m.agent.push_back('a');
  expect_size_pinned(m, "agent name of 65536 bytes");
  m.agent = "m0/int";
  m.hops[1].element.name.assign(0xffff, 'e');
  expect_size_pinned(m, "element name of 65535 bytes");
  m.hops[1].element.name.push_back('e');
  expect_size_pinned(m, "element name of 65536 bytes");
  m.hops.assign(0xffff, wire::IntHopWire{});
  expect_size_pinned(m, "65535 hops");
  m.hops.emplace_back();
  expect_size_pinned(m, "65536 hops");
  // 256 hops of 19 + 65515 bytes and a 483-byte agent name fill the body
  // to exactly kMaxPayload.
  m.hops.assign(256, wire::IntHopWire{ElementId{std::string(65515, 'e')}});
  m.agent.assign(483, 'a');
  expect_size_pinned(m, "body of exactly kMaxPayload");
  ASSERT_TRUE(wire::encode_int_report(m).ok());
  m.agent.push_back('a');
  expect_size_pinned(m, "body one byte past kMaxPayload");
  EXPECT_FALSE(wire::encode_int_report(m).ok());
}

TEST(IntReportCodecTest, ReservedFlagBitsAreStructuralDamage) {
  wire::IntReportMsg m;
  m.agent = "a0/int";
  m.tag = 7;
  m.start = SimTime::millis(100);
  m.end = SimTime::millis(101);
  wire::IntHopWire h;
  h.element = ElementId{"m0/pnic"};
  h.queue_pkts = 12;
  h.io_time_ns = 500;
  m.hops.push_back(h);
  std::string bytes = wire::encode_int_report(m).value();
  // Message flags byte sits after agent (2 + len) + tag(8) + times(16).
  const size_t msg_flags_at = 2 + m.agent.size() + 8 + 16;
  for (int bit = 1; bit < 8; ++bit) {
    std::string bad = bytes;
    bad[msg_flags_at] =
        static_cast<char>(static_cast<unsigned char>(bad[msg_flags_at]) |
                          (1u << bit));
    EXPECT_FALSE(wire::decode_int_report(bad).ok()) << "msg bit " << bit;
  }
  // Hop flags is the last byte of the body.
  for (int bit = 1; bit < 8; ++bit) {
    std::string bad = bytes;
    bad.back() = static_cast<char>(
        static_cast<unsigned char>(bad.back()) | (1u << bit));
    EXPECT_FALSE(wire::decode_int_report(bad).ok()) << "hop bit " << bit;
  }
  // Oversize inputs are rejected, never clamped.
  wire::IntReportMsg big = m;
  big.agent.assign(70000, 'x');
  EXPECT_FALSE(wire::encode_int_report(big).ok());
}

TEST(StreamCodecTest, PeekPinsSeqAgentWindowAndCount) {
  Pcg32 rng(512);
  wire::StreamDataMsg prev;
  bool has_prev = false;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    wire::StreamDataMsg m =
        has_prev ? next_window(rng, prev) : random_stream_frame(rng, 1);
    std::string body =
        wire::encode_stream_data(m, has_prev ? &prev : nullptr).value();
    Result<wire::StreamFrameInfo> info = wire::peek_stream_data(body);
    ASSERT_TRUE(info.ok()) << info.status().message();
    EXPECT_EQ(info.value().agent, m.agent);
    EXPECT_EQ(info.value().seq, m.seq);
    EXPECT_EQ(info.value().window_start, m.window_start);
    EXPECT_EQ(info.value().record_count, m.responses.size());
    prev = m;
    has_prev = true;
  }
  // Peek on garbage never crashes and never invents a frame.
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk;
    size_t len = rng.next_below(64);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.next_below(256)));
    }
    (void)wire::peek_stream_data(junk);  // must not crash
  }
}

}  // namespace
}  // namespace perfsight
