// Frozen wire bytes.  Every encoder in perfsight/wire.h runs over a fixed
// sample set and its output is rendered as hex; every decoder runs over
// truncated, bit-flipped and over-count forms of those samples and its
// Status text (or, when it accepts the damaged input, a digest of what it
// decoded) is rendered beside them.  The transcript is compared byte for
// byte against tests/golden/wire_bytes.txt, so a rewrite of the codec must
// keep the bytes on the wire, the decoded values and every refusal message.
//
// A second transcript, tests/golden/wire_values.txt, renders what every
// sample decodes back to field by field, with no encoder in the loop.  A
// wire-format change moves the first transcript and must leave the second
// untouched.
//
// Regenerate only for an intended wire-format change (or, for the values
// transcript, an intended change of what travels), and say why in the
// change description:
//   PERFSIGHT_UPDATE_GOLDEN=1 ./build/tests/wire_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "perfsight/wire.h"

namespace perfsight {
namespace {

std::string hex(std::string_view bytes) {
  static const char digits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

// Short, stable digest of bytes a decoder accepted (re-encoded), so an
// accepted damaged input still pins the exact values it decoded to.
std::string digest(std::string_view bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return buf;
}

template <typename T>
std::string status_of(const Result<T>& r,
                      const std::function<std::string(const T&)>& ok) {
  if (!r.ok()) return "err " + r.status().message();
  return "ok " + ok(r.value());
}

std::string status_of(const Result<std::string>& r) {
  if (!r.ok()) return "err " + r.status().message();
  return "ok " + hex(r.value());
}

// One decoder under test: bytes in, one result line out.
using Decoder = std::function<std::string(std::string_view)>;

// Renders `decode` over every strict prefix of `bytes`, one bit flip per
// byte (bit i % 8 of byte i), and the untouched input.  Consecutive inputs
// with the same outcome collapse into one range line.
std::string damage_table(const std::string& name, const std::string& bytes,
                         const Decoder& decode) {
  std::string out = name + " intact: " + decode(bytes) + "\n";
  auto emit_ranges = [&](const std::string& label,
                         const std::vector<std::string>& results) {
    size_t start = 0;
    for (size_t i = 1; i <= results.size(); ++i) {
      if (i < results.size() && results[i] == results[start]) continue;
      out += name + " " + label + " " + std::to_string(start);
      if (i - 1 != start) out += "-" + std::to_string(i - 1);
      out += ": " + results[start] + "\n";
      start = i;
    }
  };
  std::vector<std::string> cuts;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    cuts.push_back(decode(std::string_view(bytes.data(), cut)));
  }
  emit_ranges("cut", cuts);
  std::vector<std::string> flips;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string f = bytes;
    f[i] = static_cast<char>(f[i] ^ (1 << (i % 8)));
    flips.push_back(decode(f));
  }
  emit_ranges("flip", flips);
  return out;
}

// Bytes of a hex string (the retired layouts, frozen as they were sent).
std::string unhex(std::string_view digits) {
  std::string out;
  for (size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(digits.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// Overwrites the little-endian T at `at` (the over-count probes).
template <typename T>
std::string patched(std::string bytes, size_t at, T v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
  return bytes;
}

QueryResponse response(const std::string& element, SimTime ts,
                       DataQuality q, std::vector<Attr> attrs) {
  QueryResponse r;
  r.record.timestamp = ts;
  r.record.element = ElementId{element};
  r.record.attrs = std::move(attrs);
  r.quality = q;
  r.attempts = q == DataQuality::kFresh ? 1 : 3;
  r.response_time = Duration::micros(250 + 10 * r.record.attrs.size());
  r.fail_code =
      q == DataQuality::kMissing ? StatusCode::kUnavailable : StatusCode::kOk;
  return r;
}

BatchResponse sample_batch() {
  BatchResponse b;
  const SimTime t = SimTime::millis(40);
  b.responses.push_back(response("m0/nic", t, DataQuality::kFresh,
                                 {{"rxPkts", 1200}, {"txBytes", 1.5e6}}));
  b.responses.push_back(
      response("m0/ovs", t, DataQuality::kStale, {{"dropPkts", 3}}));
  b.responses.push_back(
      response("m0/vm0/tun", t, DataQuality::kTorn, {{"rxPkts", 0.25}}));
  b.responses.push_back(response("m0/vm1/tun", t, DataQuality::kMissing, {}));
  b.responses.push_back(response("m0/vm2/tun", t, DataQuality::kReplica,
                                 {{"queuePkts", -7}, {"vm", 2}}));
  b.channel_time = Duration::micros(930);
  b.unknown_ids = 2;
  return b;
}

// A batch shaped like a real agent's: sorted by element id, element kinds
// interleaved, so the same attr lists recur non-adjacently; one list
// recurs reordered, one with a single name changed, and two blind spots
// carry none.
BatchResponse mixed_batch() {
  BatchResponse b;
  const SimTime t = SimTime::millis(70);
  const std::vector<Attr> nic = {{"rxPkts", 10}, {"txPkts", 11},
                                 {"dropPkts", 1}};
  const std::vector<Attr> tun = {{"rxPkts", 20}, {"txPkts", 21},
                                 {"dropPkts", 0}, {"queuePkts", 4}};
  const std::vector<Attr> vnic = {{"rxPkts", 30}, {"txPkts", 31}};
  b.responses = {
      response("m0/nic", t, DataQuality::kFresh, nic),
      response("m0/vm0/tun", t, DataQuality::kFresh, tun),
      response("m0/vm0/vnic", t, DataQuality::kFresh, vnic),
      response("m0/vm1/tun", t, DataQuality::kStale, tun),
      response("m0/vm1/vnic", t, DataQuality::kFresh, vnic),
      response("m0/vm2/tun", t, DataQuality::kMissing, {}),
      response("m0/vm2/vnic", t, DataQuality::kFresh,
               {{"txPkts", 31}, {"rxPkts", 30}}),
      response("m0/vm3/tun", t, DataQuality::kFresh, tun),
      response("m0/vm3/vnic", t, DataQuality::kMissing, {}),
      response("m0/vm4/tun", t, DataQuality::kFresh,
               {{"rxPkts", 20}, {"txPkts", 21}, {"dropPkts", 0},
                {"queueBytes", 4}}),
      response("m0/vm4/vnic", t, DataQuality::kTorn, vnic),
  };
  b.channel_time = Duration::micros(1210);
  b.unknown_ids = 1;
  return b;
}

wire::HelloMsg single_hello() {
  return wire::HelloMsg{987654321,
                        {{"agent-7", {ElementId{"a"}, ElementId{"b/c"}}}}};
}

wire::HelloMsg roster_hello() {
  wire::HelloMsg h;
  h.clock_ns = -1234;
  h.roster.push_back({"first", {ElementId{"p/0"}, ElementId{"p/1"}}});
  h.roster.push_back({"second", {ElementId{"s/0"}}});
  h.roster.push_back({"third", {}});
  return h;
}

wire::TraceDataMsg sample_trace() {
  wire::TraceDataMsg t;
  t.process = "agent-7";
  TraceEvent a;
  a.t = SimTime::nanos(1000);
  a.kind = TraceEventKind::kSpanServerBatch;
  a.value = 4;
  a.element = "agent-7/serve";
  a.detail = "batch";
  a.span_id = (7ULL << 48) | 3;
  a.parent_span = 99;
  a.dur = Duration::nanos(2500);
  TraceEvent b;
  b.t = SimTime::nanos(1200);
  b.kind = TraceEventKind::kAgentRetry;
  b.value = -0.5;
  b.element = "m0/nic";
  t.events = {a, b};
  return t;
}

// A snapshot and a delta chain over one stream.  Frame 2 exercises all four
// value modes and schema elision; frame 3 changes one element's schema so
// its deltas resolve by attr name instead of position.
std::vector<wire::StreamDataMsg> stream_chain() {
  std::vector<wire::StreamDataMsg> frames(3);
  for (size_t i = 0; i < frames.size(); ++i) {
    frames[i].agent = "agent-7";
    frames[i].seq = i + 1;
    frames[i].window_start = SimTime::millis(100 * static_cast<int64_t>(i));
    frames[i].channel_time = Duration::micros(40 + 5 * i);
  }
  const SimTime t0 = frames[0].window_start;
  frames[0].responses = {
      response("m0/nic", t0, DataQuality::kFresh,
               {{"rxPkts", 1000}, {"gauge", 0.1}, {"type", 3}, {"big", 1e300}}),
      response("m0/ovs", t0, DataQuality::kStale, {{"dropPkts", 5}}),
  };
  const SimTime t1 = frames[1].window_start;
  frames[1].responses = {
      // rxPkts +250 (mode 2), gauge 0.1 → 0.35 (mode 1), type unchanged
      // (mode 3), big jumps beyond an exact delta (mode 0); schema elided.
      response("m0/nic", t1, DataQuality::kFresh,
               {{"rxPkts", 1250}, {"gauge", 0.35}, {"type", 3}, {"big", 1.0}}),
      response("m0/ovs", t1, DataQuality::kMissing, {}),
      response("m0/vm0/tun", t1, DataQuality::kFresh, {{"rxPkts", 7}}),
  };
  const SimTime t2 = frames[2].window_start;
  frames[2].responses = {
      response("m0/nic", t2, DataQuality::kFresh,
               {{"type", 3}, {"rxPkts", 1300}, {"extra", 9}}),
      response("m0/ovs", t2, DataQuality::kFresh, {{"dropPkts", 6}}),
      response("m0/vm0/tun", t2, DataQuality::kReplica, {{"rxPkts", 7}}),
  };
  return frames;
}

wire::IntReportMsg int_report(bool dropped) {
  wire::IntReportMsg m;
  m.agent = "int@m0";
  m.tag = 77;
  m.start = SimTime::micros(10);
  m.end = SimTime::micros(95);
  m.dropped = dropped;
  m.hops = {{ElementId{"m0/nic"}, 12, 3000, 0},
            {ElementId{"m0/vm0/tun"}, 40, 8000,
             static_cast<uint8_t>(dropped ? 1 : 0)}};
  return m;
}

// --- canonical renderings of decoded values --------------------------------

std::string canon_batch(const BatchResponse& b) {
  return digest(wire::encode_batch(b).value()) +
         " degraded=" + std::to_string(b.degraded);
}

std::string canon_stream(const wire::StreamDataMsg& m) {
  // Snapshot form: every value absolute, so the digest pins decoded values.
  return digest(wire::encode_stream_data(m, nullptr).value());
}

std::string stats_of(const wire::DecodeStats& st) {
  return " expected=" + std::to_string(st.frames_expected) +
         " ok=" + std::to_string(st.frames_ok) +
         " truncated=" + std::to_string(st.truncated) +
         " corrupt=" + std::to_string(st.corrupt) +
         " trailing=" + std::to_string(st.trailing_bytes);
}

// --- encoders ----------------------------------------------------------------

std::string encoder_transcript() {
  std::string out;
  auto line = [&](const std::string& name, const std::string& value) {
    out += name + " " + value + "\n";
  };
  const BatchResponse batch = sample_batch();
  line("frame", status_of(wire::encode_frame(batch.responses[0])));
  line("batch", status_of(wire::encode_batch(batch)));
  line("batch_empty", status_of(wire::encode_batch(BatchResponse{})));
  line("batch_mixed", status_of(wire::encode_batch(mixed_batch())));
  line("message_hello",
       hex(wire::encode_message(wire::MessageKind::kHello,
                                wire::encode_hello(single_hello()))));
  line("message_empty",
       hex(wire::encode_message(wire::MessageKind::kTraceHarvest, "")));
  line("hello_single", hex(wire::encode_hello(single_hello())));
  line("hello_roster", hex(wire::encode_hello(roster_hello())));
  line("batch_request_untraced",
       hex(wire::encode_batch_request({SimTime::millis(12),
                                       {ElementId{"x"}, ElementId{"y"}},
                                       0, 0, "first"})));
  line("batch_request_routed_traced",
       hex(wire::encode_batch_request({SimTime::millis(12),
                                       {ElementId{"x"}, ElementId{"y"}},
                                       0xdeadbeefcafef00dULL, 42, "second"})));
  line("trace_data", hex(wire::encode_trace_data(sample_trace())));
  line("subscribe", hex(wire::encode_subscribe({"second", 17, 100000000})));
  const std::vector<wire::StreamDataMsg> chain = stream_chain();
  line("stream_snapshot",
       status_of(wire::encode_stream_data(chain[0], nullptr)));
  line("stream_delta1",
       status_of(wire::encode_stream_data(chain[1], &chain[0])));
  line("stream_delta2",
       status_of(wire::encode_stream_data(chain[2], &chain[1])));
  line("int_report", status_of(wire::encode_int_report(int_report(false))));
  line("int_report_dropped",
       status_of(wire::encode_int_report(int_report(true))));

  // Input that cannot travel is refused with a Status, never clamped.
  const std::string huge(0x10000, 'n');
  QueryResponse r = batch.responses[0];
  r.record.element = ElementId{huge};
  line("reject_frame_element", status_of(wire::encode_frame(r)));
  r = batch.responses[0];
  r.record.attrs[1].name = huge;
  line("reject_frame_attr", status_of(wire::encode_frame(r)));
  r = batch.responses[0];
  r.record.attrs.assign(0x10000, Attr{"a", 1});
  line("reject_frame_count", status_of(wire::encode_frame(r)));
  r.record.attrs.assign(wire::kMaxAttrs, Attr{std::string(600, 'a'), 1});
  line("reject_frame_payload", status_of(wire::encode_frame(r)));
  BatchResponse bad = batch;
  bad.responses[3].record.element = ElementId{huge};
  line("reject_batch", status_of(wire::encode_batch(bad)));
  wire::StreamDataMsg s = chain[0];
  s.agent = huge;
  line("reject_stream_agent", status_of(wire::encode_stream_data(s, nullptr)));
  s = chain[0];
  s.responses[1].record.attrs.assign(0x8000, Attr{"a", 1});
  line("reject_stream_count", status_of(wire::encode_stream_data(s, nullptr)));
  s = chain[0];
  s.responses[0].record.attrs.assign(0x7fff, Attr{std::string(600, 'a'), 1});
  line("reject_stream_payload",
       status_of(wire::encode_stream_data(s, nullptr)));
  wire::IntReportMsg m = int_report(false);
  m.agent = huge;
  line("reject_int_agent", status_of(wire::encode_int_report(m)));
  m = int_report(false);
  m.hops[1].element = ElementId{huge};
  line("reject_int_element", status_of(wire::encode_int_report(m)));
  m = int_report(false);
  m.hops[0].flags = 2;
  line("reject_int_flags", status_of(wire::encode_int_report(m)));
  m = int_report(false);
  m.hops.assign(0x10000, wire::IntHopWire{});
  line("reject_int_hops", status_of(wire::encode_int_report(m)));
  m.hops.assign(0xffff, wire::IntHopWire{ElementId{std::string(300, 'h')}});
  line("reject_int_payload", status_of(wire::encode_int_report(m)));
  return out;
}

// --- decoders ----------------------------------------------------------------

std::string decoder_transcript() {
  std::string out;
  const BatchResponse batch = sample_batch();

  const Decoder frame = [](std::string_view b) {
    size_t consumed = 0;
    Result<QueryResponse> r = wire::decode_frame(b, &consumed);
    if (!r.ok()) return "err " + r.status().message();
    return "ok consumed=" + std::to_string(consumed) + " " +
           digest(wire::encode_frame(r.value()).value());
  };
  out += damage_table("frame", wire::encode_frame(batch.responses[4]).value(),
                      frame);

  const Decoder batch_dec = [](std::string_view b) {
    wire::DecodeStats st;
    Result<BatchResponse> r = wire::decode_batch(b, &st);
    if (!r.ok()) return "err " + r.status().message();
    return "ok " + canon_batch(r.value()) + stats_of(st);
  };
  const std::string batch_bytes = wire::encode_batch(batch).value();
  out += damage_table("batch", batch_bytes, batch_dec);
  out += "batch trailing: " + batch_dec(batch_bytes + "xy") + "\n";

  // A batch whose attr lists recur, so most frames refer to its schema
  // table; the decoder's damage text says why a stream stopped.
  const Decoder mixed_dec = [](std::string_view b) {
    wire::DecodeStats st;
    Result<BatchResponse> r = wire::decode_batch(b, &st);
    if (!r.ok()) return "err " + r.status().message();
    return "ok " + canon_batch(r.value()) + stats_of(st) +
           (st.damage.empty() ? "" : " damage=" + st.damage);
  };
  const BatchResponse mixed = mixed_batch();
  const std::string mixed_bytes = wire::encode_batch(mixed).value();
  out += damage_table("batch_mixed", mixed_bytes, mixed_dec);
  // Frame 3 refers to entry 1; the three frames before it carry names, so
  // they are as long as their standalone forms.
  size_t third = wire::kBatchHeaderSize;
  for (size_t i = 0; i < 3; ++i) {
    third += wire::encode_frame(mixed.responses[i]).value().size();
  }
  out += "batch_mixed frame_outside_batch: " +
         frame(std::string_view(mixed_bytes).substr(third)) + "\n";

  const Decoder message = [](std::string_view b) {
    size_t consumed = 0;
    Result<wire::Message> r = wire::decode_message(b, &consumed);
    if (!r.ok()) return "err " + r.status().message();
    return "ok kind=" + std::string(wire::to_string(r.value().kind)) +
           " consumed=" + std::to_string(consumed) + " " +
           digest(r.value().body);
  };
  const std::string msg = wire::encode_message(
      wire::MessageKind::kSubscribe, wire::encode_subscribe({"s", 1, 2}));
  out += damage_table("message", msg, message);
  out += "message trailing: " + message(msg + "xy") + "\n";

  const Decoder hello = [](std::string_view b) {
    return status_of<wire::HelloMsg>(
        wire::decode_hello(b), [](const wire::HelloMsg& h) {
          std::string s = "clock=" + std::to_string(h.clock_ns) + " roster=";
          for (const auto& a : h.roster) {
            s += a.name + ":" + std::to_string(a.elements.size()) + ",";
          }
          return s;
        });
  };
  out += damage_table("hello_single", wire::encode_hello(single_hello()),
                      hello);
  out += damage_table("hello_roster", wire::encode_hello(roster_hello()),
                      hello);

  const Decoder batch_req = [](std::string_view b) {
    return status_of<wire::BatchRequestMsg>(
        wire::decode_batch_request(b), [](const wire::BatchRequestMsg& r) {
          return std::to_string(r.now.ns()) + " n=" +
                 std::to_string(r.ids.size()) + " trace=" +
                 std::to_string(r.trace_id) + "/" +
                 std::to_string(r.parent_span) + " agent=" + r.agent;
        });
  };
  out += damage_table(
      "batch_request",
      wire::encode_batch_request({SimTime::millis(12),
                                  {ElementId{"x"}, ElementId{"yy"}},
                                  5,
                                  6,
                                  "second"}),
      batch_req);

  const Decoder trace = [](std::string_view b) {
    return status_of<wire::TraceDataMsg>(
        wire::decode_trace_data(b), [](const wire::TraceDataMsg& t) {
          return digest(wire::encode_trace_data(t));
        });
  };
  const std::string trace_bytes = wire::encode_trace_data(sample_trace());
  out += damage_table("trace_data", trace_bytes, trace);

  const Decoder subscribe = [](std::string_view b) {
    return status_of<wire::SubscribeMsg>(
        wire::decode_subscribe(b), [](const wire::SubscribeMsg& s) {
          return s.agent + " " + std::to_string(s.from_seq) + " " +
                 std::to_string(s.window_ns);
        });
  };
  out += damage_table("subscribe",
                      wire::encode_subscribe({"second", 17, 100000000}),
                      subscribe);

  // Retired layouts are refused, never misread: the pre-roster hello (the
  // bytes it carried for single_hello()), a hello followed by the 8-byte
  // epoch, an empty roster, a batch request without its agent field and
  // requests naming "".
  out += "old hello_pre_roster: " +
         hello(unhex("07006167656e742d37020000000100610300622f63b168de3a000"
                     "00000")) +
         "\n";
  out += "old hello_epoch: " +
         hello(wire::encode_hello(single_hello()) + unhex("efcdab8967452301")) +
         "\n";
  out += "old hello_empty_roster: " + hello(unhex("d20400000000000000000000")) +
         "\n";
  const std::string empty_name = wire::encode_batch_request(
      {SimTime::millis(12), {ElementId{"x"}, ElementId{"y"}}, 0, 0, ""});
  out += "old batch_request_nameless: " +
         batch_req(empty_name.substr(0, empty_name.size() - 2)) + "\n";
  out += "old batch_request_empty_name: " + batch_req(empty_name) + "\n";
  out += "old subscribe_empty_name: " +
         subscribe(wire::encode_subscribe({"", 17, 100000000})) + "\n";

  const std::vector<wire::StreamDataMsg> chain = stream_chain();
  const std::string delta =
      wire::encode_stream_data(chain[1], &chain[0]).value();
  const Decoder peek = [](std::string_view b) {
    return status_of<wire::StreamFrameInfo>(
        wire::peek_stream_data(b), [](const wire::StreamFrameInfo& i) {
          return i.agent + " seq=" + std::to_string(i.seq) +
                 " t=" + std::to_string(i.window_start.ns()) +
                 " n=" + std::to_string(i.record_count);
        });
  };
  out += damage_table("stream_peek", delta, peek);
  auto stream_with = [](const wire::StreamDataMsg* prev) -> Decoder {
    return [prev](std::string_view b) {
      bool no_base = false;
      Result<wire::StreamDataMsg> r =
          wire::decode_stream_data(b, prev, &no_base);
      return status_of<wire::StreamDataMsg>(r, canon_stream) +
             " no_base=" + std::to_string(no_base);
    };
  };
  out += damage_table("stream_delta", delta, stream_with(&chain[0]));
  out += "stream_delta no_prev: " + stream_with(nullptr)(delta) + "\n";
  out += "stream_delta2 no_prev: " +
         stream_with(nullptr)(
             wire::encode_stream_data(chain[2], &chain[1]).value()) +
         "\n";
  out += "stream_delta2 wrong_prev: " +
         stream_with(&chain[0])(
             wire::encode_stream_data(chain[2], &chain[1]).value()) +
         "\n";
  out += "stream_delta2 ok: " +
         stream_with(&chain[1])(
             wire::encode_stream_data(chain[2], &chain[1]).value()) +
         "\n";
  out += damage_table("stream_snapshot",
                      wire::encode_stream_data(chain[0], nullptr).value(),
                      stream_with(nullptr));

  const Decoder int_dec = [](std::string_view b) {
    return status_of<wire::IntReportMsg>(
        wire::decode_int_report(b), [](const wire::IntReportMsg& m) {
          return digest(wire::encode_int_report(m).value());
        });
  };
  out += damage_table("int_report",
                      wire::encode_int_report(int_report(true)).value(),
                      int_dec);

  // Over-count probes: a count or length field inflated past what the
  // remaining bytes could hold is refused before anything is reserved.
  const std::string hello_bytes = wire::encode_hello(single_hello());
  out += "over hello_ids: " +
         hello(patched<uint32_t>(hello_bytes, 8 + 4 + 2 + 7, 0xffffffffu)) +
         "\n";
  out += "over hello_roster: " +
         hello(patched<uint32_t>(wire::encode_hello(roster_hello()), 8,
                                 0x7fffffffu)) +
         "\n";
  out += "over batch_request_ids: " +
         batch_req(patched<uint32_t>(
             wire::encode_batch_request(
                 {SimTime(), {ElementId{"x"}}, 0, 0, "a"}),
             8, 0x40000000u)) +
         "\n";
  out += "over trace_events: " +
         trace(patched<uint32_t>(trace_bytes, 2 + 7, 1000u)) + "\n";
  out += "over stream_records: " +
         peek(patched<uint32_t>(delta, 2 + 7 + 24, 0x01000000u)) + "\n";
  out += "over stream_records_decode: " +
         stream_with(&chain[0])(
             patched<uint32_t>(delta, 2 + 7 + 24, 0x01000000u)) +
         "\n";
  const std::string int_bytes =
      wire::encode_int_report(int_report(false)).value();
  out += "over int_hops: " +
         int_dec(patched<uint16_t>(int_bytes, 2 + 6 + 25, 0xffffu)) + "\n";
  const std::string frame_bytes =
      wire::encode_frame(batch.responses[0]).value();
  out += "over frame_len: " +
         frame(patched<uint32_t>(frame_bytes, 0, wire::kMaxPayload + 1)) + "\n";
  out += "over batch_frames: " +
         batch_dec(patched<uint32_t>(batch_bytes, 4, 0xffffffffu)) + "\n";
  out += "over message_len: " +
         message(patched<uint32_t>(msg, 5, wire::kMaxPayload + 1)) + "\n";
  out += "over message_kind: " + message(patched<uint8_t>(msg, 4, 12)) + "\n";
  out += "over message_kind0: " + message(patched<uint8_t>(msg, 4, 0)) + "\n";
  out += "over int_flags: " +
         int_dec(patched<uint8_t>(int_bytes, 2 + 6 + 24, 2)) + "\n";
  return out;
}

// --- decoded values -----------------------------------------------------------
// What every sample decodes back to, rendered field by field with no
// encoder involved, so the transcript holds across a change of the bytes
// on the wire: a format change must leave it untouched.

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string render(const QueryResponse& r) {
  std::string s = r.record.element.name +
                  " t=" + std::to_string(r.record.timestamp.ns()) +
                  " q=" + std::to_string(static_cast<int>(r.quality)) +
                  " fail=" + std::to_string(static_cast<int>(r.fail_code)) +
                  " attempts=" + std::to_string(r.attempts) +
                  " rt=" + std::to_string(r.response_time.ns()) + " {";
  for (const Attr& a : r.record.attrs) s += " " + a.name + "=" + num(a.value);
  return s + " }";
}

std::string render(const BatchResponse& b) {
  std::string s = "channel=" + std::to_string(b.channel_time.ns()) +
                  " unknown=" + std::to_string(b.unknown_ids) +
                  " degraded=" + std::to_string(b.degraded) + "\n";
  for (const QueryResponse& r : b.responses) s += "  " + render(r) + "\n";
  return s;
}

std::string render(const wire::HelloMsg& h) {
  std::string s = "clock=" + std::to_string(h.clock_ns);
  for (const auto& a : h.roster) {
    s += " " + a.name + "[";
    for (const ElementId& id : a.elements) s += " " + id.name;
    s += " ]";
  }
  return s;
}

std::string render(const wire::BatchRequestMsg& r) {
  std::string s = "now=" + std::to_string(r.now.ns()) + " ids=[";
  for (const ElementId& id : r.ids) s += " " + id.name;
  return s + " ] trace=" + std::to_string(r.trace_id) + "/" +
         std::to_string(r.parent_span) + " agent=" + r.agent;
}

std::string render(const wire::TraceDataMsg& t) {
  std::string s = "process=" + t.process + "\n";
  for (const TraceEvent& e : t.events) {
    s += "  t=" + std::to_string(e.t.ns()) +
         " kind=" + std::to_string(static_cast<int>(e.kind)) +
         " value=" + num(e.value) + " span=" + std::to_string(e.span_id) +
         "/" + std::to_string(e.parent_span) +
         " dur=" + std::to_string(e.dur.ns()) + " element=" + e.element +
         " detail=" + e.detail + "\n";
  }
  return s;
}

std::string render(const wire::SubscribeMsg& m) {
  return m.agent + " from=" + std::to_string(m.from_seq) +
         " window=" + std::to_string(m.window_ns);
}

std::string render(const wire::StreamDataMsg& m) {
  std::string s = m.agent + " seq=" + std::to_string(m.seq) +
                  " window=" + std::to_string(m.window_start.ns()) +
                  " channel=" + std::to_string(m.channel_time.ns()) + "\n";
  for (const QueryResponse& r : m.responses) s += "  " + render(r) + "\n";
  return s;
}

std::string render(const wire::IntReportMsg& m) {
  std::string s = m.agent + " tag=" + std::to_string(m.tag) +
                  " start=" + std::to_string(m.start.ns()) +
                  " end=" + std::to_string(m.end.ns()) +
                  " dropped=" + std::to_string(m.dropped) + "\n";
  for (const wire::IntHopWire& h : m.hops) {
    s += "  " + h.element.name + " queue=" + std::to_string(h.queue_pkts) +
         " io=" + std::to_string(h.io_time_ns) +
         " flags=" + std::to_string(h.flags) + "\n";
  }
  return s;
}

template <typename T>
std::string rendered(const Result<T>& r) {
  if (!r.ok()) return "err " + r.status().message() + "\n";
  std::string s = render(r.value());
  return s.ends_with('\n') ? s : s + "\n";
}

std::string values_transcript() {
  std::string out;
  auto line = [&](const std::string& name, const std::string& value) {
    out += name + " " + value;
  };
  for (const BatchResponse& b : {sample_batch(), mixed_batch()}) {
    for (const QueryResponse& r : b.responses) {
      size_t consumed = 0;
      line("frame",
           rendered(wire::decode_frame(wire::encode_frame(r).value(),
                                       &consumed)));
    }
  }
  for (const BatchResponse& b :
       {sample_batch(), mixed_batch(), BatchResponse{}}) {
    wire::DecodeStats st;
    Result<BatchResponse> got =
        wire::decode_batch(wire::encode_batch(b).value(), &st);
    line("batch" + stats_of(st), rendered(got));
  }

  const auto message = [](wire::MessageKind kind, const std::string& body) {
    Result<wire::Message> m =
        wire::decode_message(wire::encode_message(kind, body));
    if (!m.ok()) return "err " + m.status().message() + "\n";
    return std::string(wire::to_string(m.value().kind)) +
           " body=" + hex(m.value().body) + "\n";
  };
  line("message_hello", message(wire::MessageKind::kHello,
                                wire::encode_hello(single_hello())));
  line("message_empty", message(wire::MessageKind::kTraceHarvest, ""));
  line("hello_single",
       rendered(wire::decode_hello(wire::encode_hello(single_hello()))));
  line("hello_roster",
       rendered(wire::decode_hello(wire::encode_hello(roster_hello()))));
  line("batch_request",
       rendered(wire::decode_batch_request(wire::encode_batch_request(
           {SimTime::millis(12), {ElementId{"x"}, ElementId{"y"}},
            0xdeadbeefcafef00dULL, 42, "second"}))));
  line("trace_data", rendered(wire::decode_trace_data(
                         wire::encode_trace_data(sample_trace()))));
  line("subscribe", rendered(wire::decode_subscribe(
                        wire::encode_subscribe({"second", 17, 100000000}))));
  const std::vector<wire::StreamDataMsg> chain = stream_chain();
  const wire::StreamDataMsg* prev = nullptr;
  for (const wire::StreamDataMsg& m : chain) {
    line("stream", rendered(wire::decode_stream_data(
                       wire::encode_stream_data(m, prev).value(), prev)));
    prev = &m;
  }
  for (bool dropped : {false, true}) {
    line("int_report",
         rendered(wire::decode_int_report(
             wire::encode_int_report(int_report(dropped)).value())));
  }
  return out;
}

void check_golden(const std::string& name, const std::string& got) {
  const std::string path = std::string(PS_GOLDEN_DIR) + "/" + name;
  if (std::getenv("PERFSIGHT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream want;
  want << in.rdbuf();
  if (want.str() == got) return;
  std::istringstream a(want.str()), b(got);
  std::string la, lb;
  for (size_t line = 1;; ++line) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (!ga || !gb || la != lb) {
      FAIL() << name << " diverges at line " << line << "\n  golden: " << la
             << "\n  actual: " << lb;
    }
  }
  FAIL() << name << " differs";
}

// Decoded names of bit-flipped inputs may hold any byte; escape those that
// would make the golden file binary.
std::string printable(const std::string& s) {
  std::string out;
  for (char c : s) {
    const auto b = static_cast<uint8_t>(c);
    if (c == '\n' || (b >= 0x20 && b < 0x7f)) {
      out.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", b);
      out += buf;
    }
  }
  return out;
}

TEST(WireGoldenTest, EncodersAndDecodersMatchFrozenBytes) {
  const std::string got = "# encoders\n" + encoder_transcript() +
                          "# decoders\n" + decoder_transcript();
  check_golden("wire_bytes.txt", printable(got));
}

TEST(WireGoldenTest, DecodedValuesMatchFrozenText) {
  check_golden("wire_values.txt", printable(values_transcript()));
}

}  // namespace
}  // namespace perfsight
