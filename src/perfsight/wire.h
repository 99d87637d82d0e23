// Length-prefixed binary framing for agent→controller batch responses, plus
// the request/hello/trace envelopes the socket transport speaks.
//
// The in-process batch path (Agent::query_batch) amortises channel round
// trips; a *remote* controller needs the same amortisation across a real
// socket.  This codec frames a BatchResponse — each element's StatsRecord
// qualified with DataQuality / attempts / modelled latency — so one write()
// carries a whole batch and the receiving side can stream-decode it.
//
// Stream layout (all integers little-endian):
//
//   batch  := header frame*
//   header := u32 magic ("PSB2") | u32 frame_count | u64 channel_time_ns |
//             u32 unknown_ids
//   frame  := u32 payload_len | u64 checksum(payload) | payload
//   payload:= record | u16 attr_field | attrs
//   record := i64 timestamp_ns | u8 quality | u8 fail_code | u32 attempts |
//             i64 response_time_ns | u16-str element
//   u16-str:= u16 len | bytes
//
// The record header is shared with push-mode stream records (below).
//
// Schema table.  Records of one kind name the same attrs in the same
// order, and an agent's batch (sorted by element id) interleaves a few
// kinds, so each batch keeps a table of the attr-name lists its frames
// carried.  With bit 15 of attr_field clear, the field is the attr count
// (at most kMaxAttrs) and the frame carries its names,
//
//   attrs  := { u16-str name | f64 value }*
//
// which appends that name list to the table.  With bit 15 set, the low 15
// bits index the table and the frame carries its values alone, one f64 per
// name of that entry, in order:
//
//   attrs  := f64 value*
//
// The encoder finds an earlier entry by hashing the name list and confirms
// it by comparing the names.  A standalone frame (encode_frame) always
// carries its names; decode_frame refuses a reference, and decode_batch
// refuses a reference to an entry not yet defined or a frame whose value
// count differs from its entry's name count.
//
// Integrity check.  checksum() is a 64-bit check that folds eight bytes
// per multiply step (a bijection of the running state, so a change of any
// one word always changes the result), then mixes the state once more.  It
// guards every frame and every message body.
//
// Control messages (the requests, the connect-time hello and trace data)
// travel in a separate checksummed envelope:
//
//   message := u32 magic ("PSM2") | u8 kind | u32 body_len |
//              u64 checksum(body) | body
//
// The magics name the layout: a peer speaking the earlier PSB1/PSM1 (names
// in every frame, FNV-1a checks) is refused as "bad magic", not as a
// checksum mismatch.
//
// There are no error replies: a failed element query travels inside the
// batch reply as a blind spot, from which the client rebuilds its Status.
//
// Damage contract (what the property/fuzz suite locks down): decoding
// arbitrary bytes never crashes and never yields a silently wrong record.
// Every frame is guarded by a checksum over its payload; a frame that fails
// the checksum, whose length prefix runs past the buffer, or that names a
// schema it cannot use, poisons the remainder of the stream (the length
// chain and the schema table are untrustworthy past it), so the decoder
// stops and reports how much survived.  Callers map the damage to
// DataQuality with reconcile(): every element they asked for comes back,
// lost ones as kMissing blind spots.
//
// The encode side upholds the mirror contract: input that cannot travel
// losslessly (names longer than a u16, more than kMaxAttrs attrs, a payload
// past the structural cap) is *rejected* with a Status — never clamped to
// fit.  A frame that encodes always decodes back byte-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "perfsight/agent.h"
#include "perfsight/trace.h"

namespace perfsight::wire {

inline constexpr uint32_t kMagic = 0x32425350;  // "PSB2"

// Structural sizes the stream transport's length-chain reader walks.
inline constexpr size_t kBatchHeaderSize = 4 + 4 + 8 + 4;
inline constexpr size_t kFramePrefixSize = 4 + 8;  // payload_len + checksum
inline constexpr size_t kMessagePrefixSize = 4 + 1 + 4 + 8;
// A single frame (or message body) larger than this is structural damage,
// not data: it caps what a corrupted length prefix can make a reader trust.
inline constexpr uint32_t kMaxPayload = 1u << 24;

// The most attrs one frame or stream record carries: bit 15 of the count
// field is the schema bit.
inline constexpr size_t kMaxAttrs = 0x7fff;

// The integrity check of every PSB2 frame and PSM2 message body.
uint64_t checksum(std::string_view bytes);

// One element response as a self-delimiting frame that carries its attr
// names.  Fails (instead of truncating) when a name exceeds 64 KiB, the
// record has more than kMaxAttrs attrs, or the payload would exceed
// kMaxPayload — a successful encode is guaranteed to decode back
// byte-identical.
Result<std::string> encode_frame(const QueryResponse& r);
// Header plus one frame per response, in the batch's (element-id) order;
// a frame whose attr names an earlier frame carried refers to that schema
// table entry instead.  Fails if any response is unencodable; never emits
// a shrunken batch.
Result<std::string> encode_batch(const BatchResponse& b);

// What the decoder saw, beyond the records themselves.
struct DecodeStats {
  size_t frames_expected = 0;  // header's frame count
  size_t frames_ok = 0;        // frames that decoded and verified
  bool truncated = false;      // stream ended mid-frame (or before count)
  bool corrupt = false;        // checksum/structure failure; decoding stopped
  size_t trailing_bytes = 0;   // bytes left after the last expected frame
  // Why decoding stopped: the refusal text of the frame that failed, or
  // empty when none did.
  std::string damage;

  bool complete() const {
    return !truncated && !corrupt && frames_ok == frames_expected &&
           trailing_bytes == 0;
  }
};

// Decodes the frame at the head of `bytes`; `*consumed` receives how many
// bytes the frame occupied.  Fails (without crashing) on truncation,
// checksum mismatch, structural damage, or a reference to a batch schema
// table (a frame outside its batch cannot resolve one).
Result<QueryResponse> decode_frame(std::string_view bytes, size_t* consumed);

// Decodes a whole batch.  Only a bad header is a hard error; damaged frames
// degrade: the responses that verified are returned (always a prefix of the
// encoded sequence) and `stats` says what was lost.
Result<BatchResponse> decode_batch(std::string_view bytes,
                                   DecodeStats* stats = nullptr);

// Maps wire damage to DataQuality: returns one response per id in
// `sorted_ids` (ascending element-id order, matching query_batch output).
// Ids whose frames were lost to truncation/corruption come back as
// kUnavailable blind spots stamped `now`, the query time — a damaged
// stream degrades to visible blind spots instead of silently shrinking the
// batch.
BatchResponse reconcile(const std::vector<ElementId>& sorted_ids,
                        const BatchResponse& decoded, SimTime now);

// --- transport control messages ---------------------------------------------
// Everything except batch responses (which stream as raw PSB2 above) rides
// the PSM2 envelope.  Bodies are checksummed; decoders are total functions
// over arbitrary bytes.

// Kinds 3 to 6 are retired: a server closes a connection that sends one.
// They keep their numbers so the live kinds do not renumber.  A single
// query (query_attrs) is a kBatchRequest for one id.
enum class MessageKind : uint8_t {
  kHello = 1,           // server → client on accept: the agent roster
  kBatchRequest = 2,    // client → server: query_batch(ids, now)
  kSingleRequest = 3,   // retired (was the single-element query)
  kListElements = 4,    // retired (was the element listing)
  kSingleResponse = 5,  // retired (was the single-element reply)
  kError = 6,           // retired (was a Status reply)
  kTraceHarvest = 7,    // client → server: drain your trace rings to me
  kTraceData = 8,       // server → client: drained spans (also piggybacked
                        // after a batch reply when the request was traced)
  kSubscribe = 9,       // client → server: push me this agent's windows
  kStreamData = 10,     // server → client: one captured window (push mode)
  kIntReport = 11,      // harvester → controller: one in-band telemetry
                        // flight (per-hop metadata stack)
};

const char* to_string(MessageKind k);

struct Message {
  MessageKind kind = MessageKind::kHello;
  std::string body;
};

// Wraps `body` in the PSM2 envelope.
std::string encode_message(MessageKind kind, std::string_view body);
// Decodes the message at the head of `bytes`; `*consumed` receives its full
// size.  Fails on truncation, bad magic/kind, oversize body, or checksum
// mismatch.
Result<Message> decode_message(std::string_view bytes,
                               size_t* consumed = nullptr);

// --- prefix parsers ----------------------------------------------------------
// The one parse of each fixed-size header: the decoders above, the
// transport's length-chain reads and the fleet server's partial-read loop
// all go through these.  The prefix parsers read at `at` in `bytes` and are
// safe for any `at`, including past the end.  All three fail, with the
// Status text of the matching decoder, on a short input, a bad magic or
// kind, or a length past kMaxPayload (no later bytes could make that whole).

// PSB2 batch header (always at the head of the stream): an empty batch
// carrying the header's channel time and unknown-id count, with the frame
// count in `stats->frames_expected`.
Result<BatchResponse> parse_batch_header(std::string_view bytes,
                                         DecodeStats* stats);

// A PSB2 frame prefix or PSM2 message prefix: the length and checksum of
// the body behind it (and, for a message, its kind).
struct Prefix {
  MessageKind kind = MessageKind::kHello;  // PSM2 messages only
  uint32_t body_len = 0;
  uint64_t checksum = 0;
};
Result<Prefix> parse_frame_prefix(std::string_view bytes, size_t at = 0);
Result<Prefix> parse_message_prefix(std::string_view bytes, size_t at = 0);

// Connect-time handshake: which agents sit behind the endpoint and which
// elements each serves, plus a sample of the server's span clock (monotonic
// wall nanoseconds) — the client samples its own clock around the handshake
// and derives the clock-offset estimate that aligns harvested trace
// timestamps.
//
//   body  := i64 clock_ns | u32 agent_count | entry*
//   entry := u16-str name | u32 id_count | u16-str*
//
// The roster lists every hosted agent in registration order and is never
// empty.  A client binds one entry by name (an unnamed client the first)
// and stamps that name on every request it sends.
struct HelloMsg {
  struct AgentInfo {
    std::string name;
    std::vector<ElementId> elements;  // ascending element-id order
  };
  int64_t clock_ns = 0;  // server span clock at hello encode time
  std::vector<AgentInfo> roster;
};
// `h.roster` must not be empty.
std::string encode_hello(const HelloMsg& h);
// Refuses an empty roster and any byte past the last entry.
Result<HelloMsg> decode_hello(std::string_view body);

// query_batch over the wire: the hosted agent it is for, the requested ids
// and the (simulated) query timestamp, so the remote agent samples the same
// instant the controller asked for.  The trace context rides along: with
// trace_id != 0 the server records a serve span whose parent is
// `parent_span` (the controller scatter span) and piggybacks its drained
// rings after the batch reply; with trace_id == 0 the reply is
// byte-identical to an untraced run.
//
//   body := i64 now_ns | u32 id_count | u16-str* | u64 trace_id |
//           u64 parent_span | u16-str agent
struct BatchRequestMsg {
  SimTime now;
  std::vector<ElementId> ids;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  std::string agent;  // roster name the server routes this batch to
};
std::string encode_batch_request(const BatchRequestMsg& r);
// Refuses an empty agent name: every request names its agent.
Result<BatchRequestMsg> decode_batch_request(std::string_view body);

// Drained trace rings crossing the wire (kTraceData): the producing
// process's name plus its events, timestamps still on that process's span
// clock (the receiver applies its hello-derived clock offset at export).
//
//   body  := u16-str process | u32 event_count | event*
//   event := i64 t_ns | u8 kind | u64 value_bits | u64 span_id |
//            u64 parent_span | i64 dur_ns | u16-str element | u16-str detail
struct TraceDataMsg {
  std::string process;
  std::vector<TraceEvent> events;
};
std::string encode_trace_data(const TraceDataMsg& t);
Result<TraceDataMsg> decode_trace_data(std::string_view body);

// --- push-mode streaming (kSubscribe / kStreamData) --------------------------
// Inverts the collection direction: instead of the controller pulling a
// sweep per diagnosis window, an agent-side publisher captures every element
// once per window and ships the capture as a kStreamData frame.  Frames
// carry a per-stream sequence number (1-based, monotonically increasing for
// the lifetime of the publisher) so a receiver detects dropped windows,
// reconnect gaps and campaign outages as seq jumps and repairs them with
// targeted pull sweeps (streaming.h).

// Opens a stream: push me `agent`'s windows from `from_seq` on.  The first
// frame after a subscribe is always a full snapshot (every attr absolute),
// so a resubscribing client can rebase its delta state without history.
struct SubscribeMsg {
  std::string agent;      // roster entry to stream
  uint64_t from_seq = 0;  // resume hint; 0 = whatever the publisher is at
  int64_t window_ns = 0;  // requested cadence (informational; the publisher
                          // owns the actual capture schedule)
};
std::string encode_subscribe(const SubscribeMsg& s);
// Refuses an empty agent name, like decode_batch_request.
Result<SubscribeMsg> decode_subscribe(std::string_view body);

// One captured window: the publishing agent's full element set in ascending
// element-id order, each element a QueryResponse exactly as query_batch
// produced it at the window boundary.
//
// Attr values travel delta-coded against the previous frame of the same
// stream when that is bit-exact, absolute otherwise: each attr carries a
// mode byte (0 = absolute IEEE-754 bits as u64, 1 = IEEE-754 delta bits as
// u64, 2 = non-negative integral delta as u32, 3 = unchanged with no
// payload, where prev + delta reconstructs the current value exactly — the
// encoder checks the round trip in double arithmetic and falls back to
// absolute when addition would lose bits), and a record whose attr names
// match the previous frame's same element sets the schema-elision bit in
// its attr count and omits the name strings entirely.  Counters between
// consecutive windows differ by small integral deltas and tags/gauges sit
// still, so modes 2/3 plus elided schemas dominate steady state, which is
// what makes push-mode cheap on the wire; the
// exactness guard is what keeps streamed bytes losslessly reconstructible,
// so streamed diagnosis can be byte-identical to sweep diagnosis.  A frame
// that arrives after a seq gap MUST NOT be delta-decoded against stale
// state — the receiver repairs the missed windows first (restoring the
// delta base) and only then applies the frame.
//
//   body   := u16-str agent | u64 seq | i64 window_start_ns |
//             i64 channel_time_ns | u32 record_count | srecord*
//   srecord:= record (as in PSB2 payloads) | u16 attr_count |
//             { u8 mode [| u16-str name] [| payload] }*
//
// attr_count bit 15 is the schema-elision bit (names omitted, inherited in
// order from the previous frame's same element); the low 15 bits are the
// count, so a stream record carries at most 32767 attrs.  Mode payloads:
// 0 and 1 a u64, 2 a u32, 3 nothing.
struct StreamDataMsg {
  std::string agent;           // publishing agent (roster name)
  uint64_t seq = 0;            // per-stream sequence number, starts at 1
  SimTime window_start;        // capture timestamp (the window boundary)
  Duration channel_time;       // modelled channel cost of the capture batch
  std::vector<QueryResponse> responses;  // ascending element-id order
};

// `prev` is the previous frame of the same stream (null: encode everything
// absolute — the snapshot form a subscribe answer uses).  Fails, never
// clamps, on unencodable input, like encode_frame.  Both sides refuse a
// frame whose element ids descend anywhere ("element ids descend"; equal
// neighbours are a duplicated id), so every `prev` is in id order, and both
// find an element's base record with an IdCursor (agent.h), so a base with
// a duplicated id resolves the same way on each.
Result<std::string> encode_stream_data(const StreamDataMsg& m,
                                       const StreamDataMsg* prev);
// Decodes against the same `prev` the encoder used.  A delta-mode attr
// with no base in `prev` is structural damage ("delta without base"),
// never a silently wrong value.  `delta_without_base`
// (optional) is set true when the failure is exactly that missing base —
// with `prev == nullptr` this means the frame is delta-coded and the
// receiver needs a snapshot to resync (StreamCache turns it into
// ApplyResult::needs_snapshot), whereas with a live base it is genuine
// damage.
Result<StreamDataMsg> decode_stream_data(std::string_view body,
                                         const StreamDataMsg* prev,
                                         bool* delta_without_base = nullptr);

// Header-only decode: agent, seq and window timestamp without touching the
// records.  Receivers use it to check the sequence number *before*
// committing to a delta decode (a gapped frame must wait for repair).
struct StreamFrameInfo {
  std::string agent;
  uint64_t seq = 0;
  SimTime window_start;
  uint32_t record_count = 0;
};
Result<StreamFrameInfo> peek_stream_data(std::string_view body);

// --- in-band telemetry reports (kIntReport) ----------------------------------
// One sampled packet's completed metadata stack crossing a process boundary
// (harvester → controller).  In-process harvesting bypasses the envelope;
// the codec is also what prices INT overhead (report bytes per flight).
//
//   body := u16-str agent | u64 tag | i64 start_ns | i64 end_ns | u8 flags |
//           u16 hop_count | hop*
//   hop  := u16-str element | u64 queue_pkts | i64 io_time_ns | u8 flags
//
// Message flags bit 0: the flight ended in a drop-tail.  Hop flags bit 0:
// the drop happened at this hop.  All other flag bits must be zero — a
// flipped bit is structural damage, never a silently different flight.

struct IntHopWire {
  ElementId element;
  uint64_t queue_pkts = 0;
  int64_t io_time_ns = 0;
  uint8_t flags = 0;  // bit 0: drop-tail at this hop
};

struct IntReportMsg {
  std::string agent;  // harvest key (the StreamCache agent key for INT)
  uint64_t tag = 0;   // flight id
  SimTime start;      // ingress tag time
  SimTime end;        // harvest / drop time
  bool dropped = false;
  std::vector<IntHopWire> hops;
};

// Fails (never clamps) on a name over 64 KiB, more than 65535 hops, or a
// body past kMaxPayload — a report that encodes decodes back identical.
Result<std::string> encode_int_report(const IntReportMsg& m);

// The body bytes encode_int_report writes for a report whose agent name is
// `agent_len` bytes and whose `hops` hops name elements of
// `element_len(0)` .. `element_len(hops - 1)` bytes — or nullopt exactly
// where encode_int_report refuses such a report (hop flags aside: a
// harvester only writes valid ones).  Prices a flight without building or
// encoding it; wire_test pins the two together.
template <typename ElementLen>
std::optional<size_t> int_report_size(size_t agent_len, size_t hops,
                                      ElementLen element_len) {
  constexpr size_t kStrLen = 2;                  // u16 length prefix
  constexpr size_t kFixed = 8 + 8 + 8 + 1 + 2;   // tag start end flags count
  constexpr size_t kHopFixed = 8 + 8 + 1;        // queue io_time flags
  if (agent_len > 0xffff || hops > 0xffff) return std::nullopt;
  size_t n = kStrLen + agent_len + kFixed;
  for (size_t i = 0; i < hops; ++i) {
    const size_t len = element_len(i);
    if (len > 0xffff) return std::nullopt;
    n += kStrLen + len + kHopFixed;
  }
  if (n > kMaxPayload) return std::nullopt;
  return n;
}
// Total over arbitrary bytes: truncation (any strict prefix), trailing
// bytes, and reserved flag bits all fail loudly.
Result<IntReportMsg> decode_int_report(std::string_view body);

}  // namespace perfsight::wire
