#include "perfsight/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>

namespace perfsight::wire {

namespace {

constexpr uint32_t kMessageMagic = 0x324d5350;  // "PSM2"

// Either stream codec side's refusal of a frame whose element ids descend.
constexpr const char* kDescend = "wire stream data element ids descend";

// Every wire refusal, encode or decode side, is an invalid_argument.
Status refuse(std::string text) {
  return Status::invalid_argument(std::move(text));
}

// The check's multiplier: odd, so every mixing step is a bijection of the
// running state.
constexpr uint64_t kCheckMul = 0x9e3779b97f4a7c15ULL;

// Folds `bytes` into `h` eight bytes per multiply step.  Words load in host
// order, like every field (the wire assumes a little-endian host); the last
// partial word is zero-padded and assembled byte by byte in that order,
// which spares a variable-length copy per short attr name.
uint64_t fold(uint64_t h, std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  const auto mix = [&h](uint64_t word) {
    h = (h ^ word) * kCheckMul;
    h ^= h >> 32;
  };
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    mix(word);
  }
  if (n > 0) {
    uint64_t word = 0;
    for (size_t i = 0; i < n; ++i) {
      word |= uint64_t{static_cast<uint8_t>(p[i])} << (8 * i);
    }
    mix(word);
  }
  return h;
}

// Writes little-endian fields through a cursor into one buffer, sized up
// front by encoders that know their size (the batch) and grown by doubling
// otherwise.  Input that cannot travel losslessly — a string longer than a
// u16, a count wider than its field, a body past kMaxPayload — is never
// clamped to fit: the writer remembers the first such field and finish()
// returns it as the encoder's Status.  Clamping would produce frames that
// checksum fine but decode to a record different from what was encoded.
class Writer {
 public:
  explicit Writer(size_t size = 0) { out_.resize(size); }

  // memcpy keeps the write alignment- and strict-aliasing-safe; on LE
  // hosts the compiler folds it to plain moves.
  template <typename T>
  void put(T v) {
    std::memcpy(room(sizeof(T)), &v, sizeof(T));
  }
  void f64(double v) { put(std::bit_cast<uint64_t>(v)); }
  // Overwrites the T at `at`: frame lengths and checksums are backfilled
  // once the payload behind them is written.
  template <typename T>
  void patch(size_t at, T v) {
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }
  void bytes(std::string_view b) {
    if (!b.empty()) std::memcpy(room(b.size()), b.data(), b.size());
  }

  // u16 length + bytes; `what` names the field in the refusal.
  void str(std::string_view s, const char* what) {
    const bool fits = check(s.size() <= 0xffff, [&] {
      return std::string("wire: ") + what + " exceeds 64 KiB: " +
             std::string(s.substr(0, 64));
    });
    if (!fits) return;
    put(static_cast<uint16_t>(s.size()));
    bytes(s);
  }
  // A count in a T-wide field.  `refusal` builds the Status text, and only
  // runs when the count does not fit.
  template <typename T, typename F>
  void count(size_t n, F refusal) {
    check(n <= std::numeric_limits<T>::max(), refusal);
    put(static_cast<T>(n));
  }
  // Records `refusal()` as the encoder's failure unless `ok` (or an earlier
  // field already failed).  Returns `ok`.
  template <typename F>
  bool check(bool ok, F refusal) {
    if (!ok && status_.is_ok()) status_ = refuse(refusal());
    return ok;
  }

  size_t size() const { return at_; }
  std::string_view view() const { return {out_.data(), at_}; }
  bool ok() const { return status_.is_ok(); }

  Result<std::string> finish() && {
    if (!status_.is_ok()) return status_;
    return std::move(*this).take();
  }
  // For the encoders whose inputs are validated where they enter the
  // system (ids at Agent::add_element): a refusal here is a programmer
  // error.
  std::string take() && {
    PS_CHECK(status_.is_ok());
    out_.resize(at_);
    return std::move(out_);
  }

 private:
  // The next `n` bytes at the cursor, growing the buffer when the encoder
  // did not size it up front.
  char* room(size_t n) {
    if (out_.size() - at_ < n) {
      out_.resize(std::max({out_.size() * 2, at_ + n, size_t{64}}));
    }
    char* p = out_.data() + at_;
    at_ += n;
    return p;
  }

  std::string out_;
  size_t at_ = 0;
  Status status_;
};

// Bounds-checked little-endian reads over untrusted bytes.  The first read
// that would run past the end sets a sticky failure flag; every later read
// yields zero / empty without touching memory, so a decoder reads its schema
// straight through and checks ok() or done() once.  The cursor never passes
// the end — a start offset past it is itself a failure — so no
// `size() - at` can wrap around.
class Reader {
 public:
  explicit Reader(std::string_view b, size_t at = 0)
      : b_(b), at_(std::min(at, b.size())), ok_(at <= b.size()) {}

  template <typename T>
  T get() {
    T v{};
    const std::string_view b = bytes(sizeof(T));
    if (!b.empty()) std::memcpy(&v, b.data(), sizeof(T));
    return v;
  }
  double f64() { return std::bit_cast<double>(get<uint64_t>()); }
  std::string_view bytes(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    std::string_view v = b_.substr(at_, n);
    at_ += n;
    return v;
  }
  std::string str() { return std::string(bytes(get<uint16_t>())); }
  // A T-wide element count.  Every element costs at least `min_item_bytes`,
  // so a count the remaining bytes could not hold is damage, refused before
  // anyone reserves memory for it.
  template <typename T>
  T count(size_t min_item_bytes) {
    const T n = get<T>();
    require(n <= remaining() / min_item_bytes + 1);
    return ok_ ? n : 0;
  }
  void require(bool cond) { ok_ = ok_ && cond; }

  size_t remaining() const { return b_.size() - at_; }
  bool ok() const { return ok_; }
  // Whole input consumed: trailing bytes are damage.
  bool done() const { return ok_ && at_ == b_.size(); }
  // A decoder's result: `value` when the schema read cleanly to the last
  // byte, else the structural-damage Status naming `what`.
  template <typename T>
  Result<T> finish(T value, const char* what) const {
    if (!done()) return refuse(std::string(what) + " structurally damaged");
    return value;
  }

 private:
  std::string_view b_;
  size_t at_;
  bool ok_;
};

// The id lists hellos and batch requests carry: u32 count | u16-str*.
void put_ids(Writer& w, const std::vector<ElementId>& ids) {
  w.count<uint32_t>(ids.size(), [] { return "wire: id list exceeds u32"; });
  for (const ElementId& id : ids) w.str(id.name, "element name");
}

std::vector<ElementId> get_ids(Reader& in) {
  const auto n = in.count<uint32_t>(2);  // an id is at least its length
  std::vector<ElementId> ids;
  ids.reserve(n);
  for (uint32_t i = 0; i < n && in.ok(); ++i) ids.push_back({in.str()});
  return ids;
}

// The record header PSB2 payloads and stream records share (wire.h).
void put_record_header(Writer& w, const QueryResponse& r) {
  w.put<int64_t>(r.record.timestamp.ns());
  w.put<uint8_t>(static_cast<uint8_t>(r.quality));
  w.put<uint8_t>(static_cast<uint8_t>(r.fail_code));
  w.put<uint32_t>(r.attempts);
  w.put<int64_t>(r.response_time.ns());
  w.str(r.record.element.name, "element name");
}

// An out-of-range quality or fail code is damage, never a silently
// different record.
void get_record_header(Reader& in, QueryResponse* r) {
  r->record.timestamp = SimTime::nanos(in.get<int64_t>());
  const auto quality = in.get<uint8_t>();
  const auto fail_code = in.get<uint8_t>();
  r->attempts = in.get<uint32_t>();
  r->response_time = Duration::nanos(in.get<int64_t>());
  r->record.element = ElementId{in.str()};
  in.require(quality <= static_cast<uint8_t>(DataQuality::kReplica) &&
             fail_code <= static_cast<uint8_t>(StatusCode::kDeadlineExceeded));
  r->quality = static_cast<DataQuality>(quality);
  r->fail_code = static_cast<StatusCode>(fail_code);
}

std::string attr_count_refusal(const QueryResponse& r, const char* limit) {
  return "wire: element " + r.record.element.name + " has " +
         std::to_string(r.record.attrs.size()) + " attrs (" + limit + ")";
}

// Bit 15 of a PSB2 frame's attr field: the frame names an entry of its
// batch's schema table (low 15 bits) instead of carrying attr names.  The
// same bit marks an elided schema in stream records.
constexpr uint16_t kSchemaRef = 0x8000;
constexpr uint16_t kSchemaIndex = 0x7fff;

// Record header with an empty element name plus the attr field: the least
// a frame payload can hold.
constexpr size_t kMinPayload = 8 + 1 + 1 + 4 + 8 + 2 + 2;

// The same attr names in the same order.
bool same_names(const std::vector<Attr>& a, const std::vector<Attr>& b) {
  return std::ranges::equal(a, b, {}, &Attr::name, &Attr::name);
}

// The encoder's side of a batch's schema table: every frame that carries
// its names appends them, and a later frame with the same names (found by
// hash, confirmed by comparing them) refers to that entry instead.
// Returns one attr field per response: 0 when the frame carries its
// names, else kSchemaRef | table index.  encode_batch sizes and writes
// from this one decision.
std::vector<uint16_t> plan_schemas(const std::vector<QueryResponse>& rs) {
  struct Slot {
    uint64_t hash = 0;
    uint32_t owner = 0;  // the response that defined the entry
    uint32_t entry = 0;  // table index + 1; 0 = empty slot
  };
  // Only the entries a 15-bit index can name are hashed, into a table
  // kept at most half full.
  const size_t mask =
      std::bit_ceil(2 * std::min(rs.size(), size_t{kSchemaIndex} + 1)) - 1;
  std::vector<Slot> slots(mask + 1);
  std::vector<uint16_t> fields(rs.size(), 0);
  uint32_t defined = 0;  // table entries so far
  for (size_t i = 0; i < rs.size(); ++i) {
    const std::vector<Attr>& attrs = rs[i].record.attrs;
    uint64_t hash = attrs.size();
    for (const Attr& a : attrs) hash = fold(hash ^ a.name.size(), a.name);
    size_t at = hash & mask;
    while (slots[at].entry != 0 &&
           !(slots[at].hash == hash &&
             same_names(rs[slots[at].owner].record.attrs, attrs))) {
      at = (at + 1) & mask;
    }
    if (slots[at].entry != 0) {
      fields[i] = static_cast<uint16_t>(kSchemaRef | (slots[at].entry - 1));
      continue;
    }
    if (defined <= kSchemaIndex) {
      slots[at] = {hash, static_cast<uint32_t>(i), defined + 1};
    }
    ++defined;
  }
  return fields;
}

// One frame, written in place behind whatever `w` already holds: the prefix
// is reserved, the payload written, then its length and checksum are
// backfilled.  `field` is the frame's attr field from plan_schemas (0 for a
// standalone frame): a reference writes the values alone.
void put_frame(Writer& w, const QueryResponse& r, uint16_t field) {
  const size_t start = w.size();
  w.put<uint32_t>(0);
  w.put<uint64_t>(0);
  put_record_header(w, r);
  const std::vector<Attr>& attrs = r.record.attrs;
  if (field != 0) {
    w.put<uint16_t>(field);
    for (const Attr& a : attrs) w.f64(a.value);
  } else {
    w.check(attrs.size() <= kMaxAttrs,
            [&] { return attr_count_refusal(r, "wire limit 32767"); });
    w.put<uint16_t>(static_cast<uint16_t>(attrs.size()));
    for (const Attr& a : attrs) {
      w.str(a.name, "attr name");
      w.f64(a.value);
    }
  }
  const size_t len = w.size() - start - kFramePrefixSize;
  w.check(len <= kMaxPayload, [&] {
    return "wire: frame payload for element " + r.record.element.name +
           " is " + std::to_string(len) + " bytes (cap " +
           std::to_string(kMaxPayload) + ")";
  });
  w.patch<uint32_t>(start, static_cast<uint32_t>(len));
  w.patch<uint64_t>(start + 4,
                    checksum(w.view().substr(start + kFramePrefixSize)));
}

// The bytes put_frame writes for `r` under the same `field`.  encode_batch
// checks the two agree, so a layout change that misses this fails every
// batch test.
size_t frame_size(const QueryResponse& r, uint16_t field) {
  size_t n = kFramePrefixSize + kMinPayload + r.record.element.name.size();
  for (const Attr& a : r.record.attrs) {
    n += 8 + (field != 0 ? 0 : 2 + a.name.size());
  }
  return n;
}

// Decodes the frame at the head of `bytes` into `*r`, its whole size into
// `*size` (only on success).  `decoded` and `schemas` are the batch so far
// and its schema table (the index in `decoded` of each frame that carried
// names); both are null for a standalone frame, which may not refer to a
// table.  A verified checksum makes structural damage unreachable in
// practice, but the decoder must not trust it.
Status get_frame(std::string_view bytes,
                 const std::vector<QueryResponse>* decoded,
                 std::vector<uint32_t>* schemas, QueryResponse* r,
                 size_t* size) {
  Result<Prefix> p = parse_frame_prefix(bytes);
  if (!p.ok()) return p.status();
  const uint32_t len = p.value().body_len;
  if (bytes.size() - kFramePrefixSize < len) {
    return refuse("wire frame truncated in payload");
  }
  std::string_view payload = bytes.substr(kFramePrefixSize, len);
  if (checksum(payload) != p.value().checksum) {
    return refuse("wire frame checksum mismatch");
  }
  Reader in(payload);
  get_record_header(in, r);
  const auto field = in.get<uint16_t>();
  std::vector<Attr>& attrs = r->record.attrs;
  if (in.ok() && (field & kSchemaRef) != 0) {
    if (schemas == nullptr) {
      return refuse("wire frame refers to a batch schema outside a batch");
    }
    const size_t entry = field & kSchemaIndex;
    if (entry >= schemas->size()) {
      return refuse("wire frame names an undefined batch schema");
    }
    const std::vector<Attr>& names = (*decoded)[(*schemas)[entry]].record.attrs;
    if (in.remaining() != 8 * names.size()) {
      return refuse("wire frame value count differs from its batch schema");
    }
    attrs.reserve(names.size());
    for (const Attr& a : names) attrs.push_back({a.name, in.f64()});
  } else {
    // Every attr costs at least its name length and value: a count the
    // payload could not hold is refused before anything is reserved.
    in.require(field <= in.remaining() / (2 + 8) + 1);
    const uint16_t n = in.ok() ? field : 0;
    attrs.reserve(n);
    for (uint16_t i = 0; i < n && in.ok(); ++i) {
      attrs.push_back({in.str(), in.f64()});
    }
    if (schemas != nullptr && in.done()) {
      schemas->push_back(static_cast<uint32_t>(decoded->size()));
    }
  }
  if (!in.done()) return refuse("wire frame structurally damaged");
  *size = kFramePrefixSize + len;
  return Status::ok();
}

// The base value attr `i` (named `name`) deltas against: positional under
// an elided schema, by name otherwise.
std::optional<double> base_value(const QueryResponse* base, bool same_schema,
                                 size_t i, const std::string& name) {
  if (same_schema) return base->record.attrs[i].value;
  if (base != nullptr) return base->record.get(name);
  return std::nullopt;
}

// The cheapest exact coding of `v` against `base`: returns the mode and
// leaves its payload in `*bits`.  Delta only when the receiver's
// reconstruction (base + delta, in double arithmetic) is bit-exact; counters
// between adjacent windows are, NaNs / wildly rescaled gauges are not and
// travel absolute.  Unchanged values (gauges, type/vm tags) ship zero
// payload bytes (mode 3); small non-negative integral deltas — the
// overwhelmingly common counter advance — four (mode 2) instead of eight.
uint8_t value_mode(double v, std::optional<double> base, uint64_t* bits) {
  *bits = std::bit_cast<uint64_t>(v);
  if (!base.has_value()) return 0;
  if (std::bit_cast<uint64_t>(*base) == *bits) return 3;
  const double delta = v - *base;
  if (std::bit_cast<uint64_t>(*base + delta) != *bits) return 0;
  const auto small = static_cast<uint32_t>(delta);
  if (delta >= 0 && delta < 4294967296.0 &&
      static_cast<double>(small) == delta) {
    *bits = small;
    return 2;
  }
  *bits = std::bit_cast<uint64_t>(delta);
  return 1;
}

// The header of a stream body, read by peek and by the full decode; returns
// the record count.
uint32_t get_stream_header(Reader& in, std::string* agent, uint64_t* seq,
                           SimTime* window_start, Duration* channel_time) {
  *agent = in.str();
  *seq = in.get<uint64_t>();
  *window_start = SimTime::nanos(in.get<int64_t>());
  *channel_time = Duration::nanos(in.get<int64_t>());
  // A record is at least its header (empty element) plus its attr count.
  return in.count<uint32_t>(8 + 1 + 1 + 4 + 8 + 2 + 2);
}

}  // namespace

Result<BatchResponse> parse_batch_header(std::string_view bytes,
                                         DecodeStats* stats) {
  Reader in(bytes);
  const auto magic = in.get<uint32_t>();
  const auto frames = in.get<uint32_t>();
  BatchResponse b;
  b.channel_time = Duration::nanos(in.get<int64_t>());
  b.unknown_ids = in.get<uint32_t>();
  if (!in.ok()) return refuse("wire batch shorter than header");
  if (magic != kMagic) return refuse("wire batch bad magic");
  stats->frames_expected = frames;
  return b;
}

Result<Prefix> parse_frame_prefix(std::string_view bytes, size_t at) {
  Reader in(bytes, at);
  Prefix p;
  p.body_len = in.get<uint32_t>();
  p.checksum = in.get<uint64_t>();
  if (!in.ok()) return refuse("wire frame truncated in prefix");
  // A length no later bytes could satisfy reads as a payload cut short.
  if (p.body_len > kMaxPayload) {
    return refuse("wire frame truncated in payload");
  }
  return p;
}

Result<Prefix> parse_message_prefix(std::string_view bytes, size_t at) {
  Reader in(bytes, at);
  const auto magic = in.get<uint32_t>();
  const auto kind = in.get<uint8_t>();
  Prefix p;
  p.body_len = in.get<uint32_t>();
  p.checksum = in.get<uint64_t>();
  if (!in.ok()) return refuse("wire message truncated in prefix");
  if (magic != kMessageMagic) return refuse("wire message bad magic");
  if (kind < static_cast<uint8_t>(MessageKind::kHello) ||
      kind > static_cast<uint8_t>(MessageKind::kIntReport)) {
    return refuse("wire message unknown kind");
  }
  if (p.body_len > kMaxPayload) return refuse("wire message truncated in body");
  p.kind = static_cast<MessageKind>(kind);
  return p;
}

uint64_t checksum(std::string_view bytes) {
  uint64_t h = fold(0x6a09e667f3bcc909ULL ^ bytes.size(), bytes);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 32);
}

Result<std::string> encode_frame(const QueryResponse& r) {
  Writer w(frame_size(r, 0));
  put_frame(w, r, 0);
  return std::move(w).finish();
}

Result<std::string> encode_batch(const BatchResponse& b) {
  // Sized up front, so the batch is written into one allocation of its
  // exact size, which the fleet server queues as is.
  const std::vector<uint16_t> fields = plan_schemas(b.responses);
  size_t size = kBatchHeaderSize;
  for (size_t i = 0; i < fields.size(); ++i) {
    size += frame_size(b.responses[i], fields[i]);
  }
  Writer w(size);
  w.put<uint32_t>(kMagic);
  w.count<uint32_t>(b.responses.size(),
                    [] { return "wire: batch frame count exceeds u32"; });
  w.put<uint64_t>(static_cast<uint64_t>(b.channel_time.ns()));
  w.put<uint32_t>(static_cast<uint32_t>(b.unknown_ids));
  for (size_t i = 0; i < fields.size(); ++i) {
    put_frame(w, b.responses[i], fields[i]);
  }
  PS_CHECK(!w.ok() || w.size() == size);
  return std::move(w).finish();
}

Result<QueryResponse> decode_frame(std::string_view bytes, size_t* consumed) {
  *consumed = 0;
  QueryResponse r;
  Status st = get_frame(bytes, nullptr, nullptr, &r, consumed);
  if (!st.is_ok()) return st;
  return r;
}

Result<BatchResponse> decode_batch(std::string_view bytes,
                                   DecodeStats* stats) {
  DecodeStats local;
  DecodeStats& st = stats != nullptr ? *stats : local;
  st = DecodeStats{};

  Result<BatchResponse> header = parse_batch_header(bytes, &st);
  if (!header.ok()) return header;
  BatchResponse& out = header.value();
  // A hostile frame count reserves no more than the bytes could hold.
  out.responses.reserve(std::min(
      st.frames_expected,
      (bytes.size() - kBatchHeaderSize) / (kFramePrefixSize + kMinPayload)));
  std::vector<uint32_t> schemas;
  size_t at = kBatchHeaderSize;
  for (size_t i = 0; i < st.frames_expected; ++i) {
    size_t size = 0;
    QueryResponse r;
    Status frame =
        get_frame(bytes.substr(at), &out.responses, &schemas, &r, &size);
    if (!frame.is_ok()) {
      // Truncation if the bytes simply ran out; corruption otherwise.  Either
      // way the length chain past this point is untrustworthy: stop.
      if (at >= bytes.size()) {
        st.truncated = true;
      } else {
        st.corrupt = true;
      }
      st.damage = frame.message();
      return header;
    }
    at += size;
    ++st.frames_ok;
    if (r.quality != DataQuality::kFresh) ++out.degraded;
    out.responses.push_back(std::move(r));
  }
  st.trailing_bytes = bytes.size() - at;
  return header;
}

BatchResponse reconcile(const std::vector<ElementId>& sorted_ids,
                        const BatchResponse& decoded, SimTime now) {
  BatchResponse out;
  out.channel_time = decoded.channel_time;
  out.unknown_ids = decoded.unknown_ids;
  size_t ri = 0;
  for (const ElementId& id : sorted_ids) {
    while (ri < decoded.responses.size() &&
           decoded.responses[ri].record.element < id) {
      ++ri;
    }
    if (ri < decoded.responses.size() &&
        decoded.responses[ri].record.element == id) {
      out.responses.push_back(decoded.responses[ri]);
      ++ri;
    } else {
      // Frame lost on the wire: the element stays visible as a blind spot.
      out.responses.push_back(blind_spot(id, now, StatusCode::kUnavailable));
    }
    if (out.responses.back().quality != DataQuality::kFresh) ++out.degraded;
  }
  return out;
}

// --- transport control messages ---------------------------------------------

const char* to_string(MessageKind k) {
  static constexpr const char* kNames[] = {
      "?",          "hello",         "batch_request", "single_request",
      "list_elements", "single_response", "error",   "trace_harvest",
      "trace_data", "subscribe",     "stream_data",   "int_report"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(MessageKind::kIntReport) + 1);
  const auto i = static_cast<size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "?";
}

std::string encode_message(MessageKind kind, std::string_view body) {
  PS_CHECK(body.size() <= kMaxPayload);
  Writer w(kMessagePrefixSize + body.size());
  w.put<uint32_t>(kMessageMagic);
  w.put<uint8_t>(static_cast<uint8_t>(kind));
  w.put<uint32_t>(static_cast<uint32_t>(body.size()));
  w.put<uint64_t>(checksum(body));
  w.bytes(body);
  return std::move(w).take();
}

Result<Message> decode_message(std::string_view bytes, size_t* consumed) {
  if (consumed != nullptr) *consumed = 0;
  Result<Prefix> p = parse_message_prefix(bytes);
  if (!p.ok()) return p.status();
  const uint32_t len = p.value().body_len;
  if (bytes.size() - kMessagePrefixSize < len) {
    return refuse("wire message truncated in body");
  }
  std::string_view body = bytes.substr(kMessagePrefixSize, len);
  if (checksum(body) != p.value().checksum) {
    return refuse("wire message checksum mismatch");
  }
  if (consumed != nullptr) *consumed = kMessagePrefixSize + len;
  return Message{p.value().kind, std::string(body)};
}

std::string encode_hello(const HelloMsg& h) {
  PS_CHECK(!h.roster.empty());
  Writer w;
  w.put<int64_t>(h.clock_ns);
  w.count<uint32_t>(h.roster.size(), [] { return "wire: roster exceeds u32"; });
  for (const HelloMsg::AgentInfo& a : h.roster) {
    w.str(a.name, "agent name");
    put_ids(w, a.elements);
  }
  return std::move(w).take();
}

Result<HelloMsg> decode_hello(std::string_view body) {
  HelloMsg h;
  Reader in(body);
  h.clock_ns = in.get<int64_t>();
  // A roster entry costs at least a name length (2) and an id count (4).
  const auto n = in.count<uint32_t>(6);
  in.require(n > 0);
  h.roster.reserve(n);
  for (uint32_t i = 0; i < n && in.ok(); ++i) {
    HelloMsg::AgentInfo a;
    a.name = in.str();
    a.elements = get_ids(in);
    h.roster.push_back(std::move(a));
  }
  return in.finish(std::move(h), "wire hello");
}

std::string encode_batch_request(const BatchRequestMsg& r) {
  Writer w;
  w.put<int64_t>(r.now.ns());
  put_ids(w, r.ids);
  w.put<uint64_t>(r.trace_id);
  w.put<uint64_t>(r.parent_span);
  w.str(r.agent, "agent name");
  return std::move(w).take();
}

Result<BatchRequestMsg> decode_batch_request(std::string_view body) {
  BatchRequestMsg r;
  Reader in(body);
  r.now = SimTime::nanos(in.get<int64_t>());
  r.ids = get_ids(in);
  r.trace_id = in.get<uint64_t>();
  r.parent_span = in.get<uint64_t>();
  r.agent = in.str();
  in.require(!r.agent.empty());
  return in.finish(std::move(r), "wire batch request");
}

// --- trace data --------------------------------------------------------------

std::string encode_trace_data(const TraceDataMsg& t) {
  Writer w;
  w.str(t.process, "process name");
  w.count<uint32_t>(t.events.size(),
                    [] { return "wire: event count exceeds u32"; });
  for (const TraceEvent& e : t.events) {
    w.put<int64_t>(e.t.ns());
    w.put<uint8_t>(static_cast<uint8_t>(e.kind));
    w.f64(e.value);
    w.put<uint64_t>(e.span_id);
    w.put<uint64_t>(e.parent_span);
    w.put<int64_t>(e.dur.ns());
    w.str(e.element, "element name");
    w.str(e.detail, "trace detail");
  }
  return std::move(w).take();
}

Result<TraceDataMsg> decode_trace_data(std::string_view body) {
  TraceDataMsg t;
  Reader in(body);
  t.process = in.str();
  // An event's two strings may be empty but each still costs its 2-byte
  // length prefix.
  const auto n = in.count<uint32_t>(8 + 1 + 8 + 8 + 8 + 8 + 2 + 2);
  t.events.reserve(n);
  for (uint32_t i = 0; i < n && in.ok(); ++i) {
    TraceEvent e;
    e.t = SimTime::nanos(in.get<int64_t>());
    const auto kind = in.get<uint8_t>();
    in.require(kind <= static_cast<uint8_t>(TraceEventKind::kSpanServerBatch));
    e.kind = static_cast<TraceEventKind>(kind);
    e.value = in.f64();
    e.span_id = in.get<uint64_t>();
    e.parent_span = in.get<uint64_t>();
    e.dur = Duration::nanos(in.get<int64_t>());
    e.element = in.str();
    e.detail = in.str();
    t.events.push_back(std::move(e));
  }
  return in.finish(std::move(t), "wire trace data");
}

// --- push-mode streaming -----------------------------------------------------
// Layout and value modes: see StreamDataMsg in wire.h.

std::string encode_subscribe(const SubscribeMsg& s) {
  Writer w;
  w.str(s.agent, "agent name");
  w.put<uint64_t>(s.from_seq);
  w.put<int64_t>(s.window_ns);
  return std::move(w).take();
}

Result<SubscribeMsg> decode_subscribe(std::string_view body) {
  SubscribeMsg s;
  Reader in(body);
  s.agent = in.str();
  in.require(!s.agent.empty());
  s.from_seq = in.get<uint64_t>();
  s.window_ns = in.get<int64_t>();
  return in.finish(std::move(s), "wire subscribe");
}

Result<std::string> encode_stream_data(const StreamDataMsg& m,
                                       const StreamDataMsg* prev) {
  Writer w;
  w.str(m.agent, "agent name");
  w.put<uint64_t>(m.seq);
  w.put<int64_t>(m.window_start.ns());
  w.put<int64_t>(m.channel_time.ns());
  w.count<uint32_t>(m.responses.size(),
                    [] { return "wire: stream record count exceeds u32"; });
  IdCursor<QueryResponse> bases(prev != nullptr ? &prev->responses : nullptr);
  const ElementId* last = nullptr;
  for (const QueryResponse& r : m.responses) {
    // Frames ascend by element id, as the decoder requires.
    w.check(last == nullptr || !(r.record.element < *last),
            [] { return kDescend; });
    last = &r.record.element;
    put_record_header(w, r);
    const size_t n = r.record.attrs.size();
    w.check(n <= kMaxAttrs,
            [&] { return attr_count_refusal(r, "stream limit 32767"); });
    const QueryResponse* base = bases.find(r.record.element);
    // Schema elision: when the base record carries the same attr names in
    // the same order — the steady state — the names are omitted entirely.
    const bool same_schema =
        base != nullptr && same_names(base->record.attrs, r.record.attrs);
    w.put<uint16_t>(static_cast<uint16_t>(
        (n & kMaxAttrs) | (same_schema ? kSchemaRef : 0)));
    for (size_t i = 0; i < n; ++i) {
      const Attr& a = r.record.attrs[i];
      uint64_t bits = 0;
      const uint8_t mode = value_mode(
          a.value, base_value(base, same_schema, i, a.name), &bits);
      w.put<uint8_t>(mode);
      // An elided name is still refused if it could never travel (str()
      // writes nothing for such a name, only the refusal).
      if (!same_schema || a.name.size() > 0xffff) w.str(a.name, "attr name");
      if (mode == 2) {
        w.put<uint32_t>(static_cast<uint32_t>(bits));
      } else if (mode != 3) {
        w.put<uint64_t>(bits);
      }
    }
  }
  w.check(w.size() <= kMaxPayload, [&] {
    return "wire: stream frame of " + std::to_string(w.size()) +
           " bytes exceeds the structural cap";
  });
  return std::move(w).finish();
}

Result<StreamFrameInfo> peek_stream_data(std::string_view body) {
  StreamFrameInfo info;
  Duration channel_time;
  Reader in(body);
  info.record_count = get_stream_header(in, &info.agent, &info.seq,
                                        &info.window_start, &channel_time);
  if (!in.ok()) return refuse("wire stream data structurally damaged");
  return info;
}

Result<StreamDataMsg> decode_stream_data(std::string_view body,
                                         const StreamDataMsg* prev,
                                         bool* delta_without_base) {
  if (delta_without_base != nullptr) *delta_without_base = false;
  // Delta (or elided schema) without its base is damage, never a silently
  // wrong value: a receiver that missed a window must repair it first.
  auto no_base = [&]() -> Result<StreamDataMsg> {
    if (delta_without_base != nullptr) *delta_without_base = true;
    return refuse("wire stream data delta without base");
  };
  Reader in(body);
  StreamDataMsg m;
  const uint32_t records = get_stream_header(in, &m.agent, &m.seq,
                                             &m.window_start, &m.channel_time);
  m.responses.reserve(records);
  IdCursor<QueryResponse> bases(prev != nullptr ? &prev->responses : nullptr);
  for (uint32_t i = 0; i < records && in.ok(); ++i) {
    QueryResponse r;
    get_record_header(in, &r);
    const auto count_field = in.get<uint16_t>();
    if (!in.ok()) break;
    // Frames ascend by element id; equal neighbours are a duplicated id.
    if (!m.responses.empty() &&
        r.record.element < m.responses.back().record.element) {
      return refuse(kDescend);
    }
    const bool same_schema = (count_field & kSchemaRef) != 0;
    const uint16_t n = count_field & kMaxAttrs;
    const QueryResponse* base = bases.find(r.record.element);
    // Elided schema without its base record (or with a base of a different
    // shape) is the same class of damage as a delta without its base.
    if (same_schema && (base == nullptr || base->record.attrs.size() != n)) {
      return no_base();
    }
    r.record.attrs.reserve(n);
    for (uint16_t j = 0; j < n && in.ok(); ++j) {
      Attr a;
      const auto mode = in.get<uint8_t>();
      in.require(mode <= 3);
      a.name = same_schema ? base->record.attrs[j].name : in.str();
      const uint64_t bits = mode == 2   ? in.get<uint32_t>()
                            : mode == 3 ? 0
                                        : in.get<uint64_t>();
      if (!in.ok()) break;
      if (mode == 0) {
        a.value = std::bit_cast<double>(bits);
      } else {
        const std::optional<double> pv =
            base_value(base, same_schema, j, a.name);
        if (!pv.has_value()) return no_base();
        a.value = mode == 3   ? *pv
                  : mode == 2 ? *pv + static_cast<double>(bits)
                              : *pv + std::bit_cast<double>(bits);
      }
      r.record.attrs.push_back(std::move(a));
    }
    m.responses.push_back(std::move(r));
  }
  return in.finish(std::move(m), "wire stream data");
}

// --- in-band telemetry reports -----------------------------------------------

Result<std::string> encode_int_report(const IntReportMsg& m) {
  Writer w;
  w.str(m.agent, "agent name");
  w.put<uint64_t>(m.tag);
  w.put<int64_t>(m.start.ns());
  w.put<int64_t>(m.end.ns());
  w.put<uint8_t>(m.dropped ? 1 : 0);
  w.count<uint16_t>(m.hops.size(), [&] {
    return "wire: int report of " + std::to_string(m.hops.size()) +
           " hops exceeds the structural cap";
  });
  for (const IntHopWire& h : m.hops) {
    w.str(h.element.name, "element name");
    w.check(h.flags <= 1,
            [] { return "wire: int hop carries reserved flag bits"; });
    w.put<uint64_t>(h.queue_pkts);
    w.put<int64_t>(h.io_time_ns);
    w.put<uint8_t>(h.flags);
  }
  w.check(w.size() <= kMaxPayload, [&] {
    return "wire: int report of " + std::to_string(w.size()) +
           " bytes exceeds the structural cap";
  });
  return std::move(w).finish();
}

Result<IntReportMsg> decode_int_report(std::string_view body) {
  IntReportMsg m;
  Reader in(body);
  m.agent = in.str();
  m.tag = in.get<uint64_t>();
  m.start = SimTime::nanos(in.get<int64_t>());
  m.end = SimTime::nanos(in.get<int64_t>());
  const auto flags = in.get<uint8_t>();
  in.require(flags <= 1);  // reserved bits set = damage
  m.dropped = flags != 0;
  const auto n = in.count<uint16_t>(2 + 8 + 8 + 1);
  m.hops.reserve(n);
  for (uint16_t i = 0; i < n && in.ok(); ++i) {
    IntHopWire h;
    h.element = ElementId{in.str()};
    h.queue_pkts = in.get<uint64_t>();
    h.io_time_ns = in.get<int64_t>();
    h.flags = in.get<uint8_t>();
    in.require(h.flags <= 1);
    m.hops.push_back(std::move(h));
  }
  return in.finish(std::move(m), "wire int report");
}

}  // namespace perfsight::wire
