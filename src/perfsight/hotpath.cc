#include "perfsight/hotpath.h"

#include <chrono>
#include <cstring>

#include "perfsight/trace.h"

namespace perfsight {

const char* to_string(MbWorkKind k) {
  switch (k) {
    case MbWorkKind::kProxy:
      return "Proxy";
    case MbWorkKind::kLoadBalancer:
      return "LB";
    case MbWorkKind::kCache:
      return "Cache";
    case MbWorkKind::kRedundancyElim:
      return "RE";
    case MbWorkKind::kIps:
      return "IPS";
  }
  return "?";
}

namespace {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// FNV-1a over a span; the inner loop of several work models.
inline uint64_t fnv1a(const uint8_t* data, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Emulates the kernel interaction of one I/O method — syscall entry, TCP
// processing, skb handling — as ~1-2 us of real compute.  Without this a
// user-space memcpy alone (tens of ns) would make the time counters look
// relatively enormous; real middleboxes pay microseconds per packet in the
// kernel, which is the regime the paper's <2% overhead claim lives in.
inline uint64_t kernel_io_emulation(uint8_t* scratch, uint64_t seed) {
  uint64_t h = seed | 1;
  for (int pass = 0; pass < 3; ++pass) {
    h = fnv1a(scratch, 512, h);
    scratch[h & 511] = static_cast<uint8_t>(h);
  }
  return h;
}

// Per-kind packet processing.  `in` and `out` are packet-sized buffers;
// returns a value data-dependent on the payload so nothing is elided, and
// adds the payload bytes it hashed, scanned or copied to `worked`.
uint64_t process_packet(MbWorkKind kind, const uint8_t* in, uint8_t* out,
                        uint32_t n, uint64_t seq,
                        std::vector<uint64_t>& table, uint64_t& worked) {
  // Every kind forwards the payload.
  worked += n;
  switch (kind) {
    case MbWorkKind::kProxy: {
      // Pure forwarding: payload copy is the whole job.
      std::memcpy(out, in, n);
      return out[0] + out[n - 1];
    }
    case MbWorkKind::kLoadBalancer: {
      // Hash the "5-tuple" (first 13 bytes), pick a backend, forward.
      const uint32_t tuple = n < 13 ? n : 13;
      uint64_t h = fnv1a(in, tuple, 1469598103934665603ULL);
      worked += tuple;
      std::memcpy(out, in, n);
      return h % 8;
    }
    case MbWorkKind::kCache: {
      // Digest the payload, probe a small object table.
      uint64_t h = fnv1a(in, n, 1469598103934665603ULL);
      worked += n;
      uint64_t& slot = table[h % table.size()];
      uint64_t hit = slot == h ? 1 : 0;
      slot = h;
      std::memcpy(out, in, n);
      return h + hit;
    }
    case MbWorkKind::kRedundancyElim: {
      // Rolling fingerprints every 32 bytes (SmartRE-style chunking).
      uint64_t acc = seq;
      for (uint32_t i = 0; i + 32 <= n; i += 32) {
        acc ^= fnv1a(in + i, 32, acc | 1);
        table[acc % table.size()] = acc;
        worked += 32;
      }
      std::memcpy(out, in, n);
      return acc;
    }
    case MbWorkKind::kIps: {
      // Byte scan against a tiny signature set (first bytes of patterns).
      static constexpr uint8_t kSigs[4] = {0x90, 0xCC, 0x7F, 0x41};
      uint64_t matches = 0;
      for (uint32_t i = 0; i < n; ++i) {
        uint8_t b = in[i];
        matches += (b == kSigs[0]) + (b == kSigs[1]) + (b == kSigs[2]) +
                   (b == kSigs[3]);
      }
      worked += n;
      std::memcpy(out, in, n);
      return matches;
    }
  }
  return 0;
}

}  // namespace

HotpathResult run_hotpath(const HotpathConfig& cfg, uint64_t packets) {
  HotpathResult res;
  std::vector<uint8_t> in(cfg.packet_bytes);
  std::vector<uint8_t> out(cfg.packet_bytes);
  std::vector<uint8_t> wire(cfg.packet_bytes);
  std::vector<uint8_t> kernel_scratch(512, 0xA5);
  std::vector<uint64_t> table(4096, 0);
  for (uint32_t i = 0; i < cfg.packet_bytes; ++i) {
    wire[i] = static_cast<uint8_t>(i * 131 + 7);
  }

  // Worst-case tracing load: one flight-recorder event per packet.  The
  // ring pointer is cached outside the loop (the recommended hot-path
  // pattern), so the per-packet cost is the ring push itself.
  TraceRing* trace_ring = nullptr;
  if (cfg.trace_events && TraceRecorder::global().enabled()) {
    trace_ring = TraceRecorder::global().ring(
        ElementId{std::string("hotpath/") + to_string(cfg.kind)});
  }

  uint64_t checksum = 0;
  uint64_t start = now_ns();
  for (uint64_t p = 0; p < packets; ++p) {
    // Input method: fetch the packet from the "kernel" (a memcpy), possibly
    // under a time counter — exactly what PerfSight instruments in real
    // middlebox software.
    {
      auto recv = [&] {
        checksum += kernel_io_emulation(kernel_scratch.data(), p);
        std::memcpy(in.data(), wire.data(), cfg.packet_bytes);
      };
      if (cfg.time_counters) {
        ScopedIoTimer t(res.stats.in_time);
        recv();
      } else {
        recv();
      }
      if (cfg.simple_counters) {
        res.stats.pkts_in.increment();
        res.stats.bytes_in.add(cfg.packet_bytes);
      }
    }
    in[0] = static_cast<uint8_t>(p);  // vary payloads slightly

    checksum += process_packet(cfg.kind, in.data(), out.data(),
                               cfg.packet_bytes, p, table,
                               res.payload_bytes_worked);

    // Output method: push to the "kernel".
    {
      auto send = [&] {
        checksum += kernel_io_emulation(kernel_scratch.data(), ~p);
        std::memcpy(wire.data(), out.data(), cfg.packet_bytes);
      };
      if (cfg.time_counters) {
        ScopedIoTimer t(res.stats.out_time);
        send();
      } else {
        send();
      }
      if (cfg.simple_counters) {
        res.stats.pkts_out.increment();
        res.stats.bytes_out.add(cfg.packet_bytes);
      }
    }

    if (trace_ring != nullptr) {
      // Synthetic per-packet timestamp: no clock read on the fast path.
      trace_ring->push(SimTime::nanos(static_cast<int64_t>(p)),
                       TraceEventKind::kDrop, 1, "hotpath packet");
    }
  }
  res.wall_ns = now_ns() - start;
  res.packets = packets;
  res.checksum = checksum;
  return res;
}

double measure_simple_counter_ns(uint64_t iters) {
  Counter c;
  uint64_t start = now_ns();
  for (uint64_t i = 0; i < iters; ++i) {
    c.add(i & 1 ? 1500 : 64);
  }
  uint64_t elapsed = now_ns() - start;
  // Keep the counter alive across optimization.
  volatile uint64_t sink = c.value();
  (void)sink;
  return static_cast<double>(elapsed) / static_cast<double>(iters);
}

double measure_time_counter_ns(uint64_t iters) {
  IoTimeCounter c;
  uint64_t start = now_ns();
  for (uint64_t i = 0; i < iters; ++i) {
    ScopedIoTimer t(c);
  }
  uint64_t elapsed = now_ns() - start;
  volatile uint64_t sink = c.nanos();
  (void)sink;
  return static_cast<double>(elapsed) / static_cast<double>(iters);
}

StatsRecord HotpathStatsSource::collect(SimTime now) const {
  StatsRecord r;
  r.timestamp = now;
  r.element = id_;
  r.attrs = {
      {attr::kRxPkts, static_cast<double>(stats_->pkts_in.value())},
      {attr::kTxPkts, static_cast<double>(stats_->pkts_out.value())},
      {attr::kRxBytes, static_cast<double>(stats_->bytes_in.value())},
      {attr::kTxBytes, static_cast<double>(stats_->bytes_out.value())},
      {attr::kInTimeNs, static_cast<double>(stats_->in_time.nanos())},
      {attr::kOutTimeNs, static_cast<double>(stats_->out_time.nanos())},
  };
  return r;
}

}  // namespace perfsight
