#include "harness.h"

#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <unordered_map>

// --- allocation counter ----------------------------------------------------
//
// Every form of operator new counts one allocation on the calling thread.
// The count is a plain thread_local (constant-initialised, so reading it
// never allocates), read as a delta around a call on the same thread.

namespace {
thread_local uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// --- socket byte counter ---------------------------------------------------
//
// The transport writes and reads socket payload with send(2) and recv(2)
// only.  Defining both here makes the static library's references bind to
// these wrappers, which issue the same system call and add the byte count
// the kernel returned.

namespace {
std::atomic<uint64_t> g_sent{0};
std::atomic<uint64_t> g_received{0};
}  // namespace

extern "C" ssize_t send(int fd, const void* buf, size_t n, int flags) {
  const long r = syscall(SYS_sendto, fd, buf, n, flags, nullptr, 0);
  if (r > 0) {
    g_sent.fetch_add(static_cast<uint64_t>(r), std::memory_order_relaxed);
  }
  return static_cast<ssize_t>(r);
}

extern "C" ssize_t recv(int fd, void* buf, size_t n, int flags) {
  const long r = syscall(SYS_recvfrom, fd, buf, n, flags, nullptr, nullptr);
  if (r > 0) {
    g_received.fetch_add(static_cast<uint64_t>(r), std::memory_order_relaxed);
  }
  return static_cast<ssize_t>(r);
}

namespace perfbench {

using perfsight::BatchResponse;
using perfsight::ElementId;
using perfsight::SimTime;
using perfsight::ThreadPool;

int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t thread_allocs() { return t_allocs; }

SocketBytes socket_bytes() {
  return SocketBytes{g_sent.load(std::memory_order_relaxed),
                     g_received.load(std::memory_order_relaxed)};
}

// VmHWM, not getrusage: ru_maxrss carries over the peak of the process
// image that exec replaced, so a run started by perfbench/run.py would
// report the Python interpreter's peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<std::string> contention_sample_attrs() {
  namespace attr = perfsight::attr;
  return {attr::kDropPkts, attr::kRxPkts, attr::kTxPkts, attr::kType,
          attr::kVm};
}

int64_t covered_ns(std::vector<CallRecord> calls) {
  std::sort(calls.begin(), calls.end(),
            [](const CallRecord& a, const CallRecord& b) {
              return a.start_ns < b.start_ns;
            });
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const CallRecord& c : calls) {
    if (open && c.start_ns <= cur_end) {
      cur_end = std::max(cur_end, c.end_ns);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = c.start_ns;
    cur_end = c.end_ns;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

namespace {
constexpr int kReferenceElements = 2048;
// Socket writes of the reference job, small enough for the socket buffer.
constexpr size_t kReferencePiece = 4096;
}  // namespace

double reference_ms() {
  const int64_t t0 = wall_ns();
  std::unordered_map<std::string, double> values;
  for (int i = 0; i < kReferenceElements; ++i) {
    values.emplace(
        "m" + std::to_string(i % 4) + "/vm" + std::to_string(i) + "/tun",
        static_cast<double>(mix64(static_cast<uint64_t>(i)) % 1000000));
  }
  std::vector<std::pair<std::string, double>> sorted(values.begin(),
                                                     values.end());
  std::sort(sorted.begin(), sorted.end());
  std::string bytes;
  for (const auto& [key, value] : sorted) {
    const auto n = static_cast<uint32_t>(key.size());
    bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
    bytes.append(key);
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  // write(2) and read(2), not send and recv, so the socket byte counter
  // sees none of it.
  int fds[2];
  PS_CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  std::string echoed(bytes.size(), '\0');
  for (size_t pos = 0; pos < bytes.size(); pos += kReferencePiece) {
    const size_t len = std::min(kReferencePiece, bytes.size() - pos);
    PS_CHECK(write(fds[0], bytes.data() + pos, len) ==
             static_cast<ssize_t>(len));
    for (size_t got = 0; got < len;) {
      const ssize_t k = read(fds[1], echoed.data() + pos + got, len - got);
      PS_CHECK(k > 0);
      got += static_cast<size_t>(k);
    }
  }
  close(fds[0]);
  close(fds[1]);

  size_t matched = 0;
  for (size_t pos = 0; pos < echoed.size();) {
    uint32_t n = 0;
    std::memcpy(&n, echoed.data() + pos, sizeof(n));
    pos += sizeof(n);
    const std::string key = echoed.substr(pos, n);
    pos += n;
    double value = 0;
    std::memcpy(&value, echoed.data() + pos, sizeof(value));
    pos += sizeof(value);
    const auto it = values.find(key);
    if (it != values.end() && it->second == value) ++matched;
  }
  PS_CHECK(matched == static_cast<size_t>(kReferenceElements));
  return ms_between(t0, wall_ns());
}

double EndToEnd::reference_s() const {
  return std::accumulate(reference_ms.begin(), reference_ms.end(), 0.0) / 1e3;
}

BatchResponse ForwardingClient::query_batch(const std::vector<ElementId>& ids,
                                            SimTime now, ThreadPool* pool) {
  if (!timing_ && !capture_) return inner_->query_batch(ids, now, pool);
  const uint64_t a0 = thread_allocs();
  const int64_t t0 = wall_ns();
  BatchResponse b = inner_->query_batch(ids, now, pool);
  const int64_t t1 = wall_ns();
  const uint64_t a1 = thread_allocs();
  if (timing_) {
    calls_.push_back(CallRecord{t0, t1, b.responses.size(), a1 - a0});
  }
  if (capture_) captured_.push_back(Captured{ids, now, b});
  return b;
}

int64_t LayerCalls::total_ns() const {
  int64_t ns = 0;
  for (const CallRecord& c : calls) ns += c.end_ns - c.start_ns;
  return ns;
}

double LayerCalls::ns_per_record() const {
  size_t records = 0;
  for (const CallRecord& c : calls) records += c.records;
  return ratio(static_cast<double>(total_ns()), static_cast<double>(records));
}

double LayerCalls::allocs_per_record() const {
  std::vector<double> per;
  for (const CallRecord& c : calls) {
    if (c.records == 0) continue;
    per.push_back(static_cast<double>(c.allocs) /
                  static_cast<double>(c.records));
  }
  return median(std::move(per));
}

double LayerCalls::call_us(double q) const {
  std::vector<double> us;
  us.reserve(calls.size());
  for (const CallRecord& c : calls) {
    us.push_back(static_cast<double>(c.end_ns - c.start_ns) / 1e3);
  }
  return percentile(std::move(us), q);
}

double LayerCalls::mean_call_us() const {
  return ratio(static_cast<double>(total_ns()) / 1e3,
               static_cast<double>(calls.size()));
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok = false;
  check_failures.push_back(what);
}

void add_end_to_end(RunResult& r, const EndToEnd& e) {
  // How much slower than usual the host ran: above 1, times shrink and
  // rates grow by this factor.
  const double slowdown = median(e.reference_ms) / kReferenceMs;
  r.check(slowdown > 0, "the reference job was timed");
  auto add_scaled = [&](const char* name, double raw, bool is_rate,
                        const char* unit, const std::string& what) {
    char note[192];
    std::snprintf(note, sizeof(note), "%s%sraw %.6f, host slowdown %.4f",
                  what.c_str(), what.empty() ? "" : ", ", raw, slowdown);
    r.add(name, is_rate ? raw * slowdown : raw / slowdown, unit, note);
  };
  // The p95 is printed beside the p50, not reported as a metric: stretches
  // of host interference within a run move it by more than any allowed
  // bound from one set of runs to the next, scaled or not.
  const double p95 = percentile(e.verdict_ms, 0.95);
  char n[96];
  std::snprintf(n, sizeof(n), "n=%zu, p95 %.6f (raw %.6f)",
                e.verdict_ms.size(), p95 / slowdown, p95);
  add_scaled("verdict_ms_p50", percentile(e.verdict_ms, 0.50), false, "ms", n);
  add_scaled("records_per_s", e.records_per_s, true, "1/s", "");
  r.add("wire_bytes_per_record", e.wire_bytes_per_record, "B");
  add_scaled("sim_speed", e.sim_speed, true, "sim-s/s", "");
  char range[96];
  std::snprintf(range, sizeof(range), "median of %zu set-ups (%.6f..%.6f)",
                e.setup_s.size(), percentile(e.setup_s, 0),
                percentile(e.setup_s, 1));
  add_scaled("setup_s", median(e.setup_s), false, "s", range);
  const double rss = peak_rss_mb();
  r.check(rss > 0, "peak RSS is readable from /proc/self/status");
  r.add("peak_rss_mb", rss, "MB");
}

void add_layers(RunResult& r, const LayerMetrics& m) {
  r.add("agent.query_batch.ns_per_record", m.agent_ns, "ns");
  r.add("agent.query_batch.allocs_per_record", m.agent_allocs, "count");
  r.add("wire.encode_batch.ns_per_record", m.wire_encode_ns, "ns");
  r.add("wire.decode_batch.ns_per_record", m.wire_decode_ns, "ns");
  r.add("wire.batch.bytes_per_record", m.wire_bytes, "B");
  r.add("wire.batch.allocs_per_record", m.wire_allocs, "count");
  r.add("remote_agent.query_batch.ns_per_record", m.remote_ns, "ns");
  r.add("remote_agent.query_batch.us_p95", m.remote_us_p95, "us");
  r.add("transport.residual.ns_per_record", m.transport_residual_ns, "ns");
  r.add("controller.get_attr_many.ns_per_record", m.controller_ns, "ns");
  r.add("controller.get_attr_many.allocs_per_record", m.controller_allocs,
        "count");
  r.add("streaming.publish.ns_per_record", m.stream_publish_ns, "ns");
  r.add("streaming.apply.ns_per_record", m.stream_apply_ns, "ns");
  r.add("streaming.cache_query_batch.ns_per_record", m.stream_cache_query_ns,
        "ns");
  r.add("streaming.bytes_per_record", m.stream_bytes, "B");
  r.add("streaming.repair_ratio", m.stream_repair_ratio, "fraction");
  r.add("contention.diagnose.self_ms", m.contention_self_ms, "ms");
  r.add("sim.run_for.ns_per_tick", m.sim_ns_per_tick, "ns");
  r.add("inband.stamping.ns_per_tick", m.int_stamping_ns_per_tick, "ns");
  r.add("inband.close_window.us", m.int_close_window_us, "us");
  r.add("inband.hops_per_tick", m.int_hops_per_tick, "count");
  r.add("inband.harvest_ratio", m.int_harvest_ratio, "fraction");
  r.add("trace.overhead_ms",
        median(m.traced_ms) - median(m.untraced_ms), "ms",
        "traced p50 (n=" + std::to_string(m.traced_ms.size()) +
            ") minus untraced p50 (n=" + std::to_string(m.untraced_ms.size()) +
            ")");
}

void print_result(const Options& opt, const RunResult& r) {
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const Metric& m : r.metrics) {
    std::printf("  %-44s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const double err =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  %-44s %16.6f %-8s (%llu of %llu verdicts missed the cause)\n",
              "verdict_error_rate", err, "fraction",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  bool finite = true;
  for (const Metric& m : r.metrics) finite = finite && std::isfinite(m.value);
  for (const std::string& f : r.check_failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
  if (!finite) std::printf("  CHECK FAILED: a metric is not a finite number\n");
  const bool correct =
      r.checks_ok && finite && r.failed == 0 && r.attempted > 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
