// Shared machinery of the diagnosis benchmark: options, wall clocks, the
// allocation and socket-byte counters, the forwarding AgentClient that
// times the controller's calls into agents, sample statistics, and the
// report printer.
//
// Nothing here installs a TraceContext or touches the library's own
// tracing: every number is taken from the benchmark's side of a public
// call.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfsight/agent.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

// --- clocks ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
int64_t wall_ns();
inline double ms_between(int64_t t0_ns, int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e6;
}
// When a measured loop that starts now and runs `seconds` ends.
inline int64_t deadline_after(int seconds) {
  return wall_ns() + static_cast<int64_t>(seconds) * 1000000000;
}

// --- counters --------------------------------------------------------------

// Heap allocations (every operator new) made by the calling thread so far.
// Read as a delta around a call that runs on the calling thread.
uint64_t thread_allocs();

// Bytes the process moved through send(2) and recv(2), as returned by the
// kernel.  The benchmark binary interposes both calls (the library's
// transport uses nothing else for socket payload), because Linux leaves
// them out of /proc/self/io's rchar/wchar.
struct SocketBytes {
  uint64_t sent = 0;
  uint64_t received = 0;
};
SocketBytes socket_bytes();

// Peak resident memory of this process, in MiB (0 if unreadable).
double peak_rss_mb();

// SplitMix64 finaliser: derives independent sub-seeds from the workload seed.
uint64_t mix64(uint64_t x);

// --- statistics --------------------------------------------------------------

// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample; 0 for
// an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

// Attributes one Algorithm 1 sample reads (contention.cc's sample set);
// the controller probes ask for the same.
std::vector<std::string> contention_sample_attrs();

// num / den, or 0 when den is 0 (a layer that did no work).
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- host speed --------------------------------------------------------------
//
// The hosts this benchmark runs on change speed by up to a half for minutes
// at a time, so a wall time alone does not repeat within 25% from one set of
// runs to the next.  The end-to-end times are therefore scaled to a host of
// fixed speed.  After each verdict the thread that runs the verdicts also
// times a fixed reference job shaped like the library's work: a string-keyed
// map, a sort, byte encoding, a trip through a socket, and decoding.  Each
// time is then divided by the run's median reference time over
// kReferenceMs.  The raw figures are printed beside the scaled ones.

// About the reference job's median time on a 4-vCPU Intel Xeon VM at its
// usual speed.
inline constexpr double kReferenceMs = 1.1;

// Runs the reference job once and returns its wall time in ms.
double reference_ms();

// --- forwarding client -----------------------------------------------------

// One timed call into an agent.
struct CallRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t records = 0;
  uint64_t allocs = 0;  // on the thread that made the call
};

// Sits between the controller (or a stream pipeline) and an agent and, when
// timing is on, records each query_batch: wall interval, records returned,
// allocations on the calling thread.  With `capture` on it also keeps the
// request and the response for the socket byte cross-check.  One thread
// calls a given client at a time (the controller scatters one task per
// agent), so the records need no lock; read them between verdicts.
class ForwardingClient : public perfsight::AgentClient {
 public:
  explicit ForwardingClient(perfsight::AgentClient* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  bool has_element(const perfsight::ElementId& id) const override {
    return inner_->has_element(id);
  }
  std::vector<perfsight::ElementId> element_ids() const override {
    return inner_->element_ids();
  }
  perfsight::Result<perfsight::QueryResponse> query_attrs(
      const perfsight::ElementId& id, const std::vector<std::string>& attrs,
      perfsight::SimTime now) override {
    return inner_->query_attrs(id, attrs, now);
  }
  perfsight::BatchResponse query_batch(
      const std::vector<perfsight::ElementId>& ids, perfsight::SimTime now,
      perfsight::ThreadPool* pool = nullptr) override;

  void set_timing(bool on) { timing_ = on; }
  void set_capture(bool on) { capture_ = on; }
  std::vector<CallRecord> take_calls() { return std::exchange(calls_, {}); }

  struct Captured {
    std::vector<perfsight::ElementId> ids;
    perfsight::SimTime now;
    perfsight::BatchResponse response;
  };
  std::vector<Captured> take_captured() { return std::exchange(captured_, {}); }

 private:
  perfsight::AgentClient* inner_;
  bool timing_ = false;
  bool capture_ = false;
  std::vector<CallRecord> calls_;
  std::vector<Captured> captured_;
};

// Total wall time covered by the union of the calls' intervals.
int64_t covered_ns(std::vector<CallRecord> calls);

// Accumulates CallRecords of one layer across traced verdicts.
struct LayerCalls {
  std::vector<CallRecord> calls;

  void add(const std::vector<CallRecord>& more) {
    calls.insert(calls.end(), more.begin(), more.end());
  }
  void add(int64_t start_ns, int64_t end_ns, size_t records, uint64_t allocs) {
    calls.push_back(CallRecord{start_ns, end_ns, records, allocs});
  }
  int64_t total_ns() const;
  // Total wall time over total records; 0 with no records.
  double ns_per_record() const;
  // Median over calls of allocations per record: the steady-state count,
  // independent of how many calls a run made.
  double allocs_per_record() const;
  // Percentile of per-call wall time, in microseconds.
  double call_us(double q) const;
  double mean_call_us() const;
};

// --- result ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed on the human-readable line only
};

struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;
  std::vector<std::string> check_failures;

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             std::move(note)});
  }
  void check(bool ok, const std::string& what);
};

// Set-ups timed per run for setup_s (pull_fleet, push_stream).
inline constexpr int kSetups = 15;

// Builds a world kSetups times, timing each build into *setup_s, and
// returns the last one.  Only one world exists at a time.
template <typename Build>
auto timed_setups(Build build, std::vector<double>* setup_s) {
  decltype(build()) world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const int64_t t0 = wall_ns();
    world = build();
    setup_s->push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  return world;
}

// The end-to-end metrics every workload reports (untraced runs).
struct EndToEnd {
  std::vector<double> verdict_ms;  // one sample per verdict
  std::vector<double> reference_ms;  // one sample per verdict
  double records_per_s = 0;
  double wire_bytes_per_record = 0;
  double sim_speed = 0;
  std::vector<double> setup_s;  // one sample per set-up

  // Times the reference job once, between verdicts.
  void time_reference() { reference_ms.push_back(perfbench::reference_ms()); }
  // Wall time spent in the reference job, to take out of the loop's time.
  double reference_s() const;
};
void add_end_to_end(RunResult& r, const EndToEnd& e);

// The per-layer metrics every workload reports (traced runs).  A layer that
// does no work on a workload reports 0.
struct LayerMetrics {
  double agent_ns = 0, agent_allocs = 0;
  double wire_encode_ns = 0, wire_decode_ns = 0, wire_bytes = 0,
         wire_allocs = 0;
  double remote_ns = 0, remote_us_p95 = 0, transport_residual_ns = 0;
  double controller_ns = 0, controller_allocs = 0;
  double stream_publish_ns = 0, stream_apply_ns = 0, stream_cache_query_ns = 0,
         stream_bytes = 0, stream_repair_ratio = 0;
  double contention_self_ms = 0;
  double sim_ns_per_tick = 0;
  double int_stamping_ns_per_tick = 0, int_close_window_us = 0,
         int_hops_per_tick = 0, int_harvest_ratio = 0;
  // Traced minus untraced verdict_ms_p50 within the same run.
  std::vector<double> traced_ms, untraced_ms;
};
void add_layers(RunResult& r, const LayerMetrics& m);

// Prints one line per metric, then the result object as the last line.
void print_result(const Options& opt, const RunResult& r);

// The workloads.  Each sets up, checks its outputs, and runs the closed
// loop for opt.seconds, traced or not.
RunResult run_pull_fleet(const Options& opt);
RunResult run_push_stream(const Options& opt);
RunResult run_dataplane_int(const Options& opt);

}  // namespace perfbench
