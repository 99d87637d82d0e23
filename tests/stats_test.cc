#include "perfsight/stats.h"

#include <gtest/gtest.h>

#include "perfsight/counters.h"
#include "perfsight/topology.h"
#include "perfsight/wire.h"

namespace perfsight {
namespace {

TEST(CounterTest, Monotone) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(5);
  c.increment();
  EXPECT_EQ(c.value(), 6u);
}

TEST(IoTimeCounterTest, AccumulatesSimAndRawTime) {
  IoTimeCounter t;
  t.add(Duration::micros(3));
  t.add_nanos(500);
  EXPECT_EQ(t.nanos(), 3500u);
  EXPECT_EQ(t.total().ns(), 3500);
}

TEST(ScopedIoTimerTest, RecordsElapsedWallTime) {
  IoTimeCounter t;
  {
    ScopedIoTimer timer(t);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_GT(t.nanos(), 0u);
}

TEST(StatsRecordTest, GetAndSet) {
  StatsRecord r;
  r.set("rxPkts", 42);
  r.set("rxPkts", 43);  // overwrite
  r.set("txPkts", 7);
  EXPECT_EQ(r.get("rxPkts"), 43.0);
  EXPECT_EQ(r.get_or("missing", -1), -1.0);
  EXPECT_EQ(r.attrs.size(), 2u);
}

TEST(WireFormatTest, SerializesPaperFormat) {
  StatsRecord r;
  r.timestamp = SimTime::nanos(1234000);
  r.element = ElementId{"eth0"};
  r.attrs = {{"Rx bytes", 100}, {"Tx bytes", 200}};
  EXPECT_EQ(to_text(r), "<1234000, eth0, (Rx bytes, 100), (Tx bytes, 200)>");
}

// Records cross the agent→controller channel as PSB2 frames: every field
// survives bit-exactly, non-integral values included.
TEST(WireFormatTest, RoundTrips) {
  QueryResponse q;
  q.record.timestamp = SimTime::millis(42);
  q.record.element = ElementId{"m0/vm1/tun"};
  q.record.attrs = {{"rxPkts", 12345}, {"dropPkts", 7}, {"avgSize", 1433.5}};
  size_t consumed = 0;
  Result<QueryResponse> back =
      wire::decode_frame(wire::encode_frame(q).value(), &consumed);
  ASSERT_TRUE(back.ok());
  const StatsRecord& r = back.value().record;
  EXPECT_EQ(r.timestamp.ns(), q.record.timestamp.ns());
  EXPECT_EQ(r.element, q.record.element);
  ASSERT_EQ(r.attrs.size(), 3u);
  EXPECT_EQ(r.get("rxPkts"), 12345.0);
  EXPECT_EQ(r.get("avgSize"), 1433.5);
  EXPECT_EQ(to_text(r), to_text(q.record));
}

TEST(ProjectTest, SelectsRequestedAttrsInOrder) {
  StatsRecord r;
  r.attrs = {{"a", 1}, {"b", 2}, {"c", 3}};
  StatsRecord p = project(r, {"c", "a", "zz"});
  ASSERT_EQ(p.attrs.size(), 2u);
  EXPECT_EQ(p.attrs[0].name, "c");
  EXPECT_EQ(p.attrs[1].name, "a");
}

// project() works in place on the record it is given.  Its answer must be
// the one a fresh vector built by name lookups gives (the reference below):
// request order, missing names skipped, a name asked twice answered twice,
// and each name's first occurrence when the record repeats one.
StatsRecord project_by_lookup(const StatsRecord& r,
                              const std::vector<std::string>& names) {
  StatsRecord out{r.timestamp, r.element, {}};
  for (const std::string& n : names) {
    if (auto v = r.get(n)) out.attrs.push_back(Attr{n, *v});
  }
  return out;
}

TEST(ProjectTest, InPlaceMatchesLookupProjection) {
  const StatsRecord r{
      SimTime::millis(7),
      ElementId{"m0/vm1/tun"},
      {{attr::kType, 5},
       {attr::kTxPkts, 90},
       {attr::kVm, 1},
       {attr::kRxBytes, 3},
       {attr::kDropPkts, 4},
       {attr::kRxPkts, 100},
       {attr::kTxPkts, -1},  // a repeat: lookups see the first one
       {attr::kQueuePkts, 6}}};
  const StatsRecord small{SimTime::millis(8), ElementId{"m0/pnic"},
                          {{attr::kRxPkts, 42}}};
  // Longer than project()'s inline lookup buffer.
  std::vector<std::string> long_request;
  for (int i = 0; i < 20; ++i) {
    long_request.push_back(i % 3 == 0 ? attr::kRxPkts : "absent");
  }
  const std::vector<std::pair<StatsRecord, std::vector<std::string>>> cases = {
      {r,
       {attr::kDropPkts, attr::kRxPkts, attr::kTxPkts, attr::kType,
        attr::kVm}},                                      // reordered
      {r, {attr::kRxPkts, "absent", attr::kVm, "gone"}},  // missing names
      {r,
       {attr::kVm, attr::kTxPkts, attr::kVm, attr::kTxPkts,
        attr::kVm}},  // duplicate names
      {r, {"absent"}},
      {r, {}},
      {r,
       {attr::kQueuePkts, attr::kType, attr::kTxPkts, attr::kRxBytes,
        attr::kDropPkts, attr::kVm, attr::kRxPkts}},  // every distinct attr
      // More answers than the record has attrs.
      {small, {attr::kRxPkts, "absent", attr::kRxPkts, attr::kRxPkts}},
      {small, long_request},
      {r, long_request},
  };
  for (const auto& [record, names] : cases) {
    const StatsRecord want = project_by_lookup(record, names);
    const StatsRecord got = project(record, names);
    EXPECT_EQ(got.timestamp, want.timestamp);
    EXPECT_EQ(got.element, want.element);
    ASSERT_EQ(got.attrs.size(), want.attrs.size());
    for (size_t i = 0; i < want.attrs.size(); ++i) {
      EXPECT_EQ(got.attrs[i].name, want.attrs[i].name) << i;
      EXPECT_EQ(got.attrs[i].value, want.attrs[i].value) << i;
    }
  }
}

TEST(ChainTopologyTest, SuccessorsTransitive) {
  ChainTopology t;
  ElementId a{"a"}, b{"b"}, c{"c"}, nfs{"nfs"};
  t.add_edge(a, b);
  t.add_edge(b, c);
  t.add_edge(b, nfs);  // branch
  auto succ = t.successors(a);
  EXPECT_EQ(succ.size(), 3u);
  EXPECT_TRUE(succ.count(c));
  EXPECT_TRUE(succ.count(nfs));
  EXPECT_FALSE(succ.count(a));
}

TEST(ChainTopologyTest, PredecessorsTransitive) {
  ChainTopology t;
  ElementId a{"a"}, b{"b"}, c{"c"};
  t.add_edge(a, b);
  t.add_edge(b, c);
  auto pred = t.predecessors(c);
  EXPECT_EQ(pred.size(), 2u);
  EXPECT_TRUE(pred.count(a));
  EXPECT_TRUE(pred.count(b));
}

TEST(ChainTopologyTest, IsolatedNode) {
  ChainTopology t;
  ElementId x{"x"};
  t.add_node(x);
  EXPECT_TRUE(t.has_node(x));
  EXPECT_TRUE(t.successors(x).empty());
  EXPECT_TRUE(t.predecessors(x).empty());
}

}  // namespace
}  // namespace perfsight
