#include "packet/queue.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "common/rng.h"
#include "packet/flow.h"

namespace perfsight {
namespace {

PacketBatch batch(uint32_t flow, uint64_t pkts, uint64_t pkt_size = 1500) {
  return PacketBatch{FlowId{flow}, pkts, pkts * pkt_size};
}

TEST(BatchTest, TakeFrontSplitsConservatively) {
  PacketBatch b = batch(1, 100);
  PacketBatch front = take_front(b, 30, UINT64_MAX);
  EXPECT_EQ(front.packets, 30u);
  EXPECT_EQ(b.packets, 70u);
  EXPECT_EQ(front.bytes + b.bytes, 150000u);
}

TEST(BatchTest, TakeFrontByteLimited) {
  PacketBatch b = batch(1, 100);
  PacketBatch front = take_front(b, UINT64_MAX, 15000);  // 10 packets' worth
  EXPECT_EQ(front.packets, 10u);
  EXPECT_EQ(b.packets, 90u);
}

TEST(BatchTest, TakeFrontWholeBatch) {
  PacketBatch b = batch(2, 5);
  PacketBatch front = take_front(b, 100, UINT64_MAX);
  EXPECT_EQ(front.packets, 5u);
  EXPECT_TRUE(b.empty());
}

TEST(QueueTest, EnqueueDequeueFifo) {
  BoundedPacketQueue q;
  q.enqueue(batch(1, 10));
  q.enqueue(batch(2, 5));
  PacketBatch a = q.dequeue(UINT64_MAX, UINT64_MAX);
  EXPECT_EQ(a.flow, FlowId{1});
  EXPECT_EQ(a.packets, 10u);
  PacketBatch b = q.dequeue(UINT64_MAX, UINT64_MAX);
  EXPECT_EQ(b.flow, FlowId{2});
  EXPECT_TRUE(q.empty());
}

TEST(QueueTest, PacketCapDropsTail) {
  BoundedPacketQueue q(QueueCaps{300, UINT64_MAX});
  q.enqueue(batch(1, 250));
  q.enqueue(batch(2, 100));
  EXPECT_EQ(q.packets(), 300u);
  EXPECT_EQ(q.dropped_packets(), 50u);
  EXPECT_EQ(q.dropped_packets_for(FlowId{2}), 50u);
  EXPECT_EQ(q.dropped_packets_for(FlowId{1}), 0u);
}

TEST(QueueTest, ByteCapDropsTail) {
  BoundedPacketQueue q(QueueCaps{UINT64_MAX, 15000});
  q.enqueue(batch(1, 20));  // 30000 bytes offered
  EXPECT_EQ(q.bytes(), 15000u);
  EXPECT_EQ(q.dropped_packets(), 10u);
}

TEST(QueueTest, FullQueueRejectsEverything) {
  BoundedPacketQueue q(QueueCaps{10, UINT64_MAX});
  q.enqueue(batch(1, 10));
  uint64_t accepted = q.enqueue(batch(1, 5));
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(q.dropped_packets(), 5u);
}

TEST(QueueTest, PartialDequeueSplitsHead) {
  BoundedPacketQueue q;
  q.enqueue(batch(1, 100));
  PacketBatch out = q.dequeue(30, UINT64_MAX);
  EXPECT_EQ(out.packets, 30u);
  EXPECT_EQ(q.packets(), 70u);
  PacketBatch rest = q.dequeue(UINT64_MAX, UINT64_MAX);
  EXPECT_EQ(rest.packets, 70u);
}

TEST(QueueTest, DequeueRespectsByteBudget) {
  BoundedPacketQueue q;
  q.enqueue(batch(1, 100));
  PacketBatch out = q.dequeue(UINT64_MAX, 4500);  // 3 packets
  EXPECT_EQ(out.packets, 3u);
}

TEST(QueueTest, SameFlowBatchesMerge) {
  BoundedPacketQueue q;
  for (int i = 0; i < 1000; ++i) q.enqueue(batch(7, 1));
  EXPECT_EQ(q.packets(), 1000u);
  // A single dequeue drains the whole merged run.
  PacketBatch out = q.dequeue(UINT64_MAX, UINT64_MAX);
  EXPECT_EQ(out.packets, 1000u);
}

// Conservation property: enqueued = dequeued + dropped + still queued.
class QueueConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueueConservationTest, PacketsAndBytesConserved) {
  Pcg32 rng(GetParam());
  BoundedPacketQueue q(QueueCaps{200 + rng.next_below(500),
                                 100000 + rng.next_below(1000000)});
  uint64_t in_pkts = 0, in_bytes = 0, out_pkts = 0, out_bytes = 0;
  for (int i = 0; i < 500; ++i) {
    uint32_t flow = rng.next_below(5);
    uint64_t pkts = 1 + rng.next_below(120);
    uint64_t size = 64 + rng.next_below(1436);
    PacketBatch b = batch(flow, pkts, size);
    in_pkts += b.packets;
    in_bytes += b.bytes;
    q.enqueue(b);
    if (rng.next_below(2) == 0) {
      PacketBatch out = q.dequeue(rng.next_below(300), rng.next_below(400000));
      out_pkts += out.packets;
      out_bytes += out.bytes;
    }
  }
  EXPECT_EQ(in_pkts, out_pkts + q.dropped_packets() + q.packets());
  EXPECT_EQ(in_bytes, out_bytes + q.dropped_bytes() + q.bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueConservationTest,
                         ::testing::Values(1, 7, 21, 303, 777, 31337));

// The queue's storage is a ring: its head wanders through the buffer and
// the buffer doubles while full.  Neither may show in what comes out.
TEST(QueueRingTest, WrapAroundAndGrowthKeepFifoMergesAndTags) {
  BoundedPacketQueue q;
  auto tagged = [](uint32_t flow, uint64_t pkts, uint64_t tag) {
    return PacketBatch{FlowId{flow}, pkts, pkts * 100, tag};
  };
  // Six flows in, four out: the head sits mid-buffer.
  for (uint32_t f = 1; f <= 6; ++f) q.enqueue(tagged(f, f, f == 5 ? 50 : 0));
  for (uint32_t f = 1; f <= 4; ++f) {
    EXPECT_EQ(q.dequeue(UINT64_MAX, UINT64_MAX).flow, FlowId{f});
  }
  // Sixteen more wrap past the end and then force growth while wrapped.
  for (uint32_t f = 7; f <= 22; ++f) q.enqueue(tagged(f, f, f % 4 == 0 ? f : 0));
  // Tail merges across the wrap: an untagged tail adopts the arrival's tag,
  // a tagged one keeps its own.
  q.enqueue(tagged(22, 5, 99));
  q.enqueue(tagged(22, 1, 55));
  q.enqueue(tagged(20, 2, 0));  // not the tail: a new entry
  EXPECT_EQ(q.packets(), 5u + 6u + (7u + 22u) * 16u / 2u + 6u + 2u);

  std::vector<PacketBatch> out;
  while (!q.empty()) out.push_back(q.dequeue(UINT64_MAX, UINT64_MAX));
  ASSERT_EQ(out.size(), 2u + 16u + 1u);
  EXPECT_EQ(out[0].flow, FlowId{5});
  EXPECT_EQ(out[0].int_tag, 50u);
  EXPECT_EQ(out[1].flow, FlowId{6});
  for (uint32_t f = 7; f <= 22; ++f) {
    const PacketBatch& b = out[f - 5];
    EXPECT_EQ(b.flow, FlowId{f});
    const uint64_t pkts = f == 22 ? 22 + 5 + 1 : f;
    EXPECT_EQ(b.packets, pkts);
    EXPECT_EQ(b.bytes, pkts * 100);
    EXPECT_EQ(b.int_tag, f == 22 ? 99u : f % 4 == 0 ? f : 0u) << f;
  }
  EXPECT_EQ(out.back().flow, FlowId{20});
  EXPECT_EQ(out.back().packets, 2u);
  EXPECT_EQ(q.packets(), 0u);
  EXPECT_EQ(q.bytes(), 0u);
}

// Differential: the ring-backed queue against the same drop-tail,
// tail-merge, split and INT-tag rules over a std::deque, through random
// arrivals of many flows (so merges are rare and the ring wraps and grows
// while holding traffic) and random partial dequeues.
class DequeModel {
 public:
  explicit DequeModel(QueueCaps caps) : caps_(caps) {}

  uint64_t enqueue(PacketBatch b) {
    if (b.empty()) return 0;
    const uint64_t space_pkts =
        caps_.max_packets > packets_ ? caps_.max_packets - packets_ : 0;
    const uint64_t space_bytes =
        caps_.max_bytes > bytes_ ? caps_.max_bytes - bytes_ : 0;
    if (space_pkts == 0 ||
        space_bytes < static_cast<uint64_t>(b.avg_packet_size())) {
      drop(b);
      return 0;
    }
    PacketBatch fit = take_front(b, space_pkts, space_bytes);
    if (!q_.empty() && q_.back().flow == fit.flow) {
      q_.back().packets += fit.packets;
      q_.back().bytes += fit.bytes;
      if (q_.back().int_tag == 0) q_.back().int_tag = fit.int_tag;
    } else {
      q_.push_back(fit);
    }
    packets_ += fit.packets;
    bytes_ += fit.bytes;
    if (!b.empty()) drop(b);
    return fit.packets;
  }

  PacketBatch dequeue(uint64_t max_packets, uint64_t max_bytes) {
    if (q_.empty() || max_packets == 0 || max_bytes == 0) return {};
    PacketBatch out = take_front(q_.front(), max_packets, max_bytes);
    if (q_.front().empty()) q_.pop_front();
    packets_ -= out.packets;
    bytes_ -= out.bytes;
    return out;
  }

  uint64_t packets() const { return packets_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t dropped_packets() const { return dropped_packets_; }
  uint64_t dropped_bytes() const { return dropped_bytes_; }
  uint64_t dropped_packets_for(FlowId f) const {
    auto it = per_flow_.find(f.value());
    return it == per_flow_.end() ? 0 : it->second;
  }

 private:
  void drop(const PacketBatch& b) {
    dropped_packets_ += b.packets;
    dropped_bytes_ += b.bytes;
    per_flow_[b.flow.value()] += b.packets;
  }

  QueueCaps caps_;
  std::deque<PacketBatch> q_;
  uint64_t packets_ = 0, bytes_ = 0;
  uint64_t dropped_packets_ = 0, dropped_bytes_ = 0;
  std::map<uint32_t, uint64_t> per_flow_;
};

class QueueRingDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueueRingDifferentialTest, MatchesDequeModel) {
  Pcg32 rng(GetParam());
  const QueueCaps caps{400 + rng.next_below(2000),
                       200000 + rng.next_below(2000000)};
  BoundedPacketQueue q(caps);
  DequeModel model(caps);
  uint64_t next_tag = 1;
  for (int i = 0; i < 4000; ++i) {
    // Bursts of arrivals, then bursts of service, so the depth swings from
    // empty to full and back.
    const bool arrive = (i / 50) % 2 == 0 ? rng.next_below(4) != 0
                                          : rng.next_below(4) == 0;
    if (arrive) {
      const uint32_t flow = rng.next_below(24);
      const uint64_t pkts = 1 + rng.next_below(60);
      const uint64_t size = 64 + rng.next_below(1436);
      PacketBatch b{FlowId{flow}, pkts, pkts * size,
                    rng.next_below(5) == 0 ? next_tag++ : 0};
      ASSERT_EQ(q.enqueue(b), model.enqueue(b)) << "op " << i;
    } else {
      const uint64_t max_p = rng.next_below(200);
      const uint64_t max_b = rng.next_below(300000);
      const PacketBatch got = q.dequeue(max_p, max_b);
      const PacketBatch want = model.dequeue(max_p, max_b);
      ASSERT_EQ(got.flow, want.flow) << "op " << i;
      ASSERT_EQ(got.packets, want.packets) << "op " << i;
      ASSERT_EQ(got.bytes, want.bytes) << "op " << i;
      ASSERT_EQ(got.int_tag, want.int_tag) << "op " << i;
    }
    ASSERT_EQ(q.packets(), model.packets());
    ASSERT_EQ(q.bytes(), model.bytes());
    ASSERT_EQ(q.empty(), model.packets() == 0);
  }
  EXPECT_EQ(q.dropped_packets(), model.dropped_packets());
  EXPECT_EQ(q.dropped_bytes(), model.dropped_bytes());
  for (uint32_t f = 0; f < 24; ++f) {
    EXPECT_EQ(q.dropped_packets_for(FlowId{f}),
              model.dropped_packets_for(FlowId{f}))
        << "flow " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueRingDifferentialTest,
                         ::testing::Values(1, 2, 3, 17, 404, 9001));

TEST(FlowSpecTest, MakeBatch) {
  FlowSpec f;
  f.id = FlowId{9};
  f.packet_size = 100;
  PacketBatch b = f.make_batch(7);
  EXPECT_EQ(b.packets, 7u);
  EXPECT_EQ(b.bytes, 700u);
  PacketBatch c = f.make_batch_bytes(250);
  EXPECT_EQ(c.packets, 2u);
  PacketBatch d = f.make_batch_bytes(50);  // sub-packet rounds up to 1
  EXPECT_EQ(d.packets, 1u);
}

}  // namespace
}  // namespace perfsight
