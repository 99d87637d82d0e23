#include "perfsight/inband.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "packet/batch.h"
#include "perfsight/agent.h"
#include "perfsight/stats.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"

namespace perfsight::inband {

// --- IntStamper --------------------------------------------------------------

int IntStamper::register_element(const ElementId& id, ElementKind kind,
                                 int vm) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(Slot{SlotInfo{id, kind, vm}, false, false});
  return static_cast<int>(slots_.size()) - 1;
}

void IntStamper::enable(int slot, bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  if (valid_slot(slot)) slots_[static_cast<size_t>(slot)].enabled = on;
}

void IntStamper::enable_all(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) s.enabled = on;
}

void IntStamper::set_harvest(int slot, bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  if (valid_slot(slot)) slots_[static_cast<size_t>(slot)].harvest = on;
}

SlotInfo IntStamper::slot_info(int slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return valid_slot(slot) ? slots_[static_cast<size_t>(slot)].info
                          : SlotInfo{};
}

void IntStamper::append_slots(std::vector<SlotInfo>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = out->size(); i < slots_.size(); ++i) {
    out->push_back(slots_[i].info);
  }
}

void IntStamper::set_now(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  now_ = now;
}

void IntStamper::set_sample_every(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  cfg_.sample_every = n == 0 ? 1 : n;
}

Flight* IntStamper::find_locked(uint64_t tag) {
  if (tag < base_tag_ || tag - base_tag_ >= inflight_.size()) return nullptr;
  const uint32_t i = inflight_[tag - base_tag_];
  return i == kDone ? nullptr : &pool_[i];
}

void IntStamper::append_hop_locked(Flight& f, int slot, uint64_t queue_pkts) {
  if (f.hops.size() >= cfg_.max_hops) {
    ++stats_.hops_truncated;
    return;
  }
  f.hops.push_back(Hop{slot, queue_pkts, Duration{}, false});
  ++stats_.hops_stamped;
}

void IntStamper::finalize_locked(Flight& f, bool dropped) {
  f.dropped = dropped;
  f.end = now_;
  uint32_t& entry = inflight_[f.tag - base_tag_];
  free_.push_back(entry);
  entry = kDone;
  longest_finished_ = std::max(longest_finished_, f.hops.size());
  finished_.push_back(std::move(f));
  --live_;
  while (!inflight_.empty() && inflight_.front() == kDone) {
    inflight_.pop_front();
    ++base_tag_;
  }
  if (dropped) {
    ++stats_.flights_dropped;
  } else {
    ++stats_.flights_harvested;
  }
}

uint64_t IntStamper::maybe_tag(int slot, const PacketBatch& b,
                               uint64_t queue_pkts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_locked(slot)) return b.int_tag;
  if (b.packets == 0) return 0;
  const uint64_t n = cfg_.sample_every == 0 ? 1 : cfg_.sample_every;
  const uint64_t before = stats_.pkts_seen;
  stats_.pkts_seen += b.packets;
  // One flight per crossed sample boundary, at most one per batch: exact
  // 1-in-N over the admitted packet count, deterministic in arrival order.
  if (before / n == stats_.pkts_seen / n) return 0;
  if (live_ >= cfg_.max_inflight) return 0;
  // Pool entries and the hop stacks of recycled or expired flights are
  // reused; only a new high-water mark of flights allocates.
  uint32_t i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    i = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Flight& f = pool_[i];
  f.tag = base_tag_ + inflight_.size();
  f.start = now_;
  f.end = now_;
  f.dropped = false;
  // The entry's hop stack left with its previous flight; take a spare, or
  // size a new one for the longest flight finished so far.
  if (!spare_hops_.empty()) {
    f.hops = std::move(spare_hops_.back());
    spare_hops_.pop_back();
  } else {
    f.hops.reserve(longest_finished_);
  }
  inflight_.push_back(i);
  append_hop_locked(f, slot, queue_pkts);
  ++live_;
  ++stats_.flights_started;
  return f.tag;
}

uint64_t IntStamper::arrive(int slot, uint64_t tag, uint64_t queue_pkts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_locked(slot) || tag == 0) return tag;
  const bool harvest = slots_[static_cast<size_t>(slot)].harvest;
  if (Flight* f = find_locked(tag)) {
    append_hop_locked(*f, slot, queue_pkts);
    if (harvest) {
      finalize_locked(*f, false);
    } else {
      f->end = now_;
    }
  }
  return harvest ? 0 : tag;
}

void IntStamper::stamp(int slot, uint64_t tag, uint64_t queue_pkts,
                       Duration io_time) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_locked(slot) || tag == 0) return;
  Flight* f = find_locked(tag);
  if (f == nullptr) return;  // expired orphan: the tag outlived us
  append_hop_locked(*f, slot, queue_pkts);
  f->end = now_;
  // A hop refused by the max_hops cap charges its io-time to the last
  // stamped one.
  if (!f->hops.empty()) f->hops.back().io_time += io_time;
}

void IntStamper::mark_dropped(int slot, uint64_t tag, uint64_t queue_pkts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!valid_slot(slot) || tag == 0) return;
  Flight* f = find_locked(tag);
  if (f == nullptr) return;
  const ElementId& id = slots_[static_cast<size_t>(slot)].info.id;
  if (!f->hops.empty() &&
      slots_[static_cast<size_t>(f->hops.back().slot)].info.id == id) {
    // The arrival hop was already stamped; just mark it.
    f->hops.back().drop_tail = true;
  } else {
    append_hop_locked(*f, slot, queue_pkts);
    if (!f->hops.empty()) f->hops.back().drop_tail = true;
  }
  finalize_locked(*f, true);
}

void IntStamper::take_finished(std::vector<Flight>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  // The emptied vector's storage collects the next window's flights.
  out->swap(finished_);
}

void IntStamper::recycle(std::vector<Flight>* spent) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Flight& f : *spent) {
    f.hops.clear();
    spare_hops_.push_back(std::move(f.hops));
  }
  spent->clear();
  const uint64_t started = stats_.flights_started - started_at_recycle_;
  started_at_recycle_ = stats_.flights_started;
  const size_t keep = static_cast<size_t>(started + started / 4);
  if (spare_hops_.size() > keep) spare_hops_.resize(keep);
}

void IntStamper::expire(Duration max_age) {
  std::lock_guard<std::mutex> lock(mu_);
  // Flights start in tag order, so the expired ones (and the dead entries
  // between them) form a prefix of the table.
  while (!inflight_.empty()) {
    const uint32_t i = inflight_.front();
    if (i != kDone) {
      Flight& f = pool_[i];
      if (now_ - f.start <= max_age) break;
      --live_;
      ++stats_.flights_expired;
      f.hops.clear();
      spare_hops_.push_back(std::move(f.hops));
      free_.push_back(i);
    }
    inflight_.pop_front();
    ++base_tag_;
  }
}

IntStamper::Stats IntStamper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --- IntHarvester ------------------------------------------------------------

IntHarvester::IntHarvester(IntStamper* stamper, StreamCache* cache, Config cfg)
    : stamper_(stamper), cache_(cache), cfg_(std::move(cfg)) {}

void IntHarvester::refresh_slots() {
  const size_t known = slots_.size();
  stamper_->append_slots(&slots_);
  if (slots_.size() == known) return;
  // Ascending id order, equal ids adjacent: each run of equal ids is one
  // record.
  std::vector<size_t> order(slots_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slots_[a].id < slots_[b].id;
  });
  ids_.clear();
  record_of_.assign(slots_.size(), 0);
  for (size_t i : order) {
    if (ids_.empty() || ids_.back() != slots_[i].id) {
      ids_.push_back(slots_[i].id);
    }
    record_of_[i] = ids_.size() - 1;
  }
  agg_.assign(ids_.size(), PerElement{});
}

size_t IntHarvester::close_window(SimTime window_start) {
  stamper_->expire(cfg_.expire_after);
  stamper_->take_finished(&flights_);
  ++stats_.windows_closed;
  stats_.flights_absorbed += flights_.size();
  // After the drain: every slot a drained hop names is registered by now.
  refresh_slots();

  std::fill(agg_.begin(), agg_.end(), PerElement{});
  for (const Flight& f : flights_) {
    // Wire-cost accounting: what this flight's report costs as a kIntReport
    // body — the overhead figure the bench gates against BASELINE.json.
    const std::optional<size_t> bytes = wire::int_report_size(
        cfg_.agent.size(), f.hops.size(), [&](size_t i) {
          return slots_[static_cast<size_t>(f.hops[i].slot)].id.name.size();
        });
    if (bytes) stats_.report_bytes += *bytes;

    for (const Hop& h : f.hops) {
      const size_t slot = static_cast<size_t>(h.slot);
      PerElement& pe = agg_[record_of_[slot]];
      pe.kind = slots_[slot].kind;
      pe.vm = slots_[slot].vm;
      ++pe.samples;
      if (h.queue_pkts > pe.peak_pkts) pe.peak_pkts = h.queue_pkts;
      pe.io_ns += h.io_time.ns();
      if (h.drop_tail) ++pe.drop_tail;
    }
  }

  const uint64_t every = stamper_->config().sample_every;
  burst_.window_start = window_start;
  burst_.elements.clear();
  burst_.peak_depth_pkts = 0;

  // The records move into the cache, so they are built afresh each window
  // (and a window without samples allocates nothing).
  const size_t records = static_cast<size_t>(
      std::count_if(agg_.begin(), agg_.end(),
                    [](const PerElement& pe) { return pe.samples > 0; }));
  std::vector<QueryResponse> responses;
  responses.reserve(records);
  for (size_t r = 0; r < ids_.size(); ++r) {
    const PerElement& pe = agg_[r];
    if (pe.samples == 0) continue;
    const ElementId& id = ids_[r];
    QueryResponse& qr = responses.emplace_back();
    qr.record.timestamp = window_start;
    qr.record.element = id;
    // Standard names first, so rule books / alert rules written against the
    // agent channels read INT windows unchanged; int* raw aggregates after.
    // kDropPkts is the 1-in-N scaled estimate of packets lost where a
    // sampled flight tail-dropped.
    Attr attrs[] = {
        {attr::kQueuePkts, static_cast<double>(pe.peak_pkts)},
        {attr::kDropPkts, static_cast<double>(pe.drop_tail * every)},
        {attr::kInTimeNs, static_cast<double>(pe.io_ns)},
        {attr::kType, static_cast<double>(static_cast<int>(pe.kind))},
        {attr::kVm, static_cast<double>(pe.vm)},
        {kIntSamples, static_cast<double>(pe.samples)},
        {kIntQueuePeakPkts, static_cast<double>(pe.peak_pkts)},
        {kIntIoTimeNs, static_cast<double>(pe.io_ns)},
        {kIntDropTailFlights, static_cast<double>(pe.drop_tail)},
    };
    qr.record.attrs.assign(std::make_move_iterator(std::begin(attrs)),
                           std::make_move_iterator(std::end(attrs)));
    qr.quality = DataQuality::kFresh;
    qr.attempts = 1;

    if (cfg_.microburst_depth_pkts > 0 &&
        pe.peak_pkts >= cfg_.microburst_depth_pkts) {
      burst_.elements.push_back(id);
      if (pe.peak_pkts > burst_.peak_depth_pkts) {
        burst_.peak_depth_pkts = pe.peak_pkts;
      }
    }
  }

  if (cache_ != nullptr && !responses.empty()) {
    cache_->ingest(cfg_.agent, window_start, StreamCache::Provenance::kInband,
                   std::move(responses));
  }
  if (!burst_.elements.empty()) {
    ++stats_.microbursts;
    if (on_microburst_) on_microburst_(burst_);
  }
  const size_t absorbed = flights_.size();
  stamper_->recycle(&flights_);
  return absorbed;
}

}  // namespace perfsight::inband
