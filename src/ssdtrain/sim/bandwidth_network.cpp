#include "ssdtrain/sim/bandwidth_network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sim {

namespace {
// Flows with less than this many bytes left are considered delivered;
// transfers are MBs to GBs, so a milli-byte epsilon is far below noise.
constexpr double kRemainingEpsilon = 1e-3;
}  // namespace

BandwidthNetwork::BandwidthNetwork(Simulator& sim, RefillPolicy policy)
    : sim_(sim), policy_(policy) {}

BandwidthNetwork::ResourceId BandwidthNetwork::add_resource(
    std::string name, util::BytesPerSecond capacity) {
  util::expects(capacity > 0.0, "resource capacity must be positive");
  Resource r;
  r.name = std::move(name);
  r.capacity = capacity;
  resources_.push_back(std::move(r));
  return resources_.size() - 1;
}

void BandwidthNetwork::set_capacity(ResourceId id,
                                    util::BytesPerSecond capacity) {
  util::expects(id < resources_.size(), "bad resource id");
  util::expects(capacity > 0.0, "resource capacity must be positive");
  resources_[id].capacity = capacity;
  mark_resource_dirty(id);
  schedule_flush();
}

util::BytesPerSecond BandwidthNetwork::capacity(ResourceId id) const {
  util::expects(id < resources_.size(), "bad resource id");
  return resources_[id].capacity;
}

BandwidthNetwork::FlowId BandwidthNetwork::start_flow(
    util::Label label, util::Bytes bytes, std::vector<ResourceId> path,
    EventFn on_complete, util::BytesPerSecond rate_cap) {
  util::expects(bytes >= 0, "negative flow size");
  util::expects(rate_cap > 0.0, "non-positive rate cap");
  for (ResourceId r : path) {
    util::expects(r < resources_.size(), "bad resource id in path");
  }
  // Dedup while keeping first-occurrence order: a repeated resource must
  // count the flow once in fair sharing and once in delivered accounting.
  {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < path.size(); ++i) {
      bool seen = false;
      for (std::size_t j = 0; j < kept; ++j) seen = seen || path[j] == path[i];
      if (!seen) path[kept++] = path[i];
    }
    path.resize(kept);
  }
  const std::uint64_t seq = next_flow_seq_++;
  if (bytes == 0) {
    if (on_complete) sim_.schedule_after(0.0, std::move(on_complete));
    return (seq << 32) | kInvalidSlot;
  }

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Flow& flow = slots_[slot];
  flow.label = label;
  flow.remaining = static_cast<double>(bytes);
  flow.path = std::move(path);
  flow.rate_cap = rate_cap;
  flow.rate = 0.0;
  flow.on_complete = std::move(on_complete);
  flow.id = (seq << 32) | slot;
  flow.in_component = false;
  flow.frozen = false;
  ++active_count_;

  // The new flow starts at rate 0, so delivered-byte extrapolation between
  // now and the flush stays exact; the flush (same simulated instant)
  // advances older flows before any rate changes.
  for (ResourceId r : flow.path) {
    resources_[r].subscribers.push_back(slot);
    mark_resource_dirty(r);
  }
  if (flow.path.empty()) dirty_pathless_.push_back(slot);
  schedule_flush();
  return flow.id;
}

const BandwidthNetwork::Flow* BandwidthNetwork::find_flow(FlowId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return nullptr;
  const Flow& flow = slots_[slot];
  return flow.id == id ? &flow : nullptr;
}

bool BandwidthNetwork::flow_active(FlowId id) const {
  return find_flow(id) != nullptr;
}

double BandwidthNetwork::flow_remaining(FlowId id) const {
  const Flow* flow = find_flow(id);
  if (flow == nullptr) return 0.0;
  // Account for progress since the last advance without mutating state.
  const double dt = sim_.now() - last_advance_;
  return std::max(0.0, flow->remaining - flow->rate * dt);
}

util::BytesPerSecond BandwidthNetwork::flow_rate(FlowId id) const {
  const Flow* flow = find_flow(id);
  return flow == nullptr ? 0.0 : flow->rate;
}

double BandwidthNetwork::resource_delivered(ResourceId id) const {
  util::expects(id < resources_.size(), "bad resource id");
  double delivered = resources_[id].delivered;
  const double dt = sim_.now() - last_advance_;
  if (dt > 0.0) {
    for (std::uint32_t slot : resources_[id].subscribers) {
      const Flow& flow = slots_[slot];
      delivered += std::min(flow.rate * dt, flow.remaining);
    }
  }
  return delivered;
}

double BandwidthNetwork::resource_utilization(ResourceId id) const {
  util::expects(id < resources_.size(), "bad resource id");
  const double elapsed = sim_.now();
  if (elapsed <= 0.0) return 0.0;
  return resource_delivered(id) / (resources_[id].capacity * elapsed);
}

bool BandwidthNetwork::cancel_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return false;
  if (slots_[slot].id != id) return false;
  // Credit progress up to this instant before the flow disappears from the
  // advance() scan; the flush this schedules then re-rates the freed path.
  advance();
  remove_flow(slot);
  schedule_flush();
  return true;
}

void BandwidthNetwork::drop_flows() {
  for (Resource& r : resources_) {
    r.subscribers.clear();
    r.dirty = false;
  }
  slots_.clear();
  free_slots_.clear();
  active_count_ = 0;
  dirty_resources_.clear();
  dirty_pathless_.clear();
  flush_pending_ = false;  // a still-queued flush event no-ops harmlessly
  ++epoch_;
}

void BandwidthNetwork::advance() {
  const double dt = sim_.now() - last_advance_;
  last_advance_ = sim_.now();
  if (dt <= 0.0) return;
  for (Flow& flow : slots_) {
    if (flow.id == 0) continue;
    const double moved = std::min(flow.rate * dt, flow.remaining);
    flow.remaining -= moved;
    for (ResourceId r : flow.path) resources_[r].delivered += moved;
  }
}

void BandwidthNetwork::mark_resource_dirty(ResourceId id) {
  if (resources_[id].dirty) return;
  resources_[id].dirty = true;
  dirty_resources_.push_back(id);
}

void BandwidthNetwork::schedule_flush() {
  if (flush_pending_) return;
  flush_pending_ = true;
  sim_.schedule_after(0.0, [this] { flush(); });
}

void BandwidthNetwork::flush() {
  flush_pending_ = false;
  advance();
  refill_dirty();
  schedule_next_completion();
}

void BandwidthNetwork::refill_dirty() {
  if (policy_ == RefillPolicy::full) {
    // Naive reference mode: every pass re-rates everything.
    dirty_pathless_.clear();
    for (ResourceId r = 0; r < resources_.size(); ++r) mark_resource_dirty(r);
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].id != 0 && slots_[slot].path.empty()) {
        dirty_pathless_.push_back(slot);
      }
    }
  }
  if (dirty_resources_.empty() && dirty_pathless_.empty()) return;
  ++filling_passes_;

  // Collect the connected component(s) reachable from the dirty set: a
  // re-rated flow changes the residual capacity seen by every flow sharing
  // a resource with it, transitively. Flows outside keep their rates.
  std::vector<ResourceId> comp_resources;
  std::vector<std::uint32_t> comp_flows;
  std::vector<ResourceId> stack = dirty_resources_;
  while (!stack.empty()) {
    const ResourceId r = stack.back();
    stack.pop_back();
    comp_resources.push_back(r);
    for (std::uint32_t slot : resources_[r].subscribers) {
      Flow& flow = slots_[slot];
      if (flow.in_component) continue;
      flow.in_component = true;
      comp_flows.push_back(slot);
      for (ResourceId r2 : flow.path) {
        if (!resources_[r2].dirty) {
          resources_[r2].dirty = true;
          stack.push_back(r2);
        }
      }
    }
  }
  for (std::uint32_t slot : dirty_pathless_) {
    Flow& flow = slots_[slot];
    if (flow.id == 0 || flow.in_component) continue;
    flow.in_component = true;
    comp_flows.push_back(slot);
  }
  // Deterministic iteration order regardless of discovery order.
  std::sort(comp_resources.begin(), comp_resources.end());
  std::sort(comp_flows.begin(), comp_flows.end());
  flows_refilled_ += comp_flows.size();

  // Progressive filling over the component: all unfrozen flows rise to a
  // common level until a resource saturates or a flow hits its rate cap;
  // constrained flows freeze and the rest continue rising on the residual
  // capacity.
  for (std::uint32_t slot : comp_flows) {
    slots_[slot].rate = 0.0;
    slots_[slot].frozen = false;
  }
  const auto unfrozen_count_on = [&](ResourceId r) {
    std::size_t n = 0;
    for (std::uint32_t slot : resources_[r].subscribers) {
      if (!slots_[slot].frozen) ++n;
    }
    return n;
  };
  const auto frozen_rate_on = [&](ResourceId r) {
    double sum = 0.0;
    for (std::uint32_t slot : resources_[r].subscribers) {
      if (slots_[slot].frozen) sum += slots_[slot].rate;
    }
    return sum;
  };

  std::size_t remaining_unfrozen = comp_flows.size();
  while (remaining_unfrozen > 0) {
    // Highest common level permitted by any resource or flow cap.
    double level = unlimited;
    for (ResourceId r : comp_resources) {
      const std::size_t n = unfrozen_count_on(r);
      if (n == 0) continue;
      const double avail = resources_[r].capacity - frozen_rate_on(r);
      level = std::min(level, std::max(0.0, avail) / static_cast<double>(n));
    }
    for (std::uint32_t slot : comp_flows) {
      if (!slots_[slot].frozen) level = std::min(level, slots_[slot].rate_cap);
    }
    util::check(std::isfinite(level),
                "flow with no constraining resource or cap");

    // Freeze every flow constrained at this level.
    bool froze_any = false;
    for (std::uint32_t slot : comp_flows) {
      Flow& flow = slots_[slot];
      if (flow.frozen) continue;
      bool constrained = flow.rate_cap <= level + 1e-12;
      if (!constrained) {
        for (ResourceId r : flow.path) {
          const std::size_t n = unfrozen_count_on(r);
          const double avail = resources_[r].capacity - frozen_rate_on(r);
          if (n > 0 &&
              std::max(0.0, avail) / static_cast<double>(n) <= level + 1e-12) {
            constrained = true;
            break;
          }
        }
      }
      if (constrained) {
        flow.rate = level;
        flow.frozen = true;
        --remaining_unfrozen;
        froze_any = true;
      }
    }
    if (!froze_any) {
      // No constraint binds (should not happen given the finite check);
      // give everyone the level and stop.
      for (std::uint32_t slot : comp_flows) {
        if (!slots_[slot].frozen) {
          slots_[slot].rate = level;
          slots_[slot].frozen = true;
          --remaining_unfrozen;
        }
      }
    }
  }

  for (ResourceId r : comp_resources) resources_[r].dirty = false;
  for (std::uint32_t slot : comp_flows) slots_[slot].in_component = false;
  dirty_resources_.clear();
  dirty_pathless_.clear();
}

void BandwidthNetwork::schedule_next_completion() {
  ++epoch_;
  double next_dt = unlimited;
  for (const Flow& flow : slots_) {
    if (flow.id == 0) continue;
    if (flow.rate > 0.0) {
      next_dt = std::min(next_dt, flow.remaining / flow.rate);
    }
  }
  if (std::isfinite(next_dt)) {
    // A finish closer than half an ulp of now() rounds back onto now(): the
    // tick would move no bytes and reschedule itself forever. The next
    // representable instant delivers the remainder.
    TimePoint at = sim_.now() + next_dt;
    if (at == sim_.now()) at = std::nextafter(at, unlimited);
    tick_origin_ = sim_.now();
    const std::uint64_t epoch = epoch_;
    sim_.schedule_at(at, [this, epoch] { on_tick(epoch); });
  }
}

void BandwidthNetwork::remove_flow(std::uint32_t slot) {
  Flow& flow = slots_[slot];
  for (ResourceId r : flow.path) {
    // Order-preserving erase keeps subscriber lists in flow-start order so
    // delivered-byte sums stay deterministic.
    auto& subs = resources_[r].subscribers;
    subs.erase(std::remove(subs.begin(), subs.end(), slot), subs.end());
    mark_resource_dirty(r);
  }
  flow = Flow{};  // id = 0: slot free, closure destroyed
  free_slots_.push_back(slot);
  --active_count_;
}

void BandwidthNetwork::on_tick(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // superseded by a newer filling pass
  advance();

  // Collect completions in flow-start order (the pre-slot-map behaviour) so
  // downstream callback effects interleave deterministically. The scratch
  // vector is a reused member: steady-state ticks allocate nothing.
  std::vector<std::pair<FlowId, EventFn>>& callbacks = tick_scratch_;
  callbacks.clear();
  bool completed = false;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    Flow& flow = slots_[slot];
    if (flow.id == 0 || flow.remaining > kRemainingEpsilon) continue;
    if (flow.on_complete) {
      callbacks.emplace_back(flow.id, std::move(flow.on_complete));
    }
    remove_flow(slot);
    completed = true;
  }
  // A tick at the instant that scheduled it moved no bytes; unless it
  // completed a flow, it would reschedule itself there forever.
  util::check(sim_.now() > tick_origin_ || completed,
              "bandwidth network tick moved no bytes and completed no flow");
  std::sort(callbacks.begin(), callbacks.end(),
            [](const auto& a, const auto& b) {
              return (a.first >> 32) < (b.first >> 32);
            });
  // Completions and any flows the callbacks start coalesce into a single
  // filling pass at this instant.
  schedule_flush();
  for (auto& [id, cb] : callbacks) cb();
  callbacks.clear();
}

}  // namespace ssdtrain::sim
