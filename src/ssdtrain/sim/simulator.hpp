#pragma once

/// \file simulator.hpp
/// Discrete-event simulation core. A Simulator owns a priority queue of
/// timestamped callbacks and a monotonically advancing clock. Everything in
/// the hardware model (GPU streams, PCIe flows, SSD channels) is driven by
/// events scheduled here; no wall-clock time is ever read.
///
/// The event path is allocation-free at steady state: callbacks are
/// move-only util::UniqueFunction with inline storage, the queue is an
/// indexed 4-ary EventHeap whose pop moves the callback out (no
/// copy-per-pop), and the per-simulator SlabPool recycles completion and
/// waiter blocks (see completion.hpp).

#include <cstdint>
#include <memory>
#include <vector>

#include "ssdtrain/sim/event_heap.hpp"
#include "ssdtrain/util/pool.hpp"
#include "ssdtrain/util/unique_function.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::sim {

/// Simulated time in seconds since simulation start.
using TimePoint = double;

/// Event/waiter callback: move-only, 64 bytes of inline storage. Small
/// closures (the entire event hot path) schedule without touching the
/// heap; oversized ones degrade to one allocation, as std::function did.
using EventFn = util::UniqueFunction<void()>;

class Simulator {
 public:
  Simulator() : pool_(util::SlabPool::create()) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules \p fn to run at absolute time \p t (must be >= now()).
  /// Events at equal times run in scheduling (FIFO) order.
  void schedule_at(TimePoint t, EventFn fn);

  /// Schedules \p fn to run \p dt seconds from now (dt >= 0).
  void schedule_after(util::Seconds dt, EventFn fn);

  /// Runs events until the queue is empty. Returns the final time.
  TimePoint run();

  /// Runs a single event if one exists. Returns false when the queue is
  /// empty.
  bool step();

  /// True while an event callback runs: whatever happens now (a release,
  /// a free, a flow start) is event-driven, whoever advanced the clock.
  [[nodiscard]] bool in_event() const { return event_depth_ > 0; }

  /// Runs events with timestamps <= \p t, then advances the clock to \p t.
  /// The horizon is re-checked against the live queue after every event,
  /// so events scheduled *by* events at exactly time t still run before
  /// the clock is pinned (regression-tested; a drain-then-pin
  /// implementation would drop them).
  void run_until(TimePoint t);

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Discards all pending events without running them. Used during teardown
  /// so event closures (which may own simulated resources) are destroyed
  /// while the objects they release into are still alive. Safe to call
  /// from inside a running event: the in-flight callback was moved out of
  /// the heap before being invoked.
  void drop_pending() { queue_.clear(); }

  /// Monotonic logical counter: each call returns a strictly increasing
  /// value. Used for deterministic tie-breaking and for the tensor cache's
  /// logical `get_id` timestamps (the paper uses wall-clock timestamps; a
  /// logical clock preserves uniqueness while keeping runs reproducible).
  std::uint64_t next_logical_stamp() { return ++logical_stamp_; }

  /// Slab pool backing this simulator's completions and waiter nodes.
  /// Shared (via the non-atomic intrusive handle) so those objects keep
  /// the pool alive through teardown.
  [[nodiscard]] const util::SlabPool::Handle& pool() const { return pool_; }

 private:
  EventHeap<EventFn> queue_;
  util::SlabPool::Handle pool_;
  TimePoint now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t logical_stamp_ = 0;
  int event_depth_ = 0;  ///< nested step() callbacks now running
};

}  // namespace ssdtrain::sim
