#include "ssdtrain/sim/simulator.hpp"

#include <utility>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sim {

void Simulator::schedule_at(TimePoint t, EventFn fn) {
  util::expects(t >= now_, "cannot schedule event in the past");
  util::expects(static_cast<bool>(fn), "null event callback");
  queue_.push(t, ++seq_, std::move(fn));
}

void Simulator::schedule_after(util::Seconds dt, EventFn fn) {
  util::expects(dt >= 0.0, "negative delay");
  schedule_at(now_ + dt, std::move(fn));
}

TimePoint Simulator::run() {
  while (step()) {
  }
  return now_;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // Opened before the pop so it also spans the callback's destruction (a
  // closure's captures die with it, and those frees are event-driven too),
  // and closed on unwind, so a throwing event leaves no stale depth.
  struct EventScope {
    int& depth;
    explicit EventScope(int& d) : depth(d) { ++depth; }
    ~EventScope() { --depth; }
  } scope(event_depth_);
  // Move the entry out before invoking it: the callback may call
  // drop_pending() or schedule new events, both of which mutate the heap.
  auto e = queue_.pop();
  util::check(e.time >= now_, "time went backwards");
  now_ = e.time;
  ++events_executed_;
  e.payload();
  return true;
}

void Simulator::run_until(TimePoint t) {
  util::expects(t >= now_, "run_until into the past");
  // One event at a time, horizon re-checked against the live top: an event
  // at exactly t may schedule more work at t (zero-delay flushes,
  // completion chains), which must run before the clock is pinned.
  while (!queue_.empty() && queue_.top().time <= t) {
    step();
  }
  now_ = t;
}

}  // namespace ssdtrain::sim
