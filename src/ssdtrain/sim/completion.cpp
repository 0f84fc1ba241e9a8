#include "ssdtrain/sim/completion.hpp"

#include <new>
#include <utility>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sim {

CompletionPtr Completion::create(Simulator& sim, util::Label label) {
  // Teardown safety (release() after the Simulator died) relies on every
  // completion and waiter node being a *pooled* block: only pooled blocks
  // count toward SlabPool::live(), which is what keeps an orphaned pool
  // alive. Layout drift past the pool ceiling must be a compile error,
  // not a silent use-after-free.
  static_assert(sizeof(Completion) <= util::SlabPool::kMaxBlockBytes,
                "Completion must stay pool-allocatable");
  static_assert(sizeof(WaiterNode) <= util::SlabPool::kMaxBlockBytes,
                "WaiterNode must stay pool-allocatable");
  void* mem = sim.pool()->allocate(sizeof(Completion));
  return CompletionPtr(::new (mem) Completion(sim, label));
}

CompletionPtr Completion::already_done(Simulator& sim, util::Label label) {
  auto c = create(sim, label);
  c->fire();
  return c;
}

void Completion::release() noexcept {
  if (--refs_ != 0) return;
  // A dep dropped before firing releases its combiner's manual ref (the
  // when_all target then simply never fires, like any dropped waiter).
  if (combine_target_ != nullptr) {
    Completion* target = combine_target_;
    combine_target_ = nullptr;
    target->release();
  }
  // Unfired waiters (dropped work) die with the completion; their closures
  // are destroyed and the nodes recycled.
  WaiterNode* node = waiters_head_;
  while (node != nullptr) {
    WaiterNode* next = node->next;
    node->~WaiterNode();
    pool_->deallocate(node, sizeof(WaiterNode));
    node = next;
  }
  // Our own block is the pool's last anchor if the simulator is gone;
  // deallocating it may reap the orphaned pool, so it goes last.
  util::SlabPool* pool = pool_;
  this->~Completion();
  pool->deallocate(this, sizeof(Completion));
}

TimePoint Completion::completion_time() const {
  util::expects(done_, "completion_time() before fire");
  return fired_at_;
}

void Completion::add_waiter(EventFn fn) {
  util::expects(static_cast<bool>(fn), "null waiter");
  if (done_) {
    fn();
    return;
  }
  if (!inline_waiter_) {
    inline_waiter_ = std::move(fn);
    return;
  }
  void* mem = pool_->allocate(sizeof(WaiterNode));
  auto* node = ::new (mem) WaiterNode{std::move(fn), nullptr};
  if (waiters_tail_ != nullptr) {
    waiters_tail_->next = node;
  } else {
    waiters_head_ = node;
  }
  waiters_tail_ = node;
}

void Completion::fire() {
  util::expects(!done_, "completion fired twice");
  done_ = true;
  fired_at_ = sim_->now();
  // Detach everything first: a waiter may register new waiters on other
  // completions, re-enter this object via done(), or even drop the last
  // reference to it — so keep the pool alive locally and never touch
  // members once waiters start running. Registration order is preserved:
  // the combiner slot (only taken when no waiter preceded it) fires
  // first, then the inline waiter, then the node chain.
  Completion* combine = combine_target_;
  combine_target_ = nullptr;
  EventFn first = std::move(inline_waiter_);
  WaiterNode* node = waiters_head_;
  waiters_head_ = nullptr;
  waiters_tail_ = nullptr;
  // Raw copy is safe, and must happen before any callback runs (a
  // callback may drop this completion's last ref): every node still
  // queued counts as a live block, so the pool itself survives.
  util::SlabPool* pool = pool_;
  if (combine != nullptr) {
    combine->notify_dep_fired();
    combine->release();  // the manual ref taken at registration
  }
  if (first) first();
  while (node != nullptr) {
    WaiterNode* next = node->next;
    node->fn();
    node->~WaiterNode();
    pool->deallocate(node, sizeof(WaiterNode));
    node = next;
  }
}

void Completion::notify_dep_fired() {
  util::check(pending_deps_ > 0, "when_all underflow");
  if (--pending_deps_ == 0) fire();
}

UnfiredDeps find_unfired(std::span<const CompletionPtr> deps) {
  UnfiredDeps unfired;
  for (const auto& d : deps) {
    util::expects(static_cast<bool>(d), "null dependency");
    if (!d->done()) {
      ++unfired.count;
      unfired.last = &d;
    }
  }
  return unfired;
}

CompletionPtr when_all(Simulator& sim, std::span<const CompletionPtr> deps,
                       util::Label label) {
  const UnfiredDeps unfired = find_unfired(deps);
  if (unfired.count == 0) return Completion::already_done(sim, label);
  if (unfired.count == 1) return *unfired.last;  // no combiner at all
  auto all = Completion::create(sim, label);
  all->pending_deps_ = static_cast<std::uint32_t>(unfired.count);
  for (const auto& d : deps) {
    if (d->done()) continue;
    Completion* dep = d.get();
    if (dep->combine_target_ == nullptr && !dep->inline_waiter_ &&
        dep->waiters_head_ == nullptr) {
      // Nothing registered yet: the dedicated slot fires first, which is
      // exactly this registration's position. One raw pointer + a manual
      // ref instead of a closure.
      dep->combine_target_ = all.get();
      all->add_ref();
    } else {
      // The fallback waiter captures a CompletionPtr; the relocatable
      // wrapper keeps it on the memcpy relocation lane through the queue.
      dep->add_waiter(
          util::relocatable([all]() { all->notify_dep_fired(); }));
    }
  }
  return all;
}

}  // namespace ssdtrain::sim
