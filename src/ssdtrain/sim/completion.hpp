#pragma once

/// \file completion.hpp
/// One-shot completion token, the simulated analogue of a cudaEvent_t /
/// std::future pair. Work items (kernels, I/O flows) expose a Completion;
/// other streams and the tensor cache register waiters on it.
///
/// Completions are pool-allocated and intrusively reference-counted:
/// Completion::create() places the object in a recycled block of the
/// owning Simulator's SlabPool, CompletionPtr bumps a plain (non-atomic)
/// count embedded in the object, and waiters form an intrusive
/// singly-linked list of pooled nodes instead of a
/// std::vector<std::function>. A Simulator and everything scheduled on it
/// is single-threaded by construction (each sweep point owns its own
/// simulator), so the non-atomic count is safe and every shared_ptr
/// control block plus its atomic traffic disappears from the event hot
/// path. At steady state, creating a completion, retaining it,
/// registering a waiter, and firing perform zero heap allocations.
/// Labels are lazy util::Label ids that only render text on demand.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/pool.hpp"

namespace ssdtrain::sim {

class Completion;

/// Intrusive smart pointer over pool-allocated Completions. Single-
/// threaded by contract (see file comment); copying is one increment, no
/// atomics, no control block.
class CompletionPtr {
 public:
  CompletionPtr() noexcept = default;
  CompletionPtr(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-*)
  inline CompletionPtr(const CompletionPtr& other) noexcept;
  CompletionPtr(CompletionPtr&& other) noexcept : ptr_(other.ptr_) {
    other.ptr_ = nullptr;
  }
  inline CompletionPtr& operator=(const CompletionPtr& other) noexcept;
  inline CompletionPtr& operator=(CompletionPtr&& other) noexcept;
  CompletionPtr& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  inline ~CompletionPtr();

  inline void reset() noexcept;
  void swap(CompletionPtr& other) noexcept { std::swap(ptr_, other.ptr_); }

  [[nodiscard]] Completion* get() const noexcept { return ptr_; }
  Completion* operator->() const noexcept { return ptr_; }
  Completion& operator*() const noexcept { return *ptr_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return ptr_ != nullptr;
  }

  friend bool operator==(const CompletionPtr&,
                         const CompletionPtr&) = default;
  friend bool operator==(const CompletionPtr& p, std::nullptr_t) {
    return p.ptr_ == nullptr;
  }

 private:
  friend class Completion;
  /// Adopts an already-counted reference (create/already_done).
  explicit CompletionPtr(Completion* adopted) noexcept : ptr_(adopted) {}

  Completion* ptr_ = nullptr;
};

/// Fires exactly once; waiters registered before the fire run at fire time
/// in registration order, waiters registered after run immediately (same
/// simulated time).
class Completion {
 public:
  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;

  /// Allocates from the simulator's slab pool. The only way to obtain a
  /// Completion; the object lives until the last CompletionPtr drops.
  static CompletionPtr create(Simulator& sim, util::Label label = {});

  /// Creates an already-fired completion (for dependencies that are
  /// trivially satisfied, e.g. a tensor that never left GPU memory).
  static CompletionPtr already_done(Simulator& sim, util::Label label = {});

  [[nodiscard]] bool done() const { return done_; }

  /// Time at which the completion fired. Precondition: done().
  [[nodiscard]] TimePoint completion_time() const;

  /// Registers \p fn to run when (or immediately if) the completion fires.
  void add_waiter(EventFn fn);

  /// Fires the completion at the simulator's current time.
  /// Precondition: not yet done.
  void fire();

  [[nodiscard]] util::Label label() const { return label_; }

 private:
  friend class CompletionPtr;
  friend CompletionPtr when_all(Simulator& sim,
                                std::span<const CompletionPtr> deps,
                                util::Label label);

  struct WaiterNode {
    EventFn fn;
    WaiterNode* next = nullptr;
  };

  static_assert(sizeof(EventFn) <= 80, "inline waiter slot budget");

  explicit Completion(Simulator& sim, util::Label label)
      : sim_(&sim), pool_(sim.pool().get()), label_(label) {}
  ~Completion() = default;

  void add_ref() noexcept { ++refs_; }
  void release() noexcept;

  /// when_all combiner: fires once the dep counter drains.
  void notify_dep_fired();

  Simulator* sim_;
  /// Raw on purpose: this object's own live block is what keeps the pool
  /// alive (orphaned pools self-delete on their last deallocate), so no
  /// per-completion handle traffic is needed even through teardown.
  util::SlabPool* pool_;
  util::Label label_;
  std::uint32_t refs_ = 1;
  bool done_ = false;
  std::uint32_t pending_deps_ = 0;  ///< when_all combiners only
  TimePoint fired_at_ = 0.0;
  /// when_all combiner registered on this dep, holding one manual ref on
  /// the target. Used only when the dep had no waiters at registration
  /// time (so firing it first preserves registration order); otherwise
  /// the combiner falls back to a normal EventFn waiter.
  Completion* combine_target_ = nullptr;
  /// First waiter lives inline: almost every completion has exactly one
  /// (a stream pump, a when_all combiner, a cache state hook), so the
  /// common case allocates no node and chases no pointer. Later waiters
  /// chain through pooled nodes, after the inline one in fire order.
  EventFn inline_waiter_;
  WaiterNode* waiters_head_ = nullptr;
  WaiterNode* waiters_tail_ = nullptr;
};

inline CompletionPtr::CompletionPtr(const CompletionPtr& other) noexcept
    : ptr_(other.ptr_) {
  if (ptr_ != nullptr) ptr_->add_ref();
}

inline CompletionPtr& CompletionPtr::operator=(
    const CompletionPtr& other) noexcept {
  CompletionPtr(other).swap(*this);
  return *this;
}

inline CompletionPtr& CompletionPtr::operator=(
    CompletionPtr&& other) noexcept {
  CompletionPtr(std::move(other)).swap(*this);
  return *this;
}

inline CompletionPtr::~CompletionPtr() {
  if (ptr_ != nullptr) ptr_->release();
}

inline void CompletionPtr::reset() noexcept {
  if (ptr_ != nullptr) {
    ptr_->release();
    ptr_ = nullptr;
  }
}

/// The unfired entries of \p deps: how many there are, and the last one
/// (null when none). The single scan behind when_all's fast paths and
/// Stream's dependency fold. Null entries are a contract violation.
struct UnfiredDeps {
  std::size_t count = 0;
  const CompletionPtr* last = nullptr;
};
UnfiredDeps find_unfired(std::span<const CompletionPtr> deps);

/// Returns a completion that fires when all of \p deps have fired. An
/// empty list yields an already-fired completion. Fast paths avoid any
/// combiner state: with zero unfired deps the result is a fresh fired
/// completion, and with exactly one unfired dep that dep itself is
/// returned (so \p label is dropped and waiters interleave with the dep's
/// own waiters in plain registration order). Takes a span so callers can
/// keep their list in a reused scratch buffer.
CompletionPtr when_all(Simulator& sim, std::span<const CompletionPtr> deps,
                       util::Label label = {});

}  // namespace ssdtrain::sim

namespace ssdtrain::util {
// A CompletionPtr relocates by memcpy: its move is a pointer steal and the
// abandoned source is never destroyed, so closures capturing completions
// can take UniqueFunction's memcpy lane through the event ring.
template <>
inline constexpr bool enable_trivial_relocation<sim::CompletionPtr> = true;
}  // namespace ssdtrain::util
