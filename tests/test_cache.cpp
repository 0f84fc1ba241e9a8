// Unit tests for the tensor cache: every branch of Alg. 1 (weights, CPU,
// small tensors, budget, backward, keep scopes), get_id deduplication,
// asynchronous store lifecycle, data forwarding, prefetch-miss loads, and
// micro-batch record switching.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/core/tensor_cache.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/runtime/step_program.hpp"
#include "ssdtrain/util/units.hpp"

namespace core = ssdtrain::core;
namespace hw = ssdtrain::hw;
namespace t = ssdtrain::tensor;
namespace g = ssdtrain::graph;
namespace u = ssdtrain::util;
namespace rt = ssdtrain::runtime;

namespace {

class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : node_(hw::catalog::single_gpu_node(2)),
        factory_(*node_.gpu(0).allocator),
        offloader_(node_, factory_, {}) {}

  core::TensorCache make_cache(core::TensorCacheConfig cfg = {}) {
    return core::TensorCache(node_.simulator(), offloader_, cfg);
  }

  t::Tensor activation(const char* name, u::Bytes mib_size = 64) {
    return factory_.cuda(name, {u::mib(mib_size) / 2}, t::DType::fp16,
                         hw::MemoryTag::activation);
  }

  hw::TrainingNode node_;
  t::TensorFactory factory_;
  core::SsdOffloader offloader_;
};

}  // namespace

TEST_F(CacheTest, WeightsPassThrough) {
  auto cache = make_cache();
  auto w = factory_.cuda("w", {4096, 4096}, t::DType::fp16,
                         hw::MemoryTag::weights);
  cache.register_weight(w);
  EXPECT_TRUE(cache.is_weight(w));
  // Both the weight and its transpose view are recognised (§III-C1).
  EXPECT_TRUE(cache.is_weight(w.transpose_view()));

  const auto packed = cache.hooks().pack(w.transpose_view());
  EXPECT_TRUE(std::holds_alternative<t::Tensor>(packed));
  EXPECT_EQ(cache.stats().passthrough_weight, 1u);
  EXPECT_EQ(cache.stats().offload_started, 0u);
}

TEST_F(CacheTest, CpuTensorsPassThrough) {
  auto cache = make_cache();
  auto ids = factory_.cpu("ids", {1024, 1024, 2}, t::DType::int32);
  const auto packed = cache.hooks().pack(ids);
  EXPECT_TRUE(std::holds_alternative<t::Tensor>(packed));
  EXPECT_EQ(cache.stats().passthrough_cpu, 1u);
}

TEST_F(CacheTest, SmallTensorsPassThrough) {
  auto cache = make_cache();
  // Alg. 1 line 2: fewer than 2^20 elements.
  auto small = factory_.cuda("small", {1 << 19}, t::DType::fp16,
                             hw::MemoryTag::activation);
  const auto packed = cache.hooks().pack(small);
  EXPECT_TRUE(std::holds_alternative<t::Tensor>(packed));
  EXPECT_EQ(cache.stats().passthrough_small, 1u);
}

TEST_F(CacheTest, ActivationIsOffloadedAndMemoryReclaimed) {
  auto cache = make_cache();
  auto& alloc = *node_.gpu(0).allocator;
  t::TensorId id;
  {
    auto x = activation("x");
    const auto packed = cache.hooks().pack(x);
    ASSERT_TRUE(std::holds_alternative<t::TensorId>(packed));
    id = std::get<t::TensorId>(packed);
    EXPECT_EQ(cache.entry_state(id),
              core::TensorCache::EntryState::offloading);
  }
  // Strong ref held by the cache while the store drains.
  EXPECT_GT(alloc.live(hw::MemoryTag::activation), 0);
  node_.simulator().run();
  EXPECT_EQ(cache.entry_state(id), core::TensorCache::EntryState::offloaded);
  // "Once the tensor finishes offloading, the tensor cache no longer holds
  // a reference" — memory reclaimed.
  EXPECT_EQ(alloc.live(hw::MemoryTag::activation), 0);
  EXPECT_EQ(cache.stats().offload_started, 1u);
}

TEST_F(CacheTest, DedupSecondSaveIssuesNoIo) {
  auto cache = make_cache();
  auto x = activation("x");
  const auto p1 = cache.hooks().pack(x);
  const auto p2 = cache.hooks().pack(x);
  EXPECT_EQ(std::get<t::TensorId>(p1), std::get<t::TensorId>(p2));
  EXPECT_EQ(cache.stats().offload_started, 1u);
  EXPECT_EQ(cache.stats().dedup_hits, 1u);
  EXPECT_EQ(offloader_.stats().stores, 1u);
}

TEST_F(CacheTest, BudgetExhaustionKeepsTensors) {
  core::TensorCacheConfig cfg;
  cfg.offload_budget = u::mib(100);
  auto cache = make_cache(cfg);
  auto a = activation("a", 64);
  auto b = activation("b", 64);
  cache.hooks().pack(a);  // 64 MiB: fits
  const auto packed_b = cache.hooks().pack(b);  // would exceed 100 MiB
  EXPECT_EQ(cache.stats().offload_started, 1u);
  EXPECT_EQ(cache.stats().kept_budget, 1u);
  EXPECT_EQ(cache.entry_state(std::get<t::TensorId>(packed_b)),
            core::TensorCache::EntryState::kept);
}

TEST_F(CacheTest, BackwardPacksAreKept) {
  // Alg. 1's is_current_in_backward(): recomputation inside backward must
  // not re-offload what it rematerialises.
  auto cache = make_cache();
  cache.on_backward_begin();
  auto x = activation("x");
  const auto packed = cache.hooks().pack(x);
  EXPECT_EQ(cache.entry_state(std::get<t::TensorId>(packed)),
            core::TensorCache::EntryState::kept);
  EXPECT_EQ(cache.stats().kept_backward, 1u);
}

TEST_F(CacheTest, UnpackKeptReturnsSameTensor) {
  core::TensorCacheConfig cfg;
  cfg.offload_budget = 0;  // keep everything
  auto cache = make_cache(cfg);
  auto x = activation("x");
  const auto packed = cache.hooks().pack(x);
  auto back = cache.hooks().unpack(packed);
  EXPECT_TRUE(same_storage(back, x));
}

TEST_F(CacheTest, ForwardingServesInFlightStores) {
  auto cache = make_cache();
  auto x = activation("x");
  const auto packed = cache.hooks().pack(x);
  // Do NOT run the simulator: the store is still in flight.
  auto back = cache.hooks().unpack(packed);
  EXPECT_TRUE(same_storage(back, x));
  EXPECT_EQ(cache.stats().forwards, 1u);
  // After the store completes, the forwarded tensor stays resident for
  // future scopes (paper §III-C2): both in memory and on SSD.
  node_.simulator().run();
  EXPECT_EQ(cache.entry_state(std::get<t::TensorId>(packed)),
            core::TensorCache::EntryState::loaded);
  auto again = cache.hooks().unpack(packed);
  EXPECT_TRUE(same_storage(again, x));
  EXPECT_EQ(offloader_.stats().loads, 0u);  // no round trip ever issued
}

TEST_F(CacheTest, ForwardingDisabledGatesOnReload) {
  core::TensorCacheConfig cfg;
  cfg.forwarding = false;
  auto cache = make_cache(cfg);
  auto x = activation("x");
  const auto packed = cache.hooks().pack(x);
  auto back = cache.hooks().unpack(packed);
  EXPECT_TRUE(back.defined());
  // The returned tensor is gated on store + reload, not ready yet.
  ASSERT_TRUE(back.storage()->ready_event() != nullptr);
  EXPECT_FALSE(back.storage()->ready_event()->done());
  node_.simulator().run();
  EXPECT_TRUE(back.storage()->ready_event()->done());
  EXPECT_EQ(cache.stats().forwards, 0u);
  EXPECT_EQ(offloader_.stats().loads, 1u);
}

TEST_F(CacheTest, ForwardingDisabledReloadIsMootOnceRetired) {
  // The step ends before the store drains: the reload the unpack queued
  // behind it only unblocks the consumers and reads nothing back.
  core::TensorCacheConfig cfg;
  cfg.forwarding = false;
  auto cache = make_cache(cfg);
  auto x = activation("x");
  auto gated = cache.hooks().unpack(cache.hooks().pack(x));
  ASSERT_TRUE(gated.storage()->ready_event() != nullptr);
  cache.on_step_begin();
  node_.simulator().run();
  EXPECT_TRUE(gated.storage()->ready_event()->done());
  EXPECT_EQ(offloader_.stats().loads, 0u);
}

TEST_F(CacheTest, UnpackAfterStoreLoadsFromSsd) {
  auto cache = make_cache();
  auto x = activation("x");
  const auto packed = cache.hooks().pack(x);
  node_.simulator().run();  // store completes; GPU copy reclaimed
  x.reset();

  auto back = cache.hooks().unpack(packed);
  EXPECT_TRUE(back.defined());
  EXPECT_EQ(cache.entry_state(std::get<t::TensorId>(packed)),
            core::TensorCache::EntryState::loading);
  EXPECT_EQ(cache.stats().miss_loads, 1u);
  node_.simulator().run();
  EXPECT_EQ(cache.entry_state(std::get<t::TensorId>(packed)),
            core::TensorCache::EntryState::loaded);
  // A second unpack returns the already-loaded tensor without new I/O.
  auto again = cache.hooks().unpack(packed);
  EXPECT_TRUE(same_storage(again, back));
  EXPECT_EQ(offloader_.stats().loads, 1u);
}

TEST_F(CacheTest, MicroBatchRecordsAreIndependent) {
  auto cache = make_cache();
  cache.on_micro_batch(0);
  auto x0 = activation("x0");
  const auto p0 = cache.hooks().pack(x0);
  cache.on_micro_batch(1);
  auto x1 = activation("x1");
  const auto p1 = cache.hooks().pack(x1);
  EXPECT_NE(std::get<t::TensorId>(p0), std::get<t::TensorId>(p1));
  EXPECT_EQ(cache.tracked_entries(), 2u);
  // Unpacking in the right record works; the wrong record throws.
  EXPECT_NO_THROW(cache.hooks().unpack(p1));
  EXPECT_THROW(cache.hooks().unpack(p0), u::ContractViolation);
  cache.on_micro_batch(0);
  EXPECT_NO_THROW(cache.hooks().unpack(p0));
}

TEST_F(CacheTest, StepBeginResetsRecords) {
  auto cache = make_cache();
  auto x = activation("x");
  cache.hooks().pack(x);
  node_.simulator().run();
  EXPECT_EQ(cache.tracked_entries(), 1u);
  cache.on_step_begin();
  EXPECT_EQ(cache.tracked_entries(), 0u);
}

TEST_F(CacheTest, OffloaderRefusalFallsBackToKeep) {
  // CPU offloader with a tiny pinned pool refuses; cache keeps the tensor.
  node_.pinned_pool().resize(u::mib(1));
  core::CpuOffloader cpu_offloader(node_, factory_, {});
  core::TensorCache cache(node_.simulator(), cpu_offloader, {});
  auto x = activation("x");
  const auto packed = cache.hooks().pack(x);
  EXPECT_EQ(cache.entry_state(std::get<t::TensorId>(packed)),
            core::TensorCache::EntryState::kept);
  EXPECT_EQ(cache.stats().kept_offloader_refused, 1u);
  auto back = cache.hooks().unpack(packed);
  EXPECT_TRUE(same_storage(back, x));
}

TEST_F(CacheTest, StatsAccumulateBytes) {
  auto cache = make_cache();
  auto a = activation("a", 64);
  auto b = activation("b", 32);
  cache.hooks().pack(a);
  cache.hooks().pack(b);
  EXPECT_EQ(cache.stats().offloaded_bytes, a.bytes() + b.bytes());
  EXPECT_EQ(cache.stats().packs, 2u);
}

// ---------------------------------------------------------------------------
// Replay fast path: the dense slot-indexed entries Executor::replay drives
// (pack decisions resolved at record time, states/forwarding/release
// re-evaluated live). Each test mirrors a trace-path behaviour above.
// ---------------------------------------------------------------------------

TEST_F(CacheTest, ReplayStoreEvictsAndReloadsByEntryIndex) {
  auto cache = make_cache();
  auto& alloc = *node_.gpu(0).allocator;
  auto x = activation("x");
  const core::TensorCache::ReplayEntryInit init{
      t::TensorId{1001, x.shape().hash()}, x.label(), x.shape(), x.dtype(),
      x.bytes()};
  cache.replay_begin(std::span(&init, 1));

  cache.replay_pack_store(0, x);
  EXPECT_EQ(cache.stats().offload_started, 1u);
  EXPECT_EQ(cache.replay_entry_state(0),
            core::TensorCache::EntryState::offloading);
  x.reset();  // the planner's handle drops; the entry holds the last ref
  node_.simulator().run();
  // Store completed: the entry released its strong reference (eviction).
  EXPECT_EQ(cache.replay_entry_state(0),
            core::TensorCache::EntryState::offloaded);
  EXPECT_EQ(alloc.live(hw::MemoryTag::activation), 0);

  // Miss load by dense index: consumers gate on the reload completion.
  auto back = cache.replay_unpack(0);
  ASSERT_TRUE(back.defined());
  EXPECT_EQ(cache.stats().miss_loads, 1u);
  EXPECT_EQ(cache.replay_entry_state(0),
            core::TensorCache::EntryState::loading);
  EXPECT_FALSE(back.storage()->ready_event()->done());
  node_.simulator().run();
  EXPECT_EQ(cache.replay_entry_state(0),
            core::TensorCache::EntryState::loaded);

  back.reset();
  cache.replay_release(0);
  EXPECT_EQ(cache.stats().releases, 1u);
  EXPECT_EQ(offloader_.stats().releases, 1u);  // SSD extent trimmed
  EXPECT_EQ(node_.array(0).live_bytes(), 0);
  EXPECT_EQ(cache.tracked_entries(), 0u);
  EXPECT_EQ(alloc.live(hw::MemoryTag::activation), 0);
}

TEST_F(CacheTest, ReplayForwardingServesInFlightStore) {
  auto cache = make_cache();
  auto x = activation("x");
  const core::TensorCache::ReplayEntryInit init{
      t::TensorId{1002, x.shape().hash()}, x.label(), x.shape(), x.dtype(),
      x.bytes()};
  cache.replay_begin(std::span(&init, 1));
  cache.replay_pack_store(0, x);

  // Backward arrives while the store drains: data forwarding hands the
  // in-memory reference back instead of waiting for the round trip.
  auto back = cache.replay_unpack(0);
  EXPECT_TRUE(same_storage(back, x));
  EXPECT_EQ(cache.stats().forwards, 1u);
  node_.simulator().run();
  // Forwarded entries stay resident once the store finishes.
  EXPECT_EQ(cache.replay_entry_state(0),
            core::TensorCache::EntryState::loaded);
  cache.replay_release(0);
  EXPECT_EQ(cache.stats().wasted_stores, 0u);
}

TEST_F(CacheTest, ReplayPrefetchSkipsReleasedAndResidentEntries) {
  auto cache = make_cache();
  auto a = activation("a");
  auto b = activation("b");
  const core::TensorCache::ReplayEntryInit inits[] = {
      {t::TensorId{1003, a.shape().hash()}, a.label(), a.shape(), a.dtype(),
       a.bytes()},
      {t::TensorId{1004, b.shape().hash()}, b.label(), b.shape(), b.dtype(),
       b.bytes()},
  };
  cache.replay_begin(inits);
  cache.replay_pack_store(0, a);
  cache.replay_pack_store(1, b);
  a.reset();
  b.reset();
  node_.simulator().run();  // both offloaded
  cache.replay_release(1);  // scope retired before its prefetch point

  const std::uint32_t candidates[] = {0, 1};
  cache.replay_prefetch(candidates);
  // Only the live offloaded entry starts a load.
  EXPECT_EQ(cache.stats().prefetch_loads, 1u);
  EXPECT_EQ(cache.replay_entry_state(0),
            core::TensorCache::EntryState::loading);
  node_.simulator().run();
  cache.replay_release(0);
  EXPECT_EQ(node_.array(0).live_bytes(), 0);
}

TEST_F(CacheTest, ReplayKeepStaysResidentAndWastedStoreTrimsDeferred) {
  auto cache = make_cache();
  auto kept = activation("kept");
  auto wasted = activation("wasted");
  const core::TensorCache::ReplayEntryInit inits[] = {
      {t::TensorId{1005, kept.shape().hash()}, kept.label(), kept.shape(),
       kept.dtype(), kept.bytes()},
      {t::TensorId{1006, wasted.shape().hash()}, wasted.label(),
       wasted.shape(), wasted.dtype(), wasted.bytes()},
  };
  cache.replay_begin(inits);

  cache.replay_pack_keep(0, kept, core::TensorCache::KeepReason::scope);
  EXPECT_EQ(cache.stats().kept_scope, 1u);
  EXPECT_TRUE(same_storage(cache.replay_unpack(0), kept));

  cache.replay_pack_store(1, wasted);
  // Scope ends before the store finishes: a wasted store whose extent trim
  // is deferred until the transfer drains.
  cache.replay_release(1);
  EXPECT_EQ(cache.stats().wasted_stores, 1u);
  node_.simulator().run();
  EXPECT_EQ(offloader_.stats().releases, 1u);
  EXPECT_EQ(node_.array(0).live_bytes(), 0);

  cache.replay_release(0);
  EXPECT_EQ(cache.tracked_entries(), 0u);
}

TEST_F(CacheTest, ReplayForwardingDisabledReloadIsMootOnceReleased) {
  core::TensorCacheConfig cfg;
  cfg.forwarding = false;
  auto cache = make_cache(cfg);
  auto x = activation("x");
  const core::TensorCache::ReplayEntryInit init{
      t::TensorId{1007, x.shape().hash()}, x.label(), x.shape(), x.dtype(),
      x.bytes()};
  cache.replay_begin(std::span(&init, 1));
  cache.replay_pack_store(0, x);
  auto gated = cache.replay_unpack(0);
  ASSERT_TRUE(gated.storage()->ready_event() != nullptr);
  cache.replay_release(0);  // its scope retires before the store drains
  EXPECT_EQ(cache.stats().wasted_stores, 1u);
  node_.simulator().run();
  EXPECT_TRUE(gated.storage()->ready_event()->done());
  EXPECT_EQ(offloader_.stats().loads, 0u);
}

// ---------------------------------------------------------------------------
// The step recorder compiles what the cache reports; a step replay could
// not reproduce stays on the trace path, with the reason.
// ---------------------------------------------------------------------------

class CacheRecorderTest : public CacheTest {
 protected:
  /// Records one step of \p body on a keep-everything cache and returns
  /// the sealed program.
  template <typename Body>
  rt::StepProgram record(Body body) {
    core::TensorCacheConfig cfg;
    cfg.offload_budget = 0;  // keep: no offloader slot to collide in
    auto cache = make_cache(cfg);
    rt::StepProgram program;
    rt::StepRecorder recorder(program, *node_.gpu(0).allocator,
                              /*uses_cache=*/true);
    cache.set_trace_recorder(&recorder);
    cache.on_step_begin();
    body(cache, recorder);
    recorder.finalize();
    cache.set_trace_recorder(nullptr);
    return program;
  }
};

TEST_F(CacheRecorderTest, SameTensorPackedInTwoMicroBatchesIsNotReplayable) {
  auto x = activation("x");
  const auto program = record([&](core::TensorCache& cache,
                                  rt::StepRecorder& recorder) {
    recorder.on_make_activation(x);
    cache.on_micro_batch(0);
    cache.hooks().pack(x);
    cache.on_micro_batch(1);
    cache.hooks().pack(x);  // a new entry: dedup is per micro-batch record
    EXPECT_EQ(cache.tracked_entries(), 2u);
  });
  EXPECT_FALSE(program.replayable);
  EXPECT_EQ(program.invalid_reason, "tensor id packed twice in one step");
}

TEST_F(CacheRecorderTest, StepThatNeverReleasesIsNotReplayable) {
  auto x = activation("x");
  auto y = activation("y");
  const auto program = record([&](core::TensorCache& cache,
                                  rt::StepRecorder& recorder) {
    recorder.on_make_activation(x);
    recorder.on_make_activation(y);
    cache.hooks().pack(x);
    cache.hooks().pack(y);
  });
  ASSERT_EQ(program.entries.size(), 2u);
  EXPECT_FALSE(program.replayable);
  EXPECT_EQ(program.invalid_reason, "recorded step leaked cache entries");
}
