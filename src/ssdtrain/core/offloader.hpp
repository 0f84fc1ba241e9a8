#pragma once

/// \file offloader.hpp
/// The offloader (paper §III-A): one engine that moves CUDA tensors to and
/// from one of three targets (OffloadTarget): the node's NVMe RAID0 array,
/// over GDS or through a host bounce buffer, or the host pinned-memory pool
/// (which the paper positions for future remote-storage work). Slot table,
/// DMA pins, deferred release, the retry/backoff ladder and the stats exist
/// once; the target only picks how space is reserved and freed, the
/// per-attempt setup, NAND accounting, the loss check, and the flow paths
/// and labels. Two FIFO thread pools (store, load) issue the I/O. Store
/// jobs wait for the producing kernel's completion before touching the
/// data; load completions become the ready events consumers wait on.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ssdtrain/core/malloc_hook.hpp"
#include "ssdtrain/fault/io_error.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/sim/completion.hpp"
#include "ssdtrain/sim/thread_pool.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/tensor/tensor.hpp"
#include "ssdtrain/tensor/tensor_id.hpp"

namespace ssdtrain::fault {
class FaultInjector;
}  // namespace ssdtrain::fault

namespace ssdtrain::core {

struct OffloaderStats {
  std::uint64_t stores = 0;
  std::uint64_t loads = 0;
  util::Bytes bytes_stored = 0;
  util::Bytes bytes_loaded = 0;  ///< bytes read back from the target
  std::uint64_t releases = 0;
  std::uint64_t failed_stores = 0;  ///< host target: pinned pool exhausted

  // Fault-injection reactions (all zero with the injector disabled).
  std::uint64_t io_retries = 0;     ///< attempts re-issued after an error
  std::uint64_t io_failures = 0;    ///< failed attempts (transient + timeout)
  std::uint64_t store_faults = 0;   ///< stores that permanently failed
  std::uint64_t load_faults = 0;    ///< loads that hit permanent data loss
  std::uint64_t recompute_fallbacks = 0;  ///< loads served by rematerialising
  util::Seconds retry_backoff_time = 0.0;
  util::Seconds fault_extra_latency = 0.0;  ///< injected ssd-latency paid
  util::Seconds recompute_fallback_time = 0.0;

  /// Field-wise sums (cluster totals) and differences (per-step deltas).
  OffloaderStats& operator+=(const OffloaderStats& o) {
    zip(*this, o, [](auto& a, auto b) { a += b; });
    return *this;
  }
  friend OffloaderStats operator-(OffloaderStats a, const OffloaderStats& b) {
    zip(a, b, [](auto& x, auto y) { x -= y; });
    return a;
  }

 private:
  /// The one field list the arithmetic walks.
  template <typename F>
  static void zip(OffloaderStats& a, const OffloaderStats& b, F f) {
    f(a.stores, b.stores);
    f(a.loads, b.loads);
    f(a.bytes_stored, b.bytes_stored);
    f(a.bytes_loaded, b.bytes_loaded);
    f(a.releases, b.releases);
    f(a.failed_stores, b.failed_stores);
    f(a.io_retries, b.io_retries);
    f(a.io_failures, b.io_failures);
    f(a.store_faults, b.store_faults);
    f(a.load_faults, b.load_faults);
    f(a.recompute_fallbacks, b.recompute_fallbacks);
    f(a.retry_backoff_time, b.retry_backoff_time);
    f(a.fault_extra_latency, b.fault_extra_latency);
    f(a.recompute_fallback_time, b.recompute_fallback_time);
  }
};
// A new field changes the size: list it in zip(), then bump the count.
static_assert(sizeof(OffloaderStats) == 14 * 8,
              "OffloaderStats gained a field: add it to OffloaderStats::zip");

/// Retry/timeout/backoff policy for offload I/O, driven by the fault
/// injector. With `injector == nullptr` (the default) every guard in the
/// transfer paths is skipped and behaviour is byte-identical to a build
/// without the fault layer.
struct OffloadFaultPolicy {
  fault::FaultInjector* injector = nullptr;
  int max_attempts = 4;
  util::Seconds initial_backoff = util::us(50);
  double backoff_multiplier = 2.0;
  /// 0 = no deadline; otherwise an attempt whose setup latency (base +
  /// injected) reaches this fails with IoErrorCode::timeout and retries.
  util::Seconds attempt_timeout = 0.0;
  /// Cost model for the recompute fallback after permanent data loss;
  /// 0 = four HBM traversals of the lost bytes (a conservative stand-in
  /// for re-running the producing layer's forward).
  double recompute_seconds_per_byte = 0.0;
};

/// Result of beginning a load: the destination tensor (device memory is
/// allocated immediately, as cudaMalloc would be) plus the completion that
/// fires when the data has arrived. The tensor's ready event is the same
/// completion.
struct LoadTicket {
  tensor::Tensor tensor;
  sim::CompletionPtr done;
};

/// Where offloaded activations live. The two SSD targets share the NVMe
/// array and differ only in the route; the host target is the pinned pool.
enum class OffloadTarget : std::uint8_t {
  ssd_gds,      ///< GPU -> PCIe -> SSD, no host bounce (the paper's path)
  ssd_bounce,   ///< GPU -> host bounce buffer -> SSD (the no-GDS ablation)
  host_pinned,  ///< plain D2H/H2D into the host pinned-memory pool
};

struct OffloaderConfig {
  OffloadTarget target = OffloadTarget::ssd_gds;
  int gpu_index = 0;
  int store_workers = 2;
  int load_workers = 2;
  OffloadFaultPolicy fault;
};

class Offloader {
 public:
  /// \p malloc_hook (SSD targets only) decides the per-transfer setup
  /// latency: pre-registered buffers skip cuFile's registration round trip.
  Offloader(hw::TrainingNode& node, tensor::TensorFactory& factory,
            OffloaderConfig config,
            const CudaMallocHookLibrary* malloc_hook = nullptr);

  /// Begins storing \p t under \p id. The transfer starts once \p ready
  /// fires (producer kernel done) and a store-pool worker is free. Returns
  /// the store completion, or std::nullopt if the target cannot take the
  /// tensor right now (pinned pool exhausted: the caller keeps it in GPU
  /// memory).
  std::optional<sim::CompletionPtr> store(const tensor::TensorId& id,
                                          const tensor::Tensor& t,
                                          sim::CompletionPtr ready);

  /// Begins loading \p id back into a fresh device tensor. \p label names
  /// the destination tensor and is RETAINED for the tensor's lifetime
  /// (tensors carry interned labels now), so pass an owning form —
  /// interned or Label::suffixed — never a Label::view over scratch text.
  LoadTicket load(const tensor::TensorId& id, util::Label label,
                  tensor::TensorShape shape, tensor::DType dtype);

  /// Releases the offloaded copy (TRIM on SSD, pool free on host). Safe to
  /// call while a store is still in flight — the release is deferred until
  /// the store completes.
  void release(const tensor::TensorId& id);

  [[nodiscard]] std::string target_name() const;
  [[nodiscard]] const OffloaderStats& stats() const { return stats_; }

  /// Typed status of the offloaded copy of \p id: data_lost after a store
  /// permanently failed (the cache then keeps the tensor on GPU instead of
  /// dropping it). none for healthy or unknown ids.
  [[nodiscard]] IoError store_status(const tensor::TensorId& id) const;

 private:
  struct Slot {
    hw::ArrayExtent extent;         ///< SSD targets
    hw::HostAllocation allocation;  ///< host target
    bool store_in_flight = false;
    bool release_deferred = false;
    bool lost = false;  ///< store permanently failed; reservation freed
  };

  /// Setup latency and injected outcome of one transfer attempt.
  struct Attempt {
    util::Seconds setup = 0.0;
    IoError error;
  };

  using Path = std::vector<sim::BandwidthNetwork::ResourceId>;

  [[nodiscard]] bool on_ssd() const {
    return config_.target != OffloadTarget::host_pinned;
  }

  /// Consults the injector for one attempt and counts it in io_failures if
  /// it fails. SSD attempts pay the malloc-hook setup latency and any
  /// injected ssd-latency window, and time out once that setup reaches the
  /// policy's deadline; host attempts pay neither (the windows model
  /// NVMe-side stalls) but see io-error windows all the same (a flaky PCIe
  /// link corrupts D2H copies too).
  Attempt begin_attempt();

  /// Books one retry and returns its backoff.
  util::Seconds note_retry(int attempt);

  /// One store/load attempt: retries with exponential backoff on transient
  /// errors, and escalates (store: keep-on-GPU; load: recompute fallback)
  /// once attempts run out.
  void store_attempt(const tensor::TensorId& id, tensor::Tensor pinned_ref,
                     sim::SimThreadPool::FinishToken finish, int attempt);
  void load_attempt(const tensor::TensorId& id, hw::ArrayExtent extent,
                    sim::CompletionPtr done, tensor::Tensor pinned_dst,
                    sim::SimThreadPool::FinishToken finish, int attempt);

  /// Charges a store attempt's NAND programming to the array (SSD only).
  void charge_write(const Slot& slot);
  /// Returns the slot's extent or pinned allocation to its target.
  void free_target(Slot& slot);

  hw::TrainingNode& node_;
  tensor::TensorFactory& factory_;
  OffloaderConfig config_;
  const CudaMallocHookLibrary* malloc_hook_;
  sim::SimThreadPool store_pool_;
  sim::SimThreadPool load_pool_;
  // Resolved once: both depend only on the GPU and the target.
  Path write_path_;
  Path read_path_;
  util::Label write_flow_;  ///< flow label prefix: "store" or "d2h"
  util::Label read_flow_;   ///< flow label prefix: "load" or "h2d"
  std::map<tensor::TensorId, Slot> slots_;
  OffloaderStats stats_;
};

}  // namespace ssdtrain::core
