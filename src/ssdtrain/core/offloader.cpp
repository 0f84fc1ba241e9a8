#include "ssdtrain/core/offloader.hpp"

#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::core {

using tensor::Tensor;
using tensor::TensorId;

namespace {

// Interned once; per-tensor identity rides in the Label's tag payload, so
// naming a transfer allocates nothing and renders ("store:t000042-...")
// only on demand.
util::Label tagged(util::Label prefix, const TensorId& id) {
  return util::Label::tagged(prefix, id.stamp, id.shape_key);
}

util::Label store_label(const TensorId& id) {
  static const util::Label kPrefix("store");
  return tagged(kPrefix, id);
}

util::Label load_label(const TensorId& id) {
  static const util::Label kPrefix("load");
  return tagged(kPrefix, id);
}

util::Seconds backoff_for(const OffloadFaultPolicy& policy, int attempt) {
  // initial * multiplier^(attempt-1), computed by repeated multiplication so
  // the value is bit-stable across compilers (no libm pow variance).
  util::Seconds backoff = policy.initial_backoff;
  for (int i = 1; i < attempt; ++i) backoff *= policy.backoff_multiplier;
  return backoff;
}

/// Degradation ladder, last rung: the offloaded copy is unrecoverable, so
/// the consumer's tensor is rematerialised on-GPU instead of loaded. The
/// cost is charged as a plain timer, not a compute-stream task — consumers
/// of `done` are already enqueued on that FIFO stream, and queueing the
/// recompute behind them would deadlock.
void schedule_recompute(hw::TrainingNode& node, const OffloadFaultPolicy& policy,
                        int gpu_index, OffloaderStats& stats,
                        sim::CompletionPtr done, Tensor pinned_dst,
                        IoError reason) {
  const auto bytes = pinned_dst.bytes();
  const double per_byte = policy.recompute_seconds_per_byte;
  const util::Seconds cost =
      per_byte > 0.0
          ? per_byte * static_cast<double>(bytes)
          : node.gpu(gpu_index).gpu->memory_time(bytes) * 4.0;
  ++stats.load_faults;
  ++stats.recompute_fallbacks;
  stats.recompute_fallback_time += cost;
  if (policy.injector != nullptr) {
    policy.injector->note_structural(
        reason.code == IoErrorCode::device_lost ? fault::FaultKind::ssd_dropout
                                                : fault::FaultKind::io_error,
        gpu_index,
        std::string("recompute fallback (") + reason.message() + ")");
  }
  node.simulator().schedule_after(cost, [done, pinned_dst]() mutable {
    done->fire();
    pinned_dst.reset();
  });
}

}  // namespace

Offloader::Offloader(hw::TrainingNode& node, tensor::TensorFactory& factory,
                     OffloaderConfig config,
                     const CudaMallocHookLibrary* malloc_hook)
    : node_(node),
      factory_(factory),
      config_(config),
      malloc_hook_(malloc_hook),
      store_pool_(node.simulator(), on_ssd() ? "ssd-store" : "cpu-store",
                  static_cast<std::size_t>(config.store_workers)),
      load_pool_(node.simulator(), on_ssd() ? "ssd-load" : "cpu-load",
                 static_cast<std::size_t>(config.load_workers)) {
  const int gpu = config_.gpu_index;
  util::expects(!on_ssd() || node.has_array(gpu),
                "SSD offloader needs an array for this GPU");
  switch (config_.target) {
    case OffloadTarget::ssd_gds:
      write_path_ = node.gds_write_path(gpu);
      read_path_ = node.gds_read_path(gpu);
      break;
    case OffloadTarget::ssd_bounce:
      write_path_ = node.bounce_write_path(gpu);
      read_path_ = node.bounce_read_path(gpu);
      break;
    case OffloadTarget::host_pinned:
      write_path_ = node.d2h_path(gpu);
      read_path_ = node.h2d_path(gpu);
      break;
  }
  write_flow_ = on_ssd() ? "store" : "d2h";
  read_flow_ = on_ssd() ? "load" : "h2d";
}

std::optional<sim::CompletionPtr> Offloader::store(const TensorId& id,
                                                   const Tensor& t,
                                                   sim::CompletionPtr ready) {
  util::expects(t.defined() && !t.is_cpu(), "store expects a device tensor");
  util::expects(!slots_.contains(id), "tensor already offloaded");

  Slot slot;
  if (on_ssd()) {
    slot.extent = node_.array(config_.gpu_index).allocate_extent(t.bytes());
  } else {
    auto allocation = node_.pinned_pool().allocate(t.bytes());
    if (!allocation) {
      // Pinned pool exhausted: the tensor cache keeps the tensor on GPU.
      ++stats_.failed_stores;
      return std::nullopt;
    }
    slot.allocation = *allocation;
  }
  slot.store_in_flight = true;
  slots_.emplace(id, std::move(slot));

  ++stats_.stores;
  stats_.bytes_stored += t.bytes();

  // The job holds a strong reference to the tensor for the duration of the
  // transfer: device memory must stay mapped while the DMA engine reads it,
  // even if the tensor cache has already dropped its own reference.
  return store_pool_.submit(
      store_label(id),
      [this, id, ready, pinned_ref = t](
          sim::SimThreadPool::FinishToken finish) mutable {
        auto begin_io = [this, id, pinned_ref = std::move(pinned_ref),
                         finish]() mutable {
          store_attempt(id, std::move(pinned_ref), finish, 1);
        };
        if (ready && !ready->done()) {
          ready->add_waiter(std::move(begin_io));
        } else {
          begin_io();
        }
      });
}

Offloader::Attempt Offloader::begin_attempt() {
  Attempt attempt;
  if (on_ssd()) {
    // Without the hook library the buffers are unregistered and every
    // transfer pays the slow path. One shared uninstalled instance:
    // constructing a CudaMallocHookLibrary allocates its stats block.
    static const CudaMallocHookLibrary uninstalled;
    attempt.setup = (malloc_hook_ != nullptr ? *malloc_hook_ : uninstalled)
                        .transfer_setup_latency();
  }
  fault::FaultInjector* injector = config_.fault.injector;
  if (injector == nullptr) return attempt;
  if (on_ssd()) {
    const util::Seconds extra = injector->extra_io_latency(config_.gpu_index);
    if (extra > 0.0) {
      attempt.setup += extra;
      stats_.fault_extra_latency += extra;
    }
  }
  attempt.error = injector->io_attempt(config_.gpu_index);
  // Host attempts have no setup, so the deadline never trips for them.
  if (!attempt.error && config_.fault.attempt_timeout > 0.0 &&
      attempt.setup >= config_.fault.attempt_timeout) {
    attempt.error = IoError{IoErrorCode::timeout};
  }
  if (attempt.error) ++stats_.io_failures;
  return attempt;
}

util::Seconds Offloader::note_retry(int attempt) {
  ++stats_.io_retries;
  const util::Seconds backoff = backoff_for(config_.fault, attempt);
  stats_.retry_backoff_time += backoff;
  return backoff;
}

void Offloader::charge_write(const Slot& slot) {
  if (on_ssd()) node_.array(config_.gpu_index).record_write(slot.extent);
}

void Offloader::free_target(Slot& slot) {
  if (on_ssd()) {
    node_.array(config_.gpu_index).release_extent(slot.extent);
  } else {
    node_.pinned_pool().free(slot.allocation);
  }
}

void Offloader::store_attempt(const TensorId& id, Tensor pinned_ref,
                              sim::SimThreadPool::FinishToken finish,
                              int attempt) {
  auto& sim = node_.simulator();
  const Attempt a = begin_attempt();
  if (a.error) {
    auto it = slots_.find(id);
    util::check(it != slots_.end(), "store slot vanished");
    // The aborted attempt still programmed NAND up to the failure point:
    // charge the stripes anyway, so retries show up as extra write
    // amplification in the endurance model.
    charge_write(it->second);
    if (attempt >= config_.fault.max_attempts) {
      // Retries exhausted: give up on offloading this tensor. The
      // reservation never held valid data; the cache sees store_status()
      // == data_lost at store-done time and keeps the tensor on GPU.
      free_target(it->second);
      it->second.store_in_flight = false;
      it->second.lost = true;
      ++stats_.store_faults;
      if (it->second.release_deferred) {
        slots_.erase(it);
        ++stats_.releases;
      }
      pinned_ref.reset();
      finish();
      return;
    }
    // The worker stays occupied across the backoff, as a real retry loop
    // holding its queue slot would.
    sim.schedule_after(
        a.setup + note_retry(attempt),
        [this, id, pinned_ref = std::move(pinned_ref), finish,
         attempt]() mutable {
          store_attempt(id, std::move(pinned_ref), finish, attempt + 1);
        });
    return;
  }
  auto start_flow = [this, id, pinned_ref = std::move(pinned_ref),
                     finish]() mutable {
    const util::Bytes bytes = pinned_ref.bytes();
    node_.network().start_flow(
        tagged(write_flow_, id), bytes, write_path_,
        [this, id, pinned_ref = std::move(pinned_ref), finish]() mutable {
          auto it = slots_.find(id);
          util::check(it != slots_.end(), "store slot vanished");
          charge_write(it->second);
          it->second.store_in_flight = false;
          if (it->second.release_deferred) {
            free_target(it->second);
            slots_.erase(it);
            ++stats_.releases;
          }
          pinned_ref.reset();  // transfer done: drop the DMA pin
          finish();
        });
  };
  // SSD transfers pay their setup first; host DMA starts in this event.
  if (on_ssd()) {
    sim.schedule_after(a.setup, std::move(start_flow));
  } else {
    start_flow();
  }
}

LoadTicket Offloader::load(const TensorId& id, util::Label label,
                           tensor::TensorShape shape, tensor::DType dtype) {
  auto it = slots_.find(id);
  util::expects(it != slots_.end(), "load of tensor never stored");
  util::expects(!it->second.store_in_flight,
                "load while store in flight (forwarding should cover this)");

  auto& sim = node_.simulator();
  Tensor dst = factory_.cuda(label, std::move(shape), dtype,
                             hw::MemoryTag::activation);
  auto done = sim::Completion::create(sim, load_label(id));
  dst.storage()->set_ready_event(done);

  if (config_.fault.injector != nullptr) {
    IoError gone{};
    if (it->second.lost) {
      gone = IoError{IoErrorCode::data_lost};
    } else if (on_ssd() && node_.array(config_.gpu_index)
                               .extent_lost(it->second.extent)) {
      gone = IoError{IoErrorCode::device_lost};
    }
    if (gone) {
      // The copy is unrecoverable (store never landed, or a RAID member
      // carrying its stripes dropped): skip the load pool entirely and
      // rematerialise. Not counted as a load — no bytes left the target.
      schedule_recompute(node_, config_.fault, config_.gpu_index, stats_,
                         done, dst, gone);
      return LoadTicket{dst, done};
    }
  }

  ++stats_.loads;
  stats_.bytes_loaded += dst.bytes();

  // Hold the destination alive until the data lands.
  load_pool_.submit(
      load_label(id),
      [this, id, extent = it->second.extent, done,
       pinned_dst = dst](sim::SimThreadPool::FinishToken finish) mutable {
        load_attempt(id, std::move(extent), done, std::move(pinned_dst),
                     finish, 1);
      });
  return LoadTicket{dst, done};
}

void Offloader::load_attempt(const TensorId& id, hw::ArrayExtent extent,
                             sim::CompletionPtr done, Tensor pinned_dst,
                             sim::SimThreadPool::FinishToken finish,
                             int attempt) {
  auto& sim = node_.simulator();
  const Attempt a = begin_attempt();
  if (a.error) {
    if (attempt >= config_.fault.max_attempts) {
      // Retries exhausted: escalate down the ladder to recompute. The
      // bytes were charged optimistically at load() time; no data
      // actually left the target.
      stats_.bytes_loaded -= pinned_dst.bytes();
      schedule_recompute(node_, config_.fault, config_.gpu_index, stats_,
                         done, std::move(pinned_dst), a.error);
      finish();
      return;
    }
    sim.schedule_after(
        a.setup + note_retry(attempt),
        [this, id, extent = std::move(extent), done,
         pinned_dst = std::move(pinned_dst), finish, attempt]() mutable {
          load_attempt(id, std::move(extent), done, std::move(pinned_dst),
                       finish, attempt + 1);
        });
    return;
  }
  auto start_flow = [this, id, extent = std::move(extent), done,
                     pinned_dst = std::move(pinned_dst), finish]() mutable {
    const util::Bytes bytes = pinned_dst.bytes();
    node_.network().start_flow(
        tagged(read_flow_, id), bytes, read_path_,
        [this, extent = std::move(extent), done,
         pinned_dst = std::move(pinned_dst), finish]() mutable {
          if (on_ssd()) node_.array(config_.gpu_index).record_read(extent);
          done->fire();
          pinned_dst.reset();
          finish();
        });
  };
  if (on_ssd()) {
    sim.schedule_after(a.setup, std::move(start_flow));
  } else {
    start_flow();
  }
}

void Offloader::release(const TensorId& id) {
  auto it = slots_.find(id);
  util::expects(it != slots_.end(), "release of unknown tensor");
  if (it->second.store_in_flight) {
    it->second.release_deferred = true;
    return;
  }
  if (!it->second.lost) free_target(it->second);
  slots_.erase(it);
  ++stats_.releases;
}

std::string Offloader::target_name() const {
  if (!on_ssd()) return "cpu:pinned-pool";
  return "ssd:" + node_.array(config_.gpu_index).name() +
         (config_.target == OffloadTarget::ssd_gds ? " (gds)" : " (bounce)");
}

IoError Offloader::store_status(const TensorId& id) const {
  auto it = slots_.find(id);
  if (it != slots_.end() && it->second.lost) {
    return IoError{IoErrorCode::data_lost};
  }
  return {};
}

}  // namespace ssdtrain::core
