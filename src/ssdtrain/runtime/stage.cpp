#include "ssdtrain/runtime/stage.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/logging.hpp"

namespace ssdtrain::runtime {

namespace {

constexpr std::pair<Strategy, std::string_view> kStrategyNames[] = {
    {Strategy::keep_in_gpu, "keep-in-gpu"},
    {Strategy::ssdtrain, "ssdtrain"},
    {Strategy::ssdtrain_cpu, "ssdtrain-cpu"},
    {Strategy::recompute_full, "recompute-full"},
    {Strategy::ssdtrain_recompute, "ssdtrain+recompute"},
};

/// Sustained write bandwidth of \p gpu's NVMe array behind its PCIe link.
util::BytesPerSecond ssd_write_bandwidth(hw::TrainingNode& node, int gpu) {
  return std::min(node.array(gpu).nominal_write_bandwidth(),
                  hw::effective_bandwidth(node.config().pcie));
}

}  // namespace

std::string_view to_string(Strategy strategy) {
  for (const auto& [s, name] : kStrategyNames) {
    if (s == strategy) return name;
  }
  return "?";
}

Strategy strategy_from(std::string_view name) {
  for (const auto& [s, text] : kStrategyNames) {
    if (text == name) return s;
  }
  util::check(false, "unknown strategy: " + std::string(name));
  return Strategy::keep_in_gpu;  // unreachable
}

Stage::Stage(const TrainingConfig& config, hw::TrainingNode& node, int gpu,
             core::PlannerInputs planner, Executor& executor,
             modules::Model& model, core::CudaMallocHookLibrary* malloc_hook,
             fault::FaultInjector* injector)
    : node_(&node),
      gpu_(gpu),
      executor_(&executor),
      injector_(injector),
      rebalances_(offloads_to_ssd(config.strategy) &&
                  !config.budget_override.has_value()),
      replay_(config.use_replay),
      program_cache_(config.use_replay ? config.program_cache : nullptr) {
  if (!offloads(config.strategy)) return;

  core::OffloadFaultPolicy fault = config.fault_policy;
  fault.injector = injector;
  util::BytesPerSecond target_bw = 0.0;
  if (offloads_to_ssd(config.strategy)) {
    util::expects(node.has_array(gpu),
                  "SSDTrain strategy needs an SSD array on this GPU");
    offloader_ = std::make_unique<core::SsdOffloader>(
        node, executor.factory(),
        core::SsdOffloaderConfig{gpu, config.store_workers,
                                 config.load_workers, config.use_gds, fault},
        malloc_hook);
    target_bw = ssd_write_bandwidth(node, gpu);
  } else {
    offloader_ = std::make_unique<core::CpuOffloader>(
        node, executor.factory(),
        core::CpuOffloaderConfig{gpu, config.store_workers,
                                 config.load_workers, fault});
    target_bw = std::min(hw::effective_bandwidth(node.config().pcie),
                         node.config().dram_bandwidth);
  }

  // Adaptive planning (Fig. 3): the offload amount follows the slice's
  // compute/activation profile, the GPU throughput and the target bandwidth.
  planner_ = std::move(planner);
  planner_.gpu = node.config().gpu;
  planner_.target_write_bandwidth = target_bw;
  planner_.micro_batches = config.micro_batches;
  plan_ = core::plan_offload(planner_);

  core::TensorCacheConfig cache_cfg = core::make_cache_config(*plan_);
  cache_cfg.offload_budget =
      config.budget_override.value_or(cache_cfg.offload_budget);
  cache_cfg.forwarding = config.forwarding;
  cache_cfg.prefetch_lookahead = config.prefetch_lookahead;
  cache_ = std::make_unique<core::TensorCache>(node.simulator(), *offloader_,
                                               cache_cfg);
  cache_->install_hooks(model);
  executor.attach_cache(cache_.get());
}

std::unique_ptr<core::CudaMallocHookLibrary> Stage::install_malloc_hook(
    const TrainingConfig& config, hw::TrainingNode& node, int gpu) {
  if (!offloads(config.strategy) || !config.install_malloc_hook) return nullptr;
  auto hook = std::make_unique<core::CudaMallocHookLibrary>();
  hook->install(*node.gpu(gpu).allocator);
  return hook;
}

void Stage::size_pinned_pool(hw::TrainingNode& node, Strategy strategy,
                             util::Bytes budget) {
  if (strategy != Strategy::ssdtrain_cpu) return;
  const auto pool =
      static_cast<util::Bytes>(static_cast<double>(budget) * 1.25);
  node.pinned_pool().resize(std::max<util::Bytes>(pool, util::gib(1)));
}

bool Stage::invalidate_after_fault(std::uint64_t& invalidations) {
  if (injector_ == nullptr ||
      injector_->structural_epoch() == fault_epoch_seen_) {
    return false;
  }
  fault_epoch_seen_ = injector_->structural_epoch();
  if (program_ != nullptr) {
    program_.reset();
    ++invalidations;
  }
  if (rebalances_ && cache_ != nullptr) {
    planner_.target_write_bandwidth = ssd_write_bandwidth(*node_, gpu_);
    plan_ = core::plan_offload(planner_);
    cache_->set_offload_budget(core::make_cache_config(*plan_).offload_budget);
  }
  return true;
}

Stage::StepMode Stage::next_step_mode(
    const ProgramKey& key, const std::vector<sched::Command>& schedule,
    bool may_record) {
  if (!replay_) return StepMode::trace;
  if (program_ == nullptr && program_cache_usable()) {
    std::shared_ptr<const StepProgram> cached = program_cache_->lookup(key);
    // A key collision or stale entry that slipped past the fingerprint
    // (should not happen; belt and braces) is a miss.
    if (cached != nullptr && cached->replayable &&
        cached->schedule == schedule &&
        cached->uses_cache == (cache_ != nullptr)) {
      executor_->materialize_weights(*cached);
      program_ = std::move(cached);
      program_from_cache_ = true;
    }
  }
  if (program_ != nullptr) return StepMode::replay;
  return may_record ? StepMode::record : StepMode::trace;
}

void Stage::seal(std::shared_ptr<const StepProgram> recording,
                 const ProgramKey& key, std::string_view warning) {
  if (!recording->replayable) {
    replay_ = false;
    util::log_warning(std::string(warning) + ": " + recording->invalid_reason);
    return;
  }
  if (program_cache_usable()) program_cache_->store(key, recording);
  program_ = std::move(recording);
}

void Stage::take_offloader_deltas(StepStats& stats) {
  if (offloader_ == nullptr) return;
  stats.offloader_totals = offloader_->stats();
  stats.loaded_bytes = stats.offloader_totals.bytes_loaded;
  const core::OffloaderStats& t = stats.offloader_totals;
  const core::OffloaderStats& last = last_offloader_;
  stats.io_retries = t.io_retries - last.io_retries;
  stats.io_failures = t.io_failures - last.io_failures;
  stats.recompute_fallbacks = t.recompute_fallbacks - last.recompute_fallbacks;
  stats.fault_stall_time =
      (t.retry_backoff_time - last.retry_backoff_time) +
      (t.fault_extra_latency - last.fault_extra_latency) +
      (t.recompute_fallback_time - last.recompute_fallback_time);
  last_offloader_ = t;
}

}  // namespace ssdtrain::runtime
