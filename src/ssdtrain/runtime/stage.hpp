#pragma once

/// \file stage.hpp
/// What TrainingSession and ClusterSession share: the activation-placement
/// strategy, the configuration fields both sessions declare, and Stage —
/// one GPU's strategy-selected offloader, adaptive plan (Fig. 3), tensor
/// cache and step program. A TrainingSession holds one stage; a
/// ClusterSession holds one per virtual stage.

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/core/malloc_hook.hpp"
#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/core/planner.hpp"
#include "ssdtrain/core/tensor_cache.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/executor.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/step_stats.hpp"

namespace ssdtrain::runtime {

/// Activation-placement strategy (the three corners of the paper's
/// recompute-offload-keep design space, plus the CPU-offload variant).
enum class Strategy {
  keep_in_gpu,      ///< baseline: everything stays in device memory
  ssdtrain,         ///< offload to NVMe via GDS (the paper's system)
  ssdtrain_cpu,     ///< offload to pinned host memory (host_pinned target)
  recompute_full,   ///< layerwise full recomputation baseline
  /// Hybrid: activation checkpointing whose checkpoints are themselves
  /// offloaded to SSD, with rematerialised tensors kept in GPU memory by
  /// Alg. 1's in-backward branch — the minimum-memory corner of the ROK
  /// space and the interoperability case the paper's Alg. 1 line 5 covers.
  ssdtrain_recompute,
};

std::string_view to_string(Strategy strategy);

/// Inverse of to_string; unknown names are contract violations. Used by
/// the sweep-driven benches, whose string strategy axes round-trip here.
Strategy strategy_from(std::string_view name);

/// The strategy moves activations off the GPU (to SSD or pinned host).
[[nodiscard]] constexpr bool offloads(Strategy strategy) {
  return strategy == Strategy::ssdtrain ||
         strategy == Strategy::ssdtrain_cpu ||
         strategy == Strategy::ssdtrain_recompute;
}

/// The offload target is the GPU's NVMe array.
[[nodiscard]] constexpr bool offloads_to_ssd(Strategy strategy) {
  return strategy == Strategy::ssdtrain ||
         strategy == Strategy::ssdtrain_recompute;
}

/// The backward pass rematerialises activations layer by layer.
[[nodiscard]] constexpr bool recomputes(Strategy strategy) {
  return strategy == Strategy::recompute_full ||
         strategy == Strategy::ssdtrain_recompute;
}

/// The fields SessionConfig and ClusterConfig share, declared once. A
/// ClusterConfig applies the SSDTrain knobs to every stage.
struct TrainingConfig {
  modules::ModelConfig model;
  parallel::ParallelConfig parallel;
  Strategy strategy = Strategy::ssdtrain;
  int micro_batches = 1;  ///< gradient-accumulation count

  /// Step-graph record/replay (on by default): the first run_step traces
  /// through the module tree while recording a StepProgram; every later
  /// step replays the flattened program, bit-identically and much faster.
  /// A cluster records per stage (stage chunk c records on step c, one
  /// recorder per GPU at a time). Off, every step traces: the reference
  /// the replay tests compare against, and bench_step_replay's trace leg.
  bool use_replay = true;

  /// Optional shared program cache (requires use_replay; see
  /// program_cache.hpp). The session — a cluster: each virtual stage —
  /// replays a hit from step 0 without tracing and publishes its own
  /// recording on a miss, until a structural fault fires. Not owned; must
  /// outlive the session.
  ProgramCache* program_cache = nullptr;

  // SSDTrain knobs (ablations):
  bool use_gds = true;
  bool forwarding = true;
  int prefetch_lookahead = 1;
  bool install_malloc_hook = true;
  /// Overrides the planner's offload budget when set.
  std::optional<util::Bytes> budget_override;

  /// Seeded fault injection (empty spec list = disabled; the no-fault path
  /// is byte-identical to a session without the fault layer).
  fault::FaultConfig faults;
  /// Offload retry/backoff knobs; the injector pointer is filled in by the
  /// session.
  core::OffloadFaultPolicy fault_policy;

  /// Crash-consistent checkpointing to the offload SSDs (disabled by
  /// default — the zero-overhead path is byte-identical to a session
  /// without the checkpoint layer). Required before any stage-crash fault
  /// with lose=state: a destructive crash is only recoverable from a
  /// committed checkpoint.
  ckpt::CheckpointPolicy checkpoint;
};

/// What one stage carries across steps besides its model and executor: the
/// strategy's offloader, plan and tensor cache (all empty for strategies
/// that do not offload) and its step program.
class Stage {
 public:
  /// How a step runs: trace, trace while recording, or replay.
  enum class StepMode : std::uint8_t { trace, record, replay };

  Stage() = default;

  /// Builds the offload stack for \p gpu. \p planner carries the model
  /// slice and parallel layout; the stage fills in the rest. The cache is
  /// installed into \p model and attached to \p executor.
  Stage(const TrainingConfig& config, hw::TrainingNode& node, int gpu,
        core::PlannerInputs planner, Executor& executor,
        modules::Model& model, core::CudaMallocHookLibrary* malloc_hook,
        fault::FaultInjector* injector);

  /// The GDS registration hook for \p gpu's allocator, installed; null
  /// unless the strategy offloads and config.install_malloc_hook is set.
  [[nodiscard]] static std::unique_ptr<core::CudaMallocHookLibrary>
  install_malloc_hook(const TrainingConfig& config, hw::TrainingNode& node,
                      int gpu);

  /// Sizes the host target's pinned pool for the stages' summed \p budget
  /// plus in-flight headroom (paper §III-A). No-op for other strategies.
  static void size_pinned_pool(hw::TrainingNode& node, Strategy strategy,
                               util::Bytes budget);

  [[nodiscard]] core::Offloader* offloader() { return offloader_.get(); }
  [[nodiscard]] core::TensorCache* cache() { return cache_.get(); }
  [[nodiscard]] const std::optional<core::OffloadPlan>& plan() const {
    return plan_;
  }
  /// The cache's offload budget as built (0 without a cache).
  [[nodiscard]] util::Bytes offload_budget() const {
    return cache_ != nullptr ? cache_->config().offload_budget : 0;
  }

  /// The stage's sealed recording or a program-cache hit; null before the
  /// stage records, after a non-replayable recording, or with replay off.
  [[nodiscard]] const StepProgram* program() const { return program_.get(); }
  [[nodiscard]] bool program_from_cache() const { return program_from_cache_; }

  /// At the first step boundary after a structural fault: drops the
  /// program, whose pack/load branches may no longer match the degraded
  /// machine (counted in \p invalidations), and re-plans against the
  /// array's reduced write bandwidth. Returns whether a fault was handled.
  bool invalidate_after_fault(std::uint64_t& invalidations);

  /// Picks how the next step runs. Without a program, a usable cache hit
  /// for \p key (recorded against \p schedule) becomes the program and
  /// its weights are materialized; failing that, the stage records when
  /// \p may_record. The cache is not used after a structural fault.
  [[nodiscard]] StepMode next_step_mode(
      const ProgramKey& key, const std::vector<sched::Command>& schedule,
      bool may_record);

  /// Adopts a finished recording and publishes it under \p key; a
  /// non-replayable one turns replay off, logged after \p warning.
  void seal(std::shared_ptr<const StepProgram> recording,
            const ProgramKey& key, std::string_view warning);

  /// Fills \p stats' offloader totals and this step's retry, failure,
  /// fallback and fault-stall deltas.
  void take_offloader_deltas(StepStats& stats);

 private:
  [[nodiscard]] bool program_cache_usable() const {
    return program_cache_ != nullptr &&
           (injector_ == nullptr || injector_->structural_epoch() == 0);
  }

  hw::TrainingNode* node_ = nullptr;
  int gpu_ = 0;
  Executor* executor_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  bool rebalances_ = false;
  std::unique_ptr<core::Offloader> offloader_;
  std::unique_ptr<core::TensorCache> cache_;
  std::optional<core::OffloadPlan> plan_;
  core::PlannerInputs planner_;  ///< kept for post-fault rebalancing
  core::OffloaderStats last_offloader_;  ///< snapshot for per-step deltas

  std::uint64_t fault_epoch_seen_ = 0;  ///< last structural epoch handled
  bool replay_ = false;  ///< off with use_replay unset or a dead recording
  ProgramCache* program_cache_ = nullptr;  ///< not owned; null without one
  std::shared_ptr<const StepProgram> program_;
  bool program_from_cache_ = false;
};

}  // namespace ssdtrain::runtime
