#pragma once

/// \file session.hpp
/// TrainingSession — the top-level user-facing API. It assembles the
/// simulated machine, the model, the strategy (keep everything / SSDTrain
/// offloading to SSD or host memory / layerwise full recomputation), the
/// adaptive planner, and the schedule, then runs training steps and returns
/// per-step measurements. This is the entry point the examples and all
/// paper-figure benches use.

#include <memory>
#include <optional>
#include <vector>

#include "ssdtrain/ckpt/ledger.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/runtime/stage.hpp"

namespace ssdtrain::runtime {

struct SessionConfig : TrainingConfig {
  hw::NodeConfig node = hw::catalog::table2_evaluation_node();
  /// The paper instruments the GPU attached to the 4-SSD array.
  int gpu_index = hw::catalog::table2_measured_gpu;
};

class TrainingSession {
 public:
  explicit TrainingSession(SessionConfig config);
  TrainingSession(const TrainingSession&) = delete;
  TrainingSession& operator=(const TrainingSession&) = delete;

  /// Runs one step and returns its measurements.
  StepStats run_step();

  /// Runs \p n steps; returns one StepStats per step.
  std::vector<StepStats> run_steps(int n);

  [[nodiscard]] const SessionConfig& config() const { return config_; }
  [[nodiscard]] hw::TrainingNode& node() { return *node_; }
  [[nodiscard]] modules::Model& model() { return *model_; }
  [[nodiscard]] Executor& executor() { return *executor_; }
  /// Null unless the strategy uses the tensor cache.
  [[nodiscard]] core::TensorCache* cache() { return stage_.cache(); }
  [[nodiscard]] core::Offloader* offloader() { return stage_.offloader(); }
  /// The adaptive planner's decision (engaged for offloading strategies).
  [[nodiscard]] const std::optional<core::OffloadPlan>& plan() const {
    return stage_.plan();
  }

  /// The recorded step program, once the first step has run with replay
  /// enabled (null before that, after a recording failure, or with
  /// use_replay = false).
  [[nodiscard]] const StepProgram* program() const { return stage_.program(); }

  /// True when the active program came from the program cache rather than
  /// this session's own trace (it never traced).
  [[nodiscard]] bool program_from_cache() const {
    return stage_.program_from_cache();
  }

  /// Null unless config.faults has specs. Benches and tests use it to
  /// trigger structural faults at step boundaries and read the fault log.
  [[nodiscard]] fault::FaultInjector* injector() { return injector_.get(); }

  /// Null unless config.checkpoint is enabled. Exposes commit/restore
  /// telemetry, the trace timeline, and the torn-blob test hook.
  [[nodiscard]] ckpt::CheckpointWriter* checkpoint_writer() {
    return ledger_.writer();
  }

  /// Steps durably completed: committed step count after rollbacks. Equals
  /// the number of run_step calls only when no crash rolled work back.
  [[nodiscard]] std::uint64_t logical_step() const {
    return ledger_.logical_step();
  }

  /// Wall-clock decomposition so far: useful step time vs checkpoint,
  /// restore, and lost-work overhead. All zeros (with goodput 1.0 once
  /// steps ran) without a checkpoint policy or crashes.
  [[nodiscard]] ckpt::GoodputReport goodput() { return ledger_.goodput(); }

 private:
  SessionConfig config_;
  std::unique_ptr<hw::TrainingNode> node_;
  std::unique_ptr<modules::Model> model_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<core::CudaMallocHookLibrary> malloc_hook_;
  Stage stage_;
  ProgramKey program_key_;  ///< empty unless a program cache is attached
  std::vector<sched::Command> schedule_;
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Checkpoint / recovery / goodput state (inert without a policy).
  ckpt::RecoveryLedger ledger_;
};

}  // namespace ssdtrain::runtime
