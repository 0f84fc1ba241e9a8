#include "ssdtrain/runtime/session.hpp"

#include <utility>

#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::runtime {

TrainingSession::TrainingSession(SessionConfig config)
    : config_(std::move(config)),
      ledger_(config_.checkpoint, config_.faults) {
  config_.parallel.validate();
  if (config_.program_cache != nullptr && config_.use_replay) {
    program_key_ = session_program_key(config_);
  }
  // Computed once: the schedule is part of the session's identity (a
  // recorded StepProgram is valid only for this exact command sequence),
  // and replayed steps must not allocate for it.
  schedule_ = sched::grad_accum_schedule(config_.micro_batches);
  node_ = std::make_unique<hw::TrainingNode>(config_.node);
  if (config_.faults.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(node_->simulator(),
                                                       config_.faults);
    injector_->bind_node(*node_);
  }
  model_ = modules::build_model(config_.model);

  // One shard: this GPU's weights and their unpartitioned optimizer state.
  ledger_.open(*node_, config_.use_gds, injector_.get());
  ledger_.add_stage(config_.gpu_index, 0,
                    model_->parameter_bytes(config_.parallel.tensor_parallel),
                    1.0);

  ExecutorOptions exec_options;
  exec_options.gpu_index = config_.gpu_index;
  exec_options.recompute = recomputes(config_.strategy);
  executor_ = std::make_unique<Executor>(*node_, config_.parallel,
                                         exec_options);

  malloc_hook_ =
      Stage::install_malloc_hook(config_, *node_, config_.gpu_index);
  core::PlannerInputs planner;
  planner.model = config_.model;
  planner.parallel = config_.parallel;
  stage_ = Stage(config_, *node_, config_.gpu_index, std::move(planner),
                 *executor_, *model_, malloc_hook_.get(), injector_.get());
  Stage::size_pinned_pool(*node_, config_.strategy, stage_.offload_budget());
}

StepStats TrainingSession::run_step() {
  std::uint64_t invalidations = 0;
  stage_.invalidate_after_fault(invalidations);
  const Stage::StepMode mode =
      stage_.next_step_mode(program_key_, schedule_, /*may_record=*/true);
  StepStats stats;
  if (mode == Stage::StepMode::replay) {
    stats = executor_->replay(*stage_.program(), schedule_);
  } else if (mode == Stage::StepMode::trace) {
    // Replay is off, or a recording came back non-replayable.
    stats = executor_->run_step(*model_, schedule_);
  } else {
    // Trace while compiling the program every later step replays, and
    // publish the recording for the next same-config session.
    auto program = std::make_shared<StepProgram>();
    stats = executor_->record_step(*model_, schedule_, *program);
    stage_.seal(std::move(program), program_key_,
                "step replay disabled for this session");
  }
  stage_.take_offloader_deltas(stats);
  stats.program_invalidations = invalidations;
  ledger_.finish_step(stats);
  return stats;
}

std::vector<StepStats> TrainingSession::run_steps(int n) {
  util::expects(n >= 1, "need at least one step");
  std::vector<StepStats> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(run_step());
  return out;
}

}  // namespace ssdtrain::runtime
