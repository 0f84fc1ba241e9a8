#include "ssdtrain/ckpt/ledger.hpp"

#include <algorithm>
#include <optional>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::ckpt {

util::Bytes optimizer_state_bytes(util::Bytes weight_bytes, double shard) {
  return static_cast<util::Bytes>(6.0 * static_cast<double>(weight_bytes) *
                                  shard);
}

RecoveryLedger::RecoveryLedger(const CheckpointPolicy& policy,
                               const fault::FaultConfig& faults)
    : policy_(policy) {
  policy_.validate();
  for (const fault::FaultSpec& spec : faults.specs) {
    util::expects(!spec.rolls_back() || policy_.enabled(),
                  "--faults: stage-crash lose=state is only recoverable "
                  "from a committed checkpoint — configure a checkpoint "
                  "policy (--ckpt-interval N or --ckpt-auto with --mtbf) "
                  "or drop lose=state");
  }
}

void RecoveryLedger::open(hw::TrainingNode& node, bool use_gds,
                          fault::FaultInjector* injector) {
  node_ = &node;
  injector_ = injector;
  if (policy_.enabled()) {
    writer_ = std::make_unique<CheckpointWriter>(node, use_gds);
  }
}

void RecoveryLedger::add_stage(int gpu, int chunk, util::Bytes weight_bytes,
                               double optimizer_shard) {
  state_gpus_.push_back(gpu);
  if (writer_ != nullptr) {
    writer_->add_stage(gpu, chunk, weight_bytes,
                       optimizer_state_bytes(weight_bytes, optimizer_shard));
  }
}

bool RecoveryLedger::checkpoint_due() const {
  if (policy_.every_steps > 0) {
    return steps_since_commit_ >= policy_.every_steps;
  }
  const util::Seconds since = node_->simulator().now() - last_commit_wall_;
  if (policy_.every_seconds > 0.0) return since >= policy_.every_seconds;
  // Young–Daly needs the checkpoint cost; the first boundary commits
  // unconditionally to measure it, then sqrt(2*C*MTBF) takes over.
  return policy_.auto_interval &&
         (!auto_cost_known_ || since >= auto_interval_);
}

void RecoveryLedger::finish_step(runtime::StepStats& stats) {
  if (injector_ != nullptr && !injector_->pending_crashes().empty()) {
    std::optional<sim::TimePoint> earliest;
    for (const fault::CrashRecord& crash : injector_->take_crashes()) {
      if (std::find(state_gpus_.begin(), state_gpus_.end(), crash.gpu) !=
          state_gpus_.end()) {  // an idle GPU holds no state
        earliest = std::min(earliest.value_or(crash.at), crash.at);
      }
    }
    if (earliest.has_value()) {
      util::check(writer_ != nullptr,
                  "stage-crash lose=state fired (via trigger) but no "
                  "checkpoint policy is configured — enable "
                  "--ckpt-interval/--ckpt-auto before injecting "
                  "destructive crashes");
      // The crash wiped everything since the last commit: restore the newest
      // committed checkpoint onto every state GPU (concurrent, contended
      // flows) and roll the logical step counter back to it.
      const util::Seconds lost =
          std::max(0.0, *earliest - writer_->last_commit_time());
      const RestoreResult restore = writer_->restore(state_gpus_);
      stats.restore_time = restore.time;
      stats.rollback_steps = logical_step_ + 1 - restore.step;
      stats.lost_work_time = lost;
      stats.step_time += restore.time;
      ++totals_.restores;
      totals_.restore_time += restore.time;
      totals_.lost_work_time += lost;
      totals_.rollback_steps += stats.rollback_steps;
      provisional_useful_ = 0.0;  // forfeited with the crash
      logical_step_ = restore.step;
      steps_since_commit_ = 0;
      last_commit_wall_ = node_->simulator().now();
      return;
    }
  }

  ++logical_step_;
  provisional_useful_ += stats.step_time;
  if (writer_ == nullptr) return;
  ++steps_since_commit_;
  if (!checkpoint_due()) return;

  const CheckpointCommit commit = writer_->write(logical_step_);
  stats.checkpoint_time = commit.time;
  stats.checkpoint_bytes = commit.bytes;
  stats.step_time += commit.time;
  totals_.checkpoint_time += commit.time;
  totals_.useful_time += provisional_useful_;
  provisional_useful_ = 0.0;
  steps_since_commit_ = 0;
  last_commit_wall_ = commit.committed_at;
  if (policy_.auto_interval && !auto_cost_known_) {
    auto_interval_ = young_daly_interval(commit.time, policy_.mtbf);
    auto_cost_known_ = true;
  }
}

GoodputReport RecoveryLedger::goodput() const {
  GoodputReport report = totals_;
  report.wall_clock = node_->simulator().now();
  report.useful_time += provisional_useful_;
  if (writer_ != nullptr) {
    report.checkpoints = writer_->committed_count();
    report.checkpoint_bytes = writer_->bytes_written();
  }
  return report;
}

}  // namespace ssdtrain::ckpt
