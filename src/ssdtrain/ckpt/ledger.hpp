#pragma once

/// \file ledger.hpp
/// RecoveryLedger — the checkpoint/recovery driver and goodput ledger both
/// session engines run after every step. It owns the CheckpointWriter,
/// commits when the policy says so, answers destructive crashes with
/// restore + rollback, and splits wall-clock into useful, checkpoint,
/// restore and lost-work time.
///
/// Crash rule: only a lose=state crash on a GPU that holds stage state
/// counts; an idle GPU loses nothing. Recovery restores every state GPU,
/// since committed optimizer steps cannot be un-applied in place.

#include <cstdint>
#include <memory>
#include <vector>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/ckpt/writer.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/runtime/step_stats.hpp"

namespace ssdtrain::ckpt {

/// The fp32 optimizer state behind \p weight_bytes of fp16 weights:
/// momentum plus master copy, 12 B per 2-byte parameter, cut to \p shard
/// of it when ZeRO partitions the states across the DP group.
[[nodiscard]] util::Bytes optimizer_state_bytes(util::Bytes weight_bytes,
                                                double shard);

class RecoveryLedger {
 public:
  /// Validates \p policy and rejects any lose=state fault spec without a
  /// checkpoint policy: a destructive crash is only recoverable from a
  /// committed checkpoint.
  RecoveryLedger(const CheckpointPolicy& policy,
                 const fault::FaultConfig& faults);

  /// Binds the machine and its (optional) injector; builds the writer
  /// when the policy is enabled. \p use_gds picks the checkpoint route.
  void open(hw::TrainingNode& node, bool use_gds,
            fault::FaultInjector* injector);

  /// Registers one (gpu, chunk) stage: its GPU now holds state, which the
  /// writer (if any) checkpoints — the weights plus their optimizer state,
  /// \p optimizer_shard of it on this rank.
  void add_stage(int gpu, int chunk, util::Bytes weight_bytes,
                 double optimizer_shard);

  /// Post-step driver: restores and rolls back after a destructive crash
  /// on a state GPU, or commits a due checkpoint, and records either in
  /// \p stats (its time is added to step_time).
  void finish_step(runtime::StepStats& stats);

  /// Null unless the policy is enabled.
  [[nodiscard]] CheckpointWriter* writer() { return writer_.get(); }
  /// Steps durably completed: committed step count after rollbacks.
  [[nodiscard]] std::uint64_t logical_step() const { return logical_step_; }
  [[nodiscard]] GoodputReport goodput() const;

 private:
  /// The policy says a commit is due at this (post-step) boundary.
  [[nodiscard]] bool checkpoint_due() const;

  CheckpointPolicy policy_;
  hw::TrainingNode* node_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  std::unique_ptr<CheckpointWriter> writer_;
  std::vector<int> state_gpus_;  ///< one entry per registered stage

  std::uint64_t logical_step_ = 0;  ///< committed steps (rolls back)
  int steps_since_commit_ = 0;
  sim::TimePoint last_commit_wall_ = 0.0;
  util::Seconds auto_interval_ = 0.0;  ///< Young–Daly, once cost is known
  bool auto_cost_known_ = false;
  /// Running totals; useful_time holds committed step time only.
  GoodputReport totals_;
  /// Step time since the last commit: useful at the next commit, forfeited
  /// by a crash.
  util::Seconds provisional_useful_ = 0.0;
};

}  // namespace ssdtrain::ckpt
