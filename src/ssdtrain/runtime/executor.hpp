#pragma once

/// \file executor.hpp
/// The Executor binds the module tree to the simulated hardware: it is the
/// concrete ExecutionContext that allocates tensors from the GPU's
/// allocator, enqueues kernels on the compute stream (with bounded
/// launch-ahead, mimicking how the CPU submits GPU work ahead of execution,
/// paper §IV-B), wires saved tensors through the tensor cache's hooks, and
/// drives a schedule of forward/backward/optimizer commands while
/// collecting StepStats.
///
/// Two execution pipelines share the hardware bindings:
///   * run_step — the trace path: walks the module tree each step.
///   * record_step / replay — trace once into a StepProgram, then replay
///     the flattened op array for every subsequent step (see
///     step_program.hpp). Replay is bit-identical to the trace and
///     allocation-free at steady state on the no-offload path.
///
/// Both pipelines are also exposed piecemeal (begin_trace_step /
/// exec_command / record_step_end / collect_step, and the replay_segment
/// mirror) so runtime::ClusterSession can interleave the commands of many
/// per-stage executors on one shared simulator: each stage owns one
/// Executor over its layer slice, stage boundaries exchange activations as
/// recv completions (push_stage_input) and send flows, and the whole-step
/// wrappers below are the exact single-executor composition of the pieces.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ssdtrain/core/tensor_cache.hpp"
#include "ssdtrain/graph/graph.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/modules/execution_context.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/parallel/collectives.hpp"
#include "ssdtrain/parallel/parallel_config.hpp"
#include "ssdtrain/runtime/step_program.hpp"
#include "ssdtrain/runtime/step_stats.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/sim/bandwidth_network.hpp"
#include "ssdtrain/tensor/tensor.hpp"

namespace ssdtrain::runtime {

struct ExecutorOptions {
  int gpu_index = 0;
  /// Maximum kernels the (simulated) CPU may run ahead of the GPU — about
  /// half a transformer layer. Python module overhead and launch-queue
  /// back-pressure keep the real CPU this close to the GPU, which is what
  /// bounds how much not-yet-offloaded activation memory piles up (the
  /// paper's §III-D estimate likewise assumes only ~two layers resident at
  /// once).
  int max_launch_ahead = 12;
  bool recompute = false;  ///< layerwise full recomputation strategy
  /// Fabric resources TP all-reduces traverse. Empty (the default) keeps
  /// the closed-form all_reduce_time on the compute stream — the validated
  /// single-GPU model. Non-empty switches TP collectives to flows on the
  /// shared BandwidthNetwork (ring traffic 2(n-1)/n·S over this path), so
  /// they contend with offload traffic and peer stages like real NVLink.
  std::vector<sim::BandwidthNetwork::ResourceId> tp_flow_path;
};

class Executor final : public modules::ExecutionContext {
 public:
  Executor(hw::TrainingNode& node, parallel::ParallelConfig parallel,
           ExecutorOptions options);

  /// Attaches the tensor cache whose pack/unpack hooks intercept saved
  /// tensors. Optional: without a cache this is the keep-everything (or
  /// pure recompute) baseline.
  void attach_cache(core::TensorCache* cache) { cache_ = cache; }

  [[nodiscard]] tensor::TensorFactory& factory() { return factory_; }

  /// Runs one training step following \p schedule. Keep-last-module hints
  /// are derived from the schedule (backward immediately after forward).
  StepStats run_step(modules::Model& model,
                     const std::vector<sched::Command>& schedule);

  /// Runs one step on the trace path while compiling it into \p program.
  /// Simulated behaviour (and the returned StepStats) is identical to
  /// run_step; check program.replayable before replaying.
  StepStats record_step(modules::Model& model,
                        const std::vector<sched::Command>& schedule,
                        StepProgram& program);

  /// Replays a recorded program: walks the flattened op array and drives
  /// streams, offloader, and cache directly — no module dispatch, no graph
  /// nodes, no id-keyed lookups. \p schedule must equal the recorded one.
  StepStats replay(const StepProgram& program,
                   const std::vector<sched::Command>& schedule);

  // -- step phases (the cluster session's instruction set) -------------------
  // run_step(model, s) ≡ begin_trace_step(); for i: exec_command(model, s,
  // i, m); finish_step ≡ record_step_end + drive + collect_step;
  // end_trace_step(). The cluster session interleaves these per-executor
  // pieces round-robin and drives the shared simulator itself.

  /// Counter snapshot taken at step begin; collect_step() turns the deltas
  /// into StepStats. Shared by the trace and replay pipelines so both
  /// measure identically.
  struct StepBaseline {
    util::Seconds step_start = 0.0;
    util::Seconds busy_start = 0.0;
    util::Flops algo_start = 0.0;
    util::Flops exec_start = 0.0;
    util::Bytes offloaded_start = 0;
    util::Bytes ssd_written_start = 0;
  };

  /// Resets allocator peaks, opens the cache step, snapshots baselines.
  StepBaseline begin_trace_step();
  /// Replay mirror: validates the program against this executor's
  /// configuration and opens the cache's replay tables.
  StepBaseline begin_replay_step(const StepProgram& program,
                                 const std::vector<sched::Command>& schedule);
  /// Executes one compute command of \p schedule (forward / backward /
  /// optimizer_step; communication kinds are the session driver's job and
  /// trap here). Updates \p pre_optimizer_marker on the optimizer command.
  void exec_command(modules::Model& model,
                    const std::vector<sched::Command>& schedule,
                    std::size_t index,
                    sim::CompletionPtr& pre_optimizer_marker);
  /// Replays the recorded op range of compute command \p command_index
  /// (program.segments, one per begin_recorded_command bracket).
  void replay_segment(const StepProgram& program, std::size_t command_index,
                      sim::CompletionPtr& pre_optimizer_marker);
  /// Marks the end of this executor's step on its compute stream. The
  /// caller drives the simulator until every executor's marker is done.
  sim::CompletionPtr record_step_end();
  /// Deltas since \p base as StepStats; \p step_end_marker must be done.
  StepStats collect_step(const StepBaseline& base,
                         const sim::CompletionPtr& pre_optimizer_marker,
                         const sim::CompletionPtr& step_end_marker);
  /// Post-stats teardown (graph nodes / retained losses), the inter-step
  /// gap on the trace path.
  void end_trace_step();
  /// Post-stats teardown of the replay value slots.
  void end_replay_step();

  /// Installs a recorder compiling subsequent trace-path work into
  /// \p program; record_step brackets run_step with it.
  void start_recording(StepProgram& program,
                       const std::vector<sched::Command>& schedule);
  /// Opens the next compute command's segment in the recording program.
  void begin_recorded_command();
  /// Seals the recording (no-op when none is active).
  void finish_recording();

  /// Copies the executor's weight table (in creation order) into
  /// program.weights. Called when a recording is sealed, so serialized
  /// programs carry enough to rebuild the weights in a fresh process.
  void snapshot_weights(StepProgram& program) const;

  /// Pre-creates every weight in program.weights (a no-op for keys that
  /// already exist): a cache-hit replay in a cold process then starts from
  /// the same device state — weights and gradient buffers live — as the
  /// warm session that recorded the program, so allocator peaks and
  /// weights_live match bit for bit.
  void materialize_weights(const StepProgram& program);

  /// Queues the ready event the next make_stage_input tensor observes —
  /// the recv flow completion of an upstream stage's send. FIFO: models
  /// create their boundary inputs in a deterministic order.
  void push_stage_input(sim::CompletionPtr ready);

  /// ZeRO-partitioned optimizer: scales the optimizer kernels to this
  /// rank's share. \p weight_shard scales the parameter update (stages
  /// 1-3), \p grad_shard the gradient-norm and zero-grad passes (stages
  /// 2-3, where gradients are reduce-scattered). 1.0/1.0 reproduces the
  /// unpartitioned optimizer bit for bit.
  void set_optimizer_shards(double weight_shard, double grad_shard);

  [[nodiscard]] util::Bytes weight_grad_bytes() const {
    return weight_grad_bytes_;
  }

  // -- ExecutionContext -----------------------------------------------------
  tensor::Tensor make_activation(std::string label, tensor::TensorShape shape,
                                 tensor::DType dtype) override;
  tensor::Tensor weight(const std::string& key, tensor::TensorShape shape,
                        tensor::DType dtype) override;
  tensor::Tensor make_host_tensor(std::string label,
                                  tensor::TensorShape shape,
                                  tensor::DType dtype) override;
  tensor::Tensor make_stage_input(std::string label, tensor::TensorShape shape,
                                  tensor::DType dtype) override;
  void kernel(std::string label, util::Flops flops, util::Bytes bytes_read,
              util::Bytes bytes_written,
              std::vector<tensor::Tensor> consumed) override;
  void tp_all_reduce(util::Bytes bytes) override;
  graph::GraphNode& make_node(std::string name) override;
  const graph::SavedTensorHooks* hooks() const override;
  const parallel::ParallelConfig& parallel() const override;
  int micro_batch() const override { return micro_batch_; }
  bool recompute_mode() const override { return options_.recompute; }
  void push_hooks(const graph::SavedTensorHooks* hooks) override;
  void pop_hooks() override;
  void begin_recompute_segment() override { ++recompute_depth_; }
  void end_recompute_segment() override;

  [[nodiscard]] util::Bytes weights_live() const;

 private:
  StepBaseline begin_step();
  StepStats finish_step(const StepBaseline& base,
                        const sim::CompletionPtr& pre_optimizer_marker);
  /// Detaches and drops the recorder without sealing its program.
  void stop_recording();

  /// Fires every pending_ready_ event when \p producer completes (the
  /// kernel or collective that writes those activations), then clears
  /// the list. The one binder of the trace and replay paths.
  void bind_pending_ready(const sim::CompletionPtr& producer);
  void pace();  ///< bounded launch-ahead: advance sim while queue too deep
  void run_optimizer(modules::Model& model);
  /// Launches \p traffic bytes over \p path when the compute stream reaches
  /// this point (stream-ordered collectives); the returned completion fires
  /// \p latency after the flow drains.
  sim::CompletionPtr launch_comm_flow(util::Label label, util::Bytes traffic,
                                      util::Seconds latency);
  void replay_comm(const StepProgram& program, const StepProgram::Op& op);
  sim::CompletionPtr next_stage_input_ready();

  hw::TrainingNode& node_;
  parallel::ParallelConfig parallel_;
  ExecutorOptions options_;
  tensor::TensorFactory factory_;
  graph::Graph graph_;
  core::TensorCache* cache_ = nullptr;
  std::unique_ptr<StepRecorder> recorder_;  ///< non-null while recording
  std::vector<const graph::SavedTensorHooks*> hook_stack_;
  std::map<std::string, tensor::Tensor> weights_;
  std::vector<std::string> weight_order_;  ///< keys in creation order
  util::Bytes weight_grad_bytes_ = 0;
  /// Ready events of activations created since the last producer bind.
  std::vector<sim::CompletionPtr> pending_ready_;
  /// Unfired input ready events of the kernel being enqueued (trace and
  /// replay); a reused member so enqueuing allocates nothing.
  std::vector<sim::CompletionPtr> replay_deps_scratch_;
  std::deque<sim::CompletionPtr> stage_input_ready_;
  std::map<int, tensor::Tensor> loss_by_micro_batch_;
  int micro_batch_ = 0;
  int recompute_depth_ = 0;
  double optimizer_weight_shard_ = 1.0;
  double optimizer_grad_shard_ = 1.0;
  util::Flops algorithmic_flops_ = 0.0;
  util::Flops executed_flops_ = 0.0;

  /// Value slot for programs without a tensor cache: nothing downstream
  /// needs a Tensor object, so the slot carries just the device block and
  /// the ready event — no Storage, no Impl, no shared_ptr traffic.
  struct RawSlot {
    hw::DeviceAllocation alloc;
    sim::CompletionPtr ready;
    bool device = false;
    bool live = false;
  };

  void replay_ops_tensor(const StepProgram& program, std::size_t begin,
                         std::size_t end,
                         sim::CompletionPtr& pre_optimizer_marker);
  void replay_ops_raw(const StepProgram& program, std::size_t begin,
                      std::size_t end,
                      sim::CompletionPtr& pre_optimizer_marker);
  void replay_kernel(const StepProgram& program, const StepProgram::Op& op,
                     std::span<const sim::CompletionPtr> deps);

  // Replay state, reused across replayed steps (steady-state capacity).
  std::vector<tensor::Tensor> replay_slots_;
  std::vector<RawSlot> replay_raw_slots_;
};

}  // namespace ssdtrain::runtime
