#pragma once

/// \file cluster_session.hpp
/// ClusterSession — cluster-scale execution on one shared simulator. Where
/// TrainingSession gives one Executor the whole machine, a ClusterSession
/// instantiates one Executor per pipeline stage (times the virtual stages
/// of an interleaved schedule), each over its own layer slice of the model
/// with its own offloader, tensor cache, and planner budget, and drives the
/// per-stage command streams round-robin:
///
///   * stage boundaries exchange activations (and their gradients) as flows
///     on the same BandwidthNetwork the offloaders use, so pipeline traffic
///     contends with SSD offload traffic on each GPU's PCIe link;
///   * TP all-reduces become flows on the shared NVLink fabric (the closed
///     form stays the zero-contention validation reference);
///   * DP gradient reduction (plain or ZeRO stage 1/2/3 reduce-scatter /
///     all-gather) rides per-GPU DP-fabric links and gates the optimizer,
///     with optional ZeRO-Offload-style NVMe optimizer-state traffic;
///   * each stage records its StepProgram once and replays it afterwards,
///     so a deep pipeline's steady-state step costs what a single-GPU
///     replayed step does (per stage).
///
/// With pipeline_parallel = tensor_parallel = data_parallel = 1 the session
/// degenerates to exactly the TrainingSession composition and its StepStats
/// are bit-identical — the contract the cluster tests pin down.

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "ssdtrain/ckpt/ledger.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/runtime/stage.hpp"
#include "ssdtrain/sched/schedule.hpp"

namespace ssdtrain::runtime {

struct ClusterConfig : TrainingConfig {
  /// SSDs in each GPU's RAID0 array when the node is auto-built (one GPU
  /// per pipeline stage via hw::catalog::cluster_node).
  int ssds_per_gpu = 4;
  /// Explicit machine override; must carry >= pipeline_parallel GPUs.
  std::optional<hw::NodeConfig> node;
  sched::PipelineKind schedule = sched::PipelineKind::one_f_one_b;
  /// Model chunks per GPU (Megatron interleaved 1F1B). 1 for the plain
  /// schedules.
  int virtual_stages = 1;
  /// Launch/hop latency of pipeline sends and DP collectives.
  util::Seconds fabric_hop_latency = util::us(5);
  /// Per-GPU DP-fabric link bandwidth (NIC class; the DP group crosses
  /// nodes, unlike NVLink-local TP).
  util::BytesPerSecond dp_fabric_bandwidth = util::gbps(25);
  /// ZeRO-Offload-style optimizer-state placement on this GPU's NVMe
  /// array: the optimizer's state partition is read before and written
  /// back after the weight update, as flows on the GDS paths.
  bool zero_offload_optimizer = false;
};

/// One virtual stage's measurements (virtual stage = chunk * pp + gpu).
struct StageStepStats {
  int gpu = 0;
  int chunk = 0;
  StepStats stats;
};

struct ClusterStepStats {
  /// Cluster-level aggregate. Peaks/busy are per-GPU reductions, byte and
  /// FLOP counters sums over stages; for a 1/1/1 cluster this is the
  /// single stage's StepStats verbatim (bit-identical to TrainingSession).
  StepStats combined;
  /// Makespan of the compute pipeline: step start to the last GPU's
  /// pipeline_end marker (excludes the optimizer tail).
  util::Seconds pipeline_time = 0.0;
  /// 1 - mean per-GPU busy fraction over pipeline_time. Converges to
  /// ideal_bubble as fabric/SSD contention goes to zero.
  double measured_bubble = 0.0;
  double ideal_bubble = 0.0;  ///< (pp-1)/(mb*v + pp-1), the closed form
  util::Bytes p2p_bytes = 0;  ///< cross-GPU boundary-activation traffic
  util::Bytes dp_bytes = 0;   ///< DP/ZeRO fabric traffic (all GPUs)
  std::vector<StageStepStats> per_stage;
};

class ClusterSession {
 public:
  explicit ClusterSession(ClusterConfig config);
  ~ClusterSession();
  ClusterSession(const ClusterSession&) = delete;
  ClusterSession& operator=(const ClusterSession&) = delete;

  /// Runs one cluster step (all stages, all micro-batches) and returns its
  /// measurements.
  ClusterStepStats run_step();
  std::vector<ClusterStepStats> run_steps(int n);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] hw::TrainingNode& node() { return *node_; }
  [[nodiscard]] int gpu_count() const {
    return config_.parallel.pipeline_parallel;
  }
  /// pipeline_parallel * virtual_stages model slices.
  [[nodiscard]] int virtual_stage_count() const {
    return config_.parallel.pipeline_parallel * config_.virtual_stages;
  }
  [[nodiscard]] Executor& executor(int virtual_stage);
  /// The virtual stage's recorded program: null before its recording step
  /// (stage chunk c records on step c), after a recording failure, or with
  /// use_replay = false.
  [[nodiscard]] const StepProgram* program(int virtual_stage) const;
  /// Per-stage offload plan (engaged for offloading strategies).
  [[nodiscard]] const std::optional<core::OffloadPlan>& plan(
      int virtual_stage) const;
  /// Null unless config.faults has specs.
  [[nodiscard]] fault::FaultInjector* injector() { return injector_.get(); }

  /// Null unless config.checkpoint is enabled.
  [[nodiscard]] ckpt::CheckpointWriter* checkpoint_writer() {
    return ledger_.writer();
  }
  /// Steps durably completed (rolls back on destructive crashes); diverges
  /// from the run_step call count once a recovery replays lost steps.
  [[nodiscard]] std::uint64_t logical_step() const {
    return ledger_.logical_step();
  }
  /// Wall-clock decomposition: useful step time vs checkpoint/restore/lost
  /// overhead, cluster-wide.
  [[nodiscard]] ckpt::GoodputReport goodput() { return ledger_.goodput(); }

 private:
  struct StageContext;  ///< one (gpu, chunk) model slice and its runtime
  struct GpuLane;       ///< one GPU's expanded command stream

  void build_stage(int virtual_stage);
  /// Range-checked context of one virtual stage.
  [[nodiscard]] const StageContext& context(int virtual_stage) const;
  /// Dispatches one lane command; false when a recv's matching send has
  /// not been dispatched yet (the lane stalls, NCCL blocking-recv style).
  bool dispatch(int gpu, const sched::Command& command);
  void dispatch_compute(StageContext& ctx, std::size_t index);
  /// Launches the boundary-activation (or gradient) flow of one
  /// micro-batch when the sender's stream reaches this point.
  void launch_boundary_send(int src_virtual_stage, int micro_batch,
                            bool forward);
  /// The per-GPU end-of-pipeline sequence: bubble marker, DP gradient
  /// reduction flows, optimizer-state fetch, then every chunk's optimizer
  /// command, then the post-optimizer all-gather / state writeback.
  void dispatch_optimizer(int gpu);
  sim::CompletionPtr launch_fabric_flow(
      util::Label label, util::Bytes bytes,
      std::vector<sim::BandwidthNetwork::ResourceId> path, int gpu,
      util::Seconds latency);

  ClusterConfig config_;
  std::unique_ptr<hw::TrainingNode> node_;
  std::vector<StageContext> contexts_;  ///< indexed by virtual stage
  std::vector<GpuLane> lanes_;          ///< indexed by GPU / pipeline stage
  /// Boundary tensors each virtual stage consumes per forward micro-batch.
  std::vector<int> recv_counts_;
  util::Bytes boundary_bytes_ = 0;  ///< one {seq, mb, hidden} fp16 tensor
  double ideal_bubble_ = 0.0;
  int step_index_ = 0;
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Step index the record stagger counts from; reset when a structural
  /// fault discards the programs so re-recording staggers the same way.
  int record_base_ = 0;

  // Per-step driver state, keyed {virtual stage, micro batch}: the recv
  // completion registered by the matching send's dispatch.
  std::map<std::pair<int, int>, sim::CompletionPtr> pending_forward_;
  std::map<std::pair<int, int>, sim::CompletionPtr> pending_backward_;
  util::Bytes p2p_bytes_step_ = 0;
  util::Bytes dp_bytes_step_ = 0;

  /// Checkpoint / recovery / goodput state (inert without a policy); its
  /// logical step rolls back, step_index_ (the record stagger) does not.
  ckpt::RecoveryLedger ledger_;
};

}  // namespace ssdtrain::runtime
