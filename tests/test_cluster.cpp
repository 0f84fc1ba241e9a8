// ClusterSession contracts: (1) a 1/1/1 cluster degenerates to exactly the
// TrainingSession composition — StepStats bit-identical, field for field;
// (2) deep pipelines (pp=4, tp=2, dp=2, ZeRO stage 2) run the whole model
// grid under all five strategies with coherent cluster measurements;
// (3) per-stage record/replay is bit-identical to tracing every step across
// the pipeline schedules; (4) the measured bubble converges to the closed
// form (pp-1)/(mb*v + pp-1) as contention vanishes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/parallel/zero.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/units.hpp"

namespace ck = ssdtrain::ckpt;
namespace f = ssdtrain::fault;
namespace rt = ssdtrain::runtime;
namespace m = ssdtrain::modules;
namespace sc = ssdtrain::sched;
namespace pl = ssdtrain::parallel;
namespace u = ssdtrain::util;

namespace {

void expect_equal(const rt::StepStats& a, const rt::StepStats& b,
                  const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.step_time, b.step_time);
  EXPECT_EQ(a.drain_time, b.drain_time);
  EXPECT_EQ(a.optimizer_time, b.optimizer_time);
  EXPECT_EQ(a.activation_peak, b.activation_peak);
  EXPECT_EQ(a.total_peak, b.total_peak);
  EXPECT_EQ(a.weights_live, b.weights_live);
  EXPECT_EQ(a.algorithmic_flops, b.algorithmic_flops);
  EXPECT_EQ(a.executed_flops, b.executed_flops);
  EXPECT_EQ(a.model_throughput, b.model_throughput);
  EXPECT_EQ(a.compute_busy, b.compute_busy);
  EXPECT_EQ(a.compute_utilization, b.compute_utilization);
  EXPECT_EQ(a.offloaded_bytes, b.offloaded_bytes);
  EXPECT_EQ(a.loaded_bytes, b.loaded_bytes);
  EXPECT_EQ(a.ssd_host_written, b.ssd_host_written);
  EXPECT_EQ(a.ssd_write_amplification, b.ssd_write_amplification);
  EXPECT_EQ(a.required_write_bandwidth, b.required_write_bandwidth);

  EXPECT_EQ(a.cache.packs, b.cache.packs);
  EXPECT_EQ(a.cache.unpacks, b.cache.unpacks);
  EXPECT_EQ(a.cache.dedup_hits, b.cache.dedup_hits);
  EXPECT_EQ(a.cache.offload_started, b.cache.offload_started);
  EXPECT_EQ(a.cache.kept_budget, b.cache.kept_budget);
  EXPECT_EQ(a.cache.kept_backward, b.cache.kept_backward);
  EXPECT_EQ(a.cache.kept_scope, b.cache.kept_scope);
  EXPECT_EQ(a.cache.forwards, b.cache.forwards);
  EXPECT_EQ(a.cache.prefetch_loads, b.cache.prefetch_loads);
  EXPECT_EQ(a.cache.miss_loads, b.cache.miss_loads);
  EXPECT_EQ(a.cache.wasted_stores, b.cache.wasted_stores);
  EXPECT_EQ(a.cache.releases, b.cache.releases);
  EXPECT_EQ(a.cache.offloaded_bytes, b.cache.offloaded_bytes);
  EXPECT_EQ(a.cache.kept_bytes, b.cache.kept_bytes);

  EXPECT_EQ(a.offloader_totals.stores, b.offloader_totals.stores);
  EXPECT_EQ(a.offloader_totals.loads, b.offloader_totals.loads);
  EXPECT_EQ(a.offloader_totals.bytes_stored, b.offloader_totals.bytes_stored);
  EXPECT_EQ(a.offloader_totals.bytes_loaded, b.offloader_totals.bytes_loaded);
  EXPECT_EQ(a.offloader_totals.releases, b.offloader_totals.releases);
  EXPECT_EQ(a.offloader_totals.failed_stores,
            b.offloader_totals.failed_stores);
}

/// The StepStats fields expect_equal leaves out: the fault, retry,
/// recovery and program counters, and the rest of the cache and offloader
/// snapshots. Together the two cover every field.
void expect_equal_fault_fields(const rt::StepStats& a, const rt::StepStats& b,
                               const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.io_failures, b.io_failures);
  EXPECT_EQ(a.recompute_fallbacks, b.recompute_fallbacks);
  EXPECT_EQ(a.fault_stall_time, b.fault_stall_time);
  EXPECT_EQ(a.program_invalidations, b.program_invalidations);
  EXPECT_EQ(a.checkpoint_time, b.checkpoint_time);
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
  EXPECT_EQ(a.restore_time, b.restore_time);
  EXPECT_EQ(a.rollback_steps, b.rollback_steps);
  EXPECT_EQ(a.lost_work_time, b.lost_work_time);

  EXPECT_EQ(a.cache.passthrough_weight, b.cache.passthrough_weight);
  EXPECT_EQ(a.cache.passthrough_cpu, b.cache.passthrough_cpu);
  EXPECT_EQ(a.cache.passthrough_small, b.cache.passthrough_small);
  EXPECT_EQ(a.cache.kept_offloader_refused, b.cache.kept_offloader_refused);
  EXPECT_EQ(a.cache.kept_store_failed, b.cache.kept_store_failed);

  const auto& x = a.offloader_totals;
  const auto& y = b.offloader_totals;
  EXPECT_EQ(x.io_retries, y.io_retries);
  EXPECT_EQ(x.io_failures, y.io_failures);
  EXPECT_EQ(x.store_faults, y.store_faults);
  EXPECT_EQ(x.load_faults, y.load_faults);
  EXPECT_EQ(x.recompute_fallbacks, y.recompute_fallbacks);
  EXPECT_EQ(x.retry_backoff_time, y.retry_backoff_time);
  EXPECT_EQ(x.fault_extra_latency, y.fault_extra_latency);
  EXPECT_EQ(x.recompute_fallback_time, y.recompute_fallback_time);
}

std::vector<m::ModelConfig> model_grid(int layers) {
  return {
      m::bert_config(2048, layers, 2),
      m::gpt_config(2048, layers, 2),
      m::t5_config(2048, layers, 2),
      m::gpt_moe_config(2048, layers, 2, /*num_experts=*/4, /*top_k=*/2),
      m::gpt_gqa_config(2048, layers, 2),
  };
}

std::vector<rt::Strategy> all_strategies() {
  return {rt::Strategy::keep_in_gpu, rt::Strategy::ssdtrain,
          rt::Strategy::ssdtrain_cpu, rt::Strategy::recompute_full,
          rt::Strategy::ssdtrain_recompute};
}

}  // namespace

// With pp = tp = dp = 1 the session must degenerate to exactly the
// TrainingSession composition: same machine, same schedule, same planner
// and cache — StepStats bit-identical every step.
TEST(ClusterIdentity, DegenerateClusterMatchesTrainingSession) {
  for (const auto& model : model_grid(2)) {
    for (rt::Strategy strategy : all_strategies()) {
      const std::string what =
          model.name + " / " + std::string(to_string(strategy));

      rt::SessionConfig single_cfg;
      single_cfg.model = model;
      single_cfg.node = ssdtrain::hw::catalog::cluster_node(1, 4);
      single_cfg.gpu_index = 0;
      single_cfg.strategy = strategy;
      single_cfg.micro_batches = 2;
      rt::TrainingSession single(std::move(single_cfg));

      rt::ClusterConfig cluster_cfg;
      cluster_cfg.model = model;
      cluster_cfg.strategy = strategy;
      cluster_cfg.micro_batches = 2;
      rt::ClusterSession cluster(std::move(cluster_cfg));
      ASSERT_EQ(cluster.gpu_count(), 1) << what;
      ASSERT_EQ(cluster.virtual_stage_count(), 1) << what;

      for (int step = 0; step < 3; ++step) {
        const auto a = single.run_step();
        const auto b = cluster.run_step();
        expect_equal(a, b.combined, what + " step " + std::to_string(step));
        ASSERT_EQ(b.per_stage.size(), 1u) << what;
      }
    }
  }
}

// The same 1/1/1 identity through checkpoint commits and one destructive
// crash: both engines run the shared recovery ledger, so the commit,
// restore, rollback and lost-work fields and the goodput report match bit
// for bit.
TEST(ClusterIdentity, DegenerateClusterRecoveryMatchesTrainingSession) {
  f::FaultSpec quiet;  // arms the injector without perturbing anything
  quiet.kind = f::FaultKind::ssd_latency;
  quiet.latency = 1e-9;
  quiet.duration = 1e-9;
  f::FaultConfig faults;
  faults.specs = {quiet};
  faults.seed = 11;
  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = 0;
  crash.duration = 0.01;
  crash.lose = f::CrashLoss::state;

  for (rt::Strategy strategy :
       {rt::Strategy::ssdtrain, rt::Strategy::keep_in_gpu,
        rt::Strategy::ssdtrain_cpu}) {
    const std::string what(to_string(strategy));

    rt::SessionConfig single_cfg;
    single_cfg.model = m::bert_config(2048, 2, 2);
    single_cfg.node = ssdtrain::hw::catalog::cluster_node(1, 4);
    single_cfg.gpu_index = 0;
    single_cfg.strategy = strategy;
    single_cfg.micro_batches = 2;
    single_cfg.checkpoint.every_steps = 2;
    single_cfg.faults = faults;
    rt::TrainingSession single(single_cfg);

    rt::ClusterConfig cluster_cfg;
    static_cast<rt::TrainingConfig&>(cluster_cfg) = single_cfg;
    rt::ClusterSession cluster(std::move(cluster_cfg));

    for (int step = 0; step < 8; ++step) {
      if (step == 3) {
        single.injector()->trigger(crash);
        cluster.injector()->trigger(crash);
      }
      const rt::StepStats a = single.run_step();
      const rt::StepStats b = cluster.run_step().combined;
      const std::string at = what + " step " + std::to_string(step);
      expect_equal(a, b, at);
      expect_equal_fault_fields(a, b, at);
      EXPECT_EQ(single.logical_step(), cluster.logical_step()) << at;
      if (step == 3) {
        EXPECT_GT(a.rollback_steps, 0u) << at;
      }
    }

    const ck::GoodputReport a = single.goodput();
    const ck::GoodputReport b = cluster.goodput();
    EXPECT_EQ(a.wall_clock, b.wall_clock) << what;
    EXPECT_EQ(a.useful_time, b.useful_time) << what;
    EXPECT_EQ(a.checkpoint_time, b.checkpoint_time) << what;
    EXPECT_EQ(a.restore_time, b.restore_time) << what;
    EXPECT_EQ(a.lost_work_time, b.lost_work_time) << what;
    EXPECT_EQ(a.checkpoints, b.checkpoints) << what;
    EXPECT_EQ(a.restores, 1u) << what;
    EXPECT_EQ(a.restores, b.restores) << what;
    EXPECT_EQ(a.rollback_steps, b.rollback_steps) << what;
    EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes) << what;
    EXPECT_EQ(a.goodput(), b.goodput()) << what;
  }
}

// The acceptance grid: every model under every strategy on a deep pipeline
// with TP sharding and ZeRO-2 data parallelism.
TEST(ClusterScale, ModelGridUnderEveryStrategyDeepPipeline) {
  for (const auto& model : model_grid(4)) {
    for (rt::Strategy strategy : all_strategies()) {
      const std::string what =
          model.name + " / " + std::string(to_string(strategy));
      SCOPED_TRACE(what);

      rt::ClusterConfig config;
      config.model = model;
      config.parallel.pipeline_parallel = 4;
      config.parallel.tensor_parallel = 2;
      config.parallel.data_parallel = 2;
      config.parallel.zero = pl::ZeroStage::stage2;
      config.strategy = strategy;
      config.micro_batches = 4;
      rt::ClusterSession cluster(std::move(config));
      ASSERT_EQ(cluster.gpu_count(), 4);
      ASSERT_EQ(cluster.virtual_stage_count(), 4);

      const auto steps = cluster.run_steps(2);
      for (const auto& step : steps) {
        EXPECT_GT(step.combined.step_time, 0.0);
        EXPECT_GT(step.combined.algorithmic_flops, 0.0);
        EXPECT_GT(step.pipeline_time, 0.0);
        EXPECT_GT(step.p2p_bytes, 0u);  // boundary activations crossed GPUs
        EXPECT_GT(step.dp_bytes, 0u);   // ZeRO-2 RS + AG on the DP fabric
        EXPECT_GE(step.measured_bubble, 0.0);
        EXPECT_LT(step.measured_bubble, 1.0);
        EXPECT_NEAR(step.ideal_bubble, 3.0 / 7.0, 1e-12);
        ASSERT_EQ(step.per_stage.size(), 4u);
        for (const auto& stage : step.per_stage) {
          EXPECT_GT(stage.stats.compute_busy, 0.0);
        }
      }
      // The stage peaks must differ from a monolithic run: each stage only
      // holds its layer slice.
      EXPECT_LT(steps[0].per_stage[3].stats.weights_live,
                4 * steps[0].per_stage[3].stats.activation_peak +
                    steps[0].combined.weights_live);
    }
  }
}

// Per-stage record/replay equivalence across the pipeline schedules: a
// cluster that replays each stage's StepProgram must match a cluster that
// traces the module tree every step, bit for bit, on every step.
TEST(ClusterReplay, TraceVsReplayEquivalenceAcrossSchedules) {
  struct GridPoint {
    sc::PipelineKind kind;
    int pp;
    int virtual_stages;
    int micro_batches;
  };
  const std::vector<GridPoint> grid = {
      {sc::PipelineKind::one_f_one_b, 2, 1, 4},
      {sc::PipelineKind::gpipe, 2, 1, 2},
      {sc::PipelineKind::interleaved_1f1b, 2, 2, 4},
  };
  for (const auto& point : grid) {
    for (rt::Strategy strategy :
         {rt::Strategy::keep_in_gpu, rt::Strategy::ssdtrain}) {
      const std::string what = std::string(sc::to_string(point.kind)) +
                               " pp=" + std::to_string(point.pp) +
                               " v=" + std::to_string(point.virtual_stages) +
                               " / " + std::string(to_string(strategy));

      rt::ClusterConfig config;
      config.model = m::gpt_config(2048, 4, 2);
      config.parallel.pipeline_parallel = point.pp;
      config.strategy = strategy;
      config.micro_batches = point.micro_batches;
      config.schedule = point.kind;
      config.virtual_stages = point.virtual_stages;

      rt::ClusterConfig traced_cfg = config;
      traced_cfg.use_replay = false;
      rt::ClusterSession traced(std::move(traced_cfg));
      rt::ClusterSession replayed(std::move(config));

      // Stage chunk c records on step c, so every stage replays from step
      // virtual_stages onward; two more steps exercise steady state.
      const int steps = point.virtual_stages + 2;
      for (int step = 0; step < steps; ++step) {
        const auto a = traced.run_step();
        const auto b = replayed.run_step();
        const std::string at = what + " step " + std::to_string(step);
        expect_equal(a.combined, b.combined, at);
        EXPECT_EQ(a.pipeline_time, b.pipeline_time) << at;
        EXPECT_EQ(a.measured_bubble, b.measured_bubble) << at;
        EXPECT_EQ(a.p2p_bytes, b.p2p_bytes) << at;
        EXPECT_EQ(a.dp_bytes, b.dp_bytes) << at;
        ASSERT_EQ(a.per_stage.size(), b.per_stage.size()) << at;
        for (std::size_t vs = 0; vs < a.per_stage.size(); ++vs) {
          expect_equal(a.per_stage[vs].stats, b.per_stage[vs].stats,
                       at + " stage " + std::to_string(vs));
        }
      }
      for (int vs = 0; vs < replayed.virtual_stage_count(); ++vs) {
        ASSERT_NE(replayed.program(vs), nullptr) << what;
        EXPECT_TRUE(replayed.program(vs)->replayable) << what;
        EXPECT_GT(replayed.program(vs)->ops.size(), 0u) << what;
      }
      // The trace-every-step cluster never records.
      for (int vs = 0; vs < traced.virtual_stage_count(); ++vs) {
        EXPECT_EQ(traced.program(vs), nullptr) << what;
      }
    }
  }
}

// More micro-batches fill the pipeline: the measured bubble must track the
// closed form downward and approach it as compute dwarfs the boundary
// transfers (keep-in-gpu, so no offload traffic competes for PCIe).
TEST(ClusterBubble, MeasuredBubbleTracksIdealAsContentionVanishes) {
  double previous = 1.0;
  for (int micro_batches : {2, 4, 8}) {
    rt::ClusterConfig config;
    // 8 layers per stage so the embedding/head stages stay balanced with
    // the middle ones — the convergence claim is about the schedule, not
    // about slicing imbalance.
    config.model = m::gpt_config(2048, 32, 4);
    config.parallel.pipeline_parallel = 4;
    config.strategy = rt::Strategy::keep_in_gpu;
    config.micro_batches = micro_batches;
    config.fabric_hop_latency = 0.0;
    rt::ClusterSession cluster(std::move(config));
    const auto step = cluster.run_steps(2).back();

    const double ideal = 3.0 / (micro_batches + 3.0);
    EXPECT_NEAR(step.ideal_bubble, ideal, 1e-12);
    EXPECT_LT(step.measured_bubble, previous);
    // Boundary sends are tiny next to 8 layers of compute; the residual
    // gap is the (real) transfer serialization plus slice imbalance.
    EXPECT_GE(step.measured_bubble, ideal - 1e-9);
    EXPECT_NEAR(step.measured_bubble, ideal, 0.08);
    previous = step.measured_bubble;
  }
}

// ZeRO sharding shrinks the optimizer and its fabric tail coherently:
// stage-2 moves strictly more fabric bytes than plain DP all-reduce
// (RS + AG vs one AR of the same volume is equal; with the param gather it
// is the same total) — pin the closed-form volumes instead.
TEST(ClusterZero, DpFabricTrafficMatchesClosedForm) {
  for (pl::ZeroStage zero : {pl::ZeroStage::none, pl::ZeroStage::stage1,
                             pl::ZeroStage::stage2, pl::ZeroStage::stage3}) {
    rt::ClusterConfig config;
    config.model = m::gpt_config(2048, 2, 2);
    config.parallel.data_parallel = 4;
    config.parallel.zero = zero;
    config.strategy = rt::Strategy::keep_in_gpu;
    rt::ClusterSession cluster(std::move(config));

    const auto param_bytes = static_cast<double>(
        m::build_model(cluster.config().model)->parameter_bytes(1));
    const double expected =
        pl::zero_dp_traffic_per_step(param_bytes, cluster.config().parallel);
    const auto step = cluster.run_step();
    EXPECT_NEAR(static_cast<double>(step.dp_bytes), expected,
                expected * 1e-9 + 16.0)
        << "zero stage " << static_cast<int>(zero);
  }
}

// ZeRO-Offload optimizer-state traffic rides the GDS paths and lengthens
// the step tail without touching compute.
TEST(ClusterZero, OptimizerStateOffloadAddsNvmeTraffic) {
  rt::ClusterConfig base;
  base.model = m::gpt_config(2048, 2, 2);
  base.parallel.data_parallel = 2;
  base.parallel.zero = pl::ZeroStage::stage2;
  base.strategy = rt::Strategy::keep_in_gpu;

  rt::ClusterConfig offloaded_cfg = base;
  offloaded_cfg.zero_offload_optimizer = true;
  rt::ClusterSession plain(std::move(base));
  rt::ClusterSession offloaded(std::move(offloaded_cfg));
  const auto a = plain.run_step();
  const auto b = offloaded.run_step();
  EXPECT_GT(b.combined.step_time + b.combined.drain_time,
            a.combined.step_time + a.combined.drain_time);
  EXPECT_EQ(a.combined.algorithmic_flops, b.combined.algorithmic_flops);
}

TEST(ClusterValidation, RejectsIndivisibleLayerSplit) {
  rt::ClusterConfig config;
  config.model = m::gpt_config(2048, 3, 2);  // 3 layers across 2 stages
  config.parallel.pipeline_parallel = 2;
  config.strategy = rt::Strategy::keep_in_gpu;
  EXPECT_THROW(rt::ClusterSession{std::move(config)},
               u::ContractViolation);
}

TEST(ClusterValidation, RejectsNodeSmallerThanPipeline) {
  rt::ClusterConfig config;
  config.model = m::gpt_config(2048, 4, 2);
  config.parallel.pipeline_parallel = 4;
  config.node = ssdtrain::hw::catalog::cluster_node(2, 1);
  config.strategy = rt::Strategy::keep_in_gpu;
  EXPECT_THROW(rt::ClusterSession{std::move(config)},
               u::ContractViolation);
}
