// Checkpoint bench: the goodput frontier of crash-consistent checkpointing
// to the offload SSDs, over checkpoint interval x MTBF. For each grid cell
// a TrainingSession commits every `interval` steps while seeded destructive
// stage crashes (lose=state) arrive on a deterministic low-discrepancy
// schedule with the cell's MTBF; every crash restores the newest committed
// checkpoint over the same contended PCIe/SSD links, rolls back, and
// replays. The bench reports the wall-clock decomposition (useful /
// checkpoint / restore / lost work) and goodput per cell, plus the
// Young-Daly optimum T_opt = sqrt(2 * C * MTBF) computed from the measured
// checkpoint cost C — the frontier's peak should sit on it.
//
//   bench_checkpoint            full interval x MTBF grid (regression golden)
//   bench_checkpoint smoke      one shallow cell (tier-1 CTest entry)
//   bench_checkpoint verify     acceptance mode: probes the step time and
//                               checkpoint cost, picks an MTBF that puts
//                               T_opt a few steps wide, sweeps intervals
//                               bracketing it, and fails unless the
//                               goodput-optimal interval lands within 15%
//                               of the Young-Daly closed form
//
// Crashes are placed by fault::CrashSchedule (golden-ratio phases, no libm
// randomness), so every cell is bit-identical across runs and platforms;
// the regression golden gates the CSV within 2%.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/sweep/spec.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace ck = ssdtrain::ckpt;
namespace f = ssdtrain::fault;
namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

sweep::CliOptions g_cli;
/// Simulated horizon per cell, in MTBFs: long enough that the crash phases
/// equidistribute and the goodput landscape is the curve, not one lucky
/// crash placement.
double g_horizon_mtbfs = 12.0;
int g_step_cap = 4000;  ///< hard cap per cell (horizon wins in practice)

struct CheckpointPoint {
  int steps_run = 0;
  double plain_step = 0.0;   ///< mean step time net of ckpt/restore/stall
  double ckpt_cost = 0.0;    ///< mean contended commit duration C
  double yd_interval = 0.0;  ///< sqrt(2 * C * mtbf), from the measured C
  double interval_s = 0.0;   ///< the cell's cadence in seconds
  double goodput = 0.0;
  double useful = 0.0;
  double ckpt_time = 0.0;
  double restore_time = 0.0;
  double lost = 0.0;
  double wall = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t crashes = 0;
  std::uint64_t rollback_steps = 0;
  std::uint64_t ckpt_bytes = 0;
};

rt::SessionConfig make_config(int interval_steps) {
  rt::SessionConfig config;
  config.model = m::bert_config(2048, 2, 4);
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::Strategy::ssdtrain;
  config.micro_batches = 2;
  g_cli.apply(config);
  if (!g_cli.faults_enabled()) {
    // Inert arming spec: the injector must exist for trigger(), and an
    // injector-armed no-window run is byte-identical to an unarmed one.
    f::FaultSpec arm;
    arm.kind = f::FaultKind::ssd_latency;
    arm.latency = 1e-9;
    arm.at = 0.0;
    arm.duration = 1e-9;
    config.faults.specs = {arm};
    config.faults.seed = g_cli.fault_seed != 0 ? g_cli.fault_seed : 7;
  }
  if (!g_cli.checkpoint_enabled()) {
    config.checkpoint.every_steps = interval_steps;
  }
  return config;
}

/// Runs one cell: commit every `interval` steps, crash with mean gap `mtbf`
/// until the simulated horizon. Crashes must go through trigger() at step
/// boundaries — a future `at` in a FaultSpec would fire during the first
/// step's queue drain (the simulator time-jumps through idle gaps).
CheckpointPoint measure_cell(int interval, double mtbf) {
  rt::TrainingSession session(make_config(interval));

  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = session.config().gpu_index;
  crash.duration = 0.25;  // node restart stall before the restore begins
  crash.lose = f::CrashLoss::state;

  const double horizon = g_horizon_mtbfs * mtbf;
  f::CrashSchedule schedule(mtbf);
  CheckpointPoint r;
  double plain_sum = 0.0;
  while (r.steps_run < g_step_cap) {
    const double now = session.node().simulator().now();
    if (now >= horizon) break;
    if (schedule.consume(now) > 0) session.injector()->trigger(crash);
    const rt::StepStats stats = session.run_step();
    ++r.steps_run;
    plain_sum += stats.step_time - stats.checkpoint_time -
                 stats.restore_time - stats.fault_stall_time;
  }

  const ck::GoodputReport rep = session.goodput();
  r.plain_step = r.steps_run > 0 ? plain_sum / r.steps_run : 0.0;
  r.ckpt_cost =
      rep.checkpoints > 0 ? rep.checkpoint_time / rep.checkpoints : 0.0;
  r.yd_interval = ck::young_daly_interval(r.ckpt_cost, mtbf);
  r.interval_s = interval * r.plain_step;
  r.goodput = rep.goodput();
  r.useful = rep.useful_time;
  r.ckpt_time = rep.checkpoint_time;
  r.restore_time = rep.restore_time;
  r.lost = rep.lost_work_time;
  r.wall = rep.wall_clock;
  r.checkpoints = rep.checkpoints;
  r.crashes = rep.restores;
  r.rollback_steps = rep.rollback_steps;
  r.ckpt_bytes = rep.checkpoint_bytes;
  return r;
}

CheckpointPoint measure(const sweep::SweepPoint& point) {
  return measure_cell(static_cast<int>(point.i64("interval")),
                      point.f64("mtbf"));
}

/// Acceptance mode: the measured goodput-optimal interval must match the
/// Young-Daly closed form within 15%. The MTBF is derived from a probe so
/// T_opt sits a known number of steps wide regardless of model or machine
/// constants, and the interval grid brackets it with off-optimum points
/// coarse enough (0.5x / 0.75x / 1.75x / 3x) that the ranking is decided
/// by the goodput curve, not crash-phase noise.
int run_verify() {
  std::cout << "=== Checkpoint interval verification against Young-Daly "
               "T_opt = sqrt(2*C*MTBF) ===\n\n";

  // Probe: steady-state step time s and contended checkpoint cost C.
  double probe_step = 0.0;
  double probe_cost = 0.0;
  {
    rt::TrainingSession probe(make_config(1));
    probe.run_step();  // trace + first commit; not steady state
    for (int i = 0; i < 3; ++i) {
      const rt::StepStats stats = probe.run_step();
      probe_step += (stats.step_time - stats.checkpoint_time) / 3.0;
      probe_cost += stats.checkpoint_time / 3.0;
    }
  }

  // Place T_opt at kTargetSteps: MTBF = (k*s)^2 / (2C). With the optimum a
  // few steps wide, the +-0.5-step grid quantisation stays under 15%.
  constexpr double kTargetSteps = 4.0;
  const double mtbf =
      (kTargetSteps * probe_step) * (kTargetSteps * probe_step) /
      (2.0 * probe_cost);
  const double yd_predicted = ck::young_daly_interval(probe_cost, mtbf);
  std::cout << "probe: step " << u::format_time(probe_step)
            << ", checkpoint cost " << u::format_time(probe_cost)
            << " -> MTBF " << u::format_time(mtbf) << ", T_opt "
            << u::format_time(yd_predicted) << " ("
            << u::format_fixed(yd_predicted / probe_step, 2) << " steps)\n\n";

  std::vector<int> intervals;
  for (const double factor : {0.5, 0.75, 1.0, 1.75, 3.0}) {
    const int steps = std::max(
        1, static_cast<int>(std::lround(factor * kTargetSteps)));
    if (intervals.empty() || intervals.back() != steps) {
      intervals.push_back(steps);
    }
  }

  g_horizon_mtbfs = 25.0;  // ~25 crashes per cell: phases equidistribute
  u::AsciiTable table({"interval", "interval s", "goodput", "ckpts",
                       "crashes", "lost", "yd T_opt"});
  double best_goodput = -1.0;
  int best_interval = 0;
  double best_interval_s = 0.0;
  double best_yd = 0.0;
  for (const int interval : intervals) {
    const CheckpointPoint r = measure_cell(interval, mtbf);
    table.add_row({std::to_string(interval), u::format_time(r.interval_s),
                   u::format_fixed(r.goodput, 4),
                   std::to_string(r.checkpoints), std::to_string(r.crashes),
                   u::format_time(r.lost), u::format_time(r.yd_interval)});
    if (r.goodput > best_goodput) {
      best_goodput = r.goodput;
      best_interval = interval;
      best_interval_s = r.interval_s;
      best_yd = r.yd_interval;
    }
  }
  std::cout << table.render() << "\n";

  const double error = std::abs(best_interval_s - best_yd) / best_yd;
  std::cout << "goodput-optimal interval: " << best_interval << " steps = "
            << u::format_time(best_interval_s) << "; Young-Daly T_opt "
            << u::format_time(best_yd) << "; relative error "
            << u::format_fixed(error * 100.0, 1) << "% (budget 15%)\n";
  if (error > 0.15) {
    std::cerr << "FAIL: measured optimum deviates from Young-Daly by more "
                 "than 15%\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_cli = sweep::parse_cli(argc, argv);
  const bool smoke =
      !g_cli.positional.empty() && g_cli.positional[0] == "smoke";
  const bool verify =
      !g_cli.positional.empty() && g_cli.positional[0] == "verify";
  sweep::reject_unused_selection(g_cli, /*selects_points=*/!verify);
  if (verify) return run_verify();

  std::vector<std::int64_t> intervals = {2, 4, 8, 16};
  std::vector<double> mtbfs = {2.0, 6.0};
  if (smoke) {
    intervals = {2};
    mtbfs = {1.2};
    g_horizon_mtbfs = 5.0;
  }

  std::cout << "=== Checkpoint goodput frontier: interval x MTBF under "
               "destructive stage crashes ===\n\n";

  sweep::SweepSpec spec;
  spec.axis("interval", intervals).axis("mtbf", mtbfs);

  sweep::SweepRunner runner(g_cli.workers);
  const auto points = sweep::select_points(spec, g_cli);
  const auto outcomes = runner.map(points, measure, g_cli.map_options());

  int failed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (outcomes[i].ok()) continue;
    std::cerr << points[i].label() << " failed: " << outcomes[i].error << "\n";
    ++failed;
  }
  if (failed != 0) return 1;

  u::AsciiTable table({"interval", "mtbf", "steps", "ckpt cost", "yd T_opt",
                       "goodput", "ckpts", "crashes", "rolled back",
                       "lost"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CheckpointPoint& r = outcomes[i].get();
    table.add_row({std::to_string(points[i].i64("interval")),
                   u::format_time(points[i].f64("mtbf")),
                   std::to_string(r.steps_run), u::format_time(r.ckpt_cost),
                   u::format_time(r.yd_interval),
                   u::format_fixed(r.goodput, 4),
                   std::to_string(r.checkpoints), std::to_string(r.crashes),
                   std::to_string(r.rollback_steps), u::format_time(r.lost)});
  }
  std::cout << table.render() << "\n";

  // The frontier readout: per MTBF, where the measured peak sits relative
  // to the Young-Daly prediction (intervals quantise to whole steps, so
  // agreement is up to the grid resolution).
  for (const double mtbf : mtbfs) {
    double best_goodput = -1.0;
    std::int64_t best_interval = 0;
    double best_yd = 0.0;
    double best_step = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].f64("mtbf") != mtbf || !outcomes[i].ok()) continue;
      const CheckpointPoint& r = outcomes[i].get();
      if (r.goodput > best_goodput) {
        best_goodput = r.goodput;
        best_interval = points[i].i64("interval");
        best_yd = r.yd_interval;
        best_step = r.plain_step;
      }
    }
    if (best_interval == 0 || best_step <= 0.0) continue;
    std::cout << "MTBF " << u::format_time(mtbf)
              << ": goodput peaks at interval " << best_interval
              << " steps; Young-Daly T_opt "
              << u::format_fixed(best_yd / best_step, 1) << " steps\n";
  }
  std::cout << "Deterministic: crashes arrive on a golden-ratio "
               "low-discrepancy schedule (fault::CrashSchedule),\nso the "
               "frontier reproduces bit-for-bit; `verify` gates the peak "
               "against sqrt(2*C*MTBF).\n";

  if (g_cli.csv_enabled()) {
    u::CsvWriter csv(g_cli.csv_path,
                     {"interval_steps", "mtbf_s", "steps", "plain_step_s",
                      "ckpt_cost_s", "yd_interval_s", "interval_s",
                      "goodput", "useful_s", "checkpoint_s", "restore_s",
                      "lost_s", "wall_s", "checkpoints", "crashes",
                      "rollback_steps", "ckpt_bytes"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const CheckpointPoint& r = outcomes[i].get();
      csv.add_row({std::to_string(points[i].i64("interval")),
                   u::format_fixed(points[i].f64("mtbf"), 3),
                   std::to_string(r.steps_run),
                   u::format_fixed(r.plain_step, 9),
                   u::format_fixed(r.ckpt_cost, 9),
                   u::format_fixed(r.yd_interval, 9),
                   u::format_fixed(r.interval_s, 9),
                   u::format_fixed(r.goodput, 6),
                   u::format_fixed(r.useful, 9),
                   u::format_fixed(r.ckpt_time, 9),
                   u::format_fixed(r.restore_time, 9),
                   u::format_fixed(r.lost, 9), u::format_fixed(r.wall, 9),
                   std::to_string(r.checkpoints),
                   std::to_string(r.crashes),
                   std::to_string(r.rollback_steps),
                   std::to_string(r.ckpt_bytes)});
    }
  }
  return 0;
}
