// Cluster-scale throughput bench: steps/sec of a ClusterSession as the
// pipeline deepens (weak scaling: 2 layers and 2 micro-batches per added
// stage), for the keep-in-GPU baseline and SSDTrain offloading, with a
// ZeRO-2 DP group of 2 riding the DP fabric. steps/sec is wall clock and
// serves as a CI trend only; the CSV holds the deterministic simulated
// series (step time, pipeline makespan, measured bubble, fabric traffic)
// that the regression golden gates within 2%.
//
// The `smoke` mode runs the small pipelines as a tier-1 CTest entry so the
// ASan/UBSan and TSan legs drive the multi-stage dispatch loop, the
// boundary-send flows, and per-stage record/replay on every build.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/sweep/chaos_exec.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/progress.hpp"
#include "ssdtrain/sweep/resume.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/sweep/spec.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sched = ssdtrain::sched;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

// The session flags, applied to every measured session.
sweep::CliOptions g_cli;
int g_measure_steps = 4;

struct ScalePoint {
  double seconds = 0.0;  ///< wall clock of the measured steps
  int steps = 0;
  rt::ClusterStepStats stats;  ///< last measured step (deterministic)
};

ScalePoint measure(const sweep::SweepPoint& point) {
  const int pp = static_cast<int>(point.i64("pp"));

  rt::ClusterConfig config;
  // Weak scaling: 2 layers and 2 micro-batches per stage keep per-GPU work
  // constant as the pipeline deepens.
  config.model = m::bert_config(2048, 2 * pp, 4);
  config.parallel.tensor_parallel = 2;
  config.parallel.pipeline_parallel = pp;
  config.parallel.data_parallel = 2;
  config.parallel.zero = ssdtrain::parallel::ZeroStage::stage2;
  config.strategy = rt::strategy_from(point.str("strategy"));
  config.micro_batches = 2 * pp;
  config.schedule = sched::PipelineKind::one_f_one_b;
  g_cli.apply(config);
  rt::ClusterSession session(std::move(config));

  // Step 1 traces and records every stage's program; the timed window then
  // measures the replayed steady state.
  session.run_step();
  ScalePoint result;
  result.steps = g_measure_steps;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < g_measure_steps; ++i) {
    result.stats = session.run_step();
  }
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_unused_selection(options, /*selects_points=*/true,
                                 /*streams_rows=*/options.csv_enabled());
  g_cli = options;
  const bool smoke =
      !options.positional.empty() && options.positional[0] == "smoke";

  std::vector<std::int64_t> depths = {1, 2, 4};
  std::vector<std::string> strategies = {"keep-in-gpu", "ssdtrain"};
  if (smoke) {
    depths = {1, 2};
    g_measure_steps = 1;
  }

  std::cout << "=== Cluster scale: steps/sec vs pipeline depth x strategy "
               "(BERT H2048, 2 layers/stage, TP2 DP2 ZeRO-2) ===\n\n";

  sweep::SweepSpec spec;
  spec.axis("pp", depths).axis("strategy", strategies);

  std::vector<sweep::SweepPoint> points = sweep::select_points(spec, options);

  // Resumable + streamed CSV (see bench_moe_offload): completed cells are
  // skipped on relaunch, and each new row is flushed in canonical order so
  // the row count is the orchestrator's progress heartbeat.
  if (options.csv_enabled()) {
    const sweep::CsvResume resume(options.csv_path,
                                  std::vector<std::string>{"pp", "strategy"});
    const std::size_t before = points.size();
    points = resume.remaining(std::move(points));
    if (resume.resuming()) {
      std::cout << "resuming: " << before - points.size() << "/" << before
                << " grid cells already in " << options.csv_path;
      if (resume.repaired_tail()) std::cout << " (repaired a torn tail)";
      std::cout << "\n";
    }
  }
  std::unique_ptr<sweep::CsvProgress> progress;
  if (options.csv_enabled()) {
    progress = std::make_unique<sweep::CsvProgress>(
        options.csv_path,
        std::vector<std::string>{"pp", "strategy", "step_time_s",
                                 "pipeline_time_s", "measured_bubble",
                                 "p2p_bytes", "dp_bytes"},
        sweep::ChaosExec::parse(options.chaos_exec));
  }
  const auto row_for = [](const sweep::SweepPoint& point,
                          const ScalePoint& r) -> std::vector<std::string> {
    return {std::to_string(point.i64("pp")),
            point.str("strategy"),
            u::format_fixed(r.stats.combined.step_time, 9),
            u::format_fixed(r.stats.pipeline_time, 9),
            u::format_fixed(r.stats.measured_bubble, 6),
            std::to_string(r.stats.p2p_bytes),
            std::to_string(r.stats.dp_bytes)};
  };

  std::vector<std::size_t> indices(points.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  sweep::SweepRunner runner(options.workers);
  const auto outcomes = runner.map(
      indices,
      [&](std::size_t i) {
        ScalePoint r = measure(points[i]);
        if (progress) progress->commit(i, row_for(points[i], r));
        return r;
      },
      options.map_options());

  int failed = 0;
  u::AsciiTable table({"pipeline", "strategy", "steps/sec", "step time",
                       "measured bubble", "p2p traffic", "DP traffic"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!outcomes[i].ok()) {
      std::cerr << points[i].label() << " failed: " << outcomes[i].error
                << "\n";
      ++failed;
      continue;
    }
    const ScalePoint& r = outcomes[i].get();
    table.add_row({u::label("PP", points[i].i64("pp")),
                   points[i].str("strategy"),
                   u::format_fixed(r.steps / r.seconds, 1),
                   u::format_time(r.stats.combined.step_time),
                   u::format_percent(r.stats.measured_bubble),
                   u::format_bytes(static_cast<double>(r.stats.p2p_bytes)),
                   u::format_bytes(static_cast<double>(r.stats.dp_bytes))});
  }
  std::cout << table.render() << "\n";
  std::cout << "steps/sec is wall-clock (CI trend only); the CSV series is "
               "simulated and\ndeterministic — the regression golden gates "
               "it within 2%.\n";

  return failed == 0 ? 0 : 1;
}
