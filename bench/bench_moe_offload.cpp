// MoE offload sweep: per-GPU offload pressure of mixture-of-experts GPT
// stacks across experts x top-k x strategy (H4096 L3 B8, seq 1024, TP2 on
// the Table II machine; every expert is resident — EP=1 — so the hidden
// size keeps 16 experts x 8h^2 of expert weights inside the 40 GB device).
// Expert activations stress the offload path asymmetrically: the routed
// FFN stream scales with top_k / EP while the attention stream is
// unchanged, so offloaded bytes and the required write bandwidth grow with
// top_k and are invariant in the expert count.
//
// Full sweep-engine surface: `--workers N` shards the grid, `--csv PATH`
// dumps the series, `--points experts=16,top_k=2` runs a single cell, and
// re-running with an existing --csv file skips the completed cells and
// appends only the missing rows (resumable sweeps).

#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/chaos_exec.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/progress.hpp"
#include "ssdtrain/sweep/resume.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

// The session flags, applied to every measured session.
sweep::CliOptions g_cli;

struct MoePoint {
  rt::StepStats stats;
  double plan_offloadable = 0.0;
};

MoePoint measure(const sweep::SweepPoint& point) {
  rt::SessionConfig config;
  config.model = m::gpt_moe_config(
      4096, 3, 8, static_cast<int>(point.i64("experts")),
      static_cast<int>(point.i64("top_k")));
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::strategy_from(point.str("strategy"));
  g_cli.apply(config);
  rt::TrainingSession session(std::move(config));
  session.run_step();  // warm-up
  MoePoint result;
  result.stats = session.run_step();
  if (session.plan().has_value()) {
    result.plan_offloadable =
        static_cast<double>(session.plan()->offloadable_bytes_per_step);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_unused_selection(options, /*selects_points=*/true,
                                 /*streams_rows=*/options.csv_enabled());
  g_cli = options;

  sweep::SweepSpec spec;
  spec.axis("experts", std::vector<std::int64_t>{4, 8, 16})
      .axis("top_k", std::vector<std::int64_t>{1, 2})
      .axis("strategy",
            std::vector<std::string>{
                std::string(to_string(rt::Strategy::keep_in_gpu)),
                std::string(to_string(rt::Strategy::ssdtrain)),
                std::string(to_string(rt::Strategy::ssdtrain_recompute))});

  std::vector<sweep::SweepPoint> points = sweep::select_points(spec, options);

  // Resumable sweeps: skip the cells an earlier --csv run already wrote.
  std::unique_ptr<sweep::CsvResume> resume;
  if (options.csv_enabled()) {
    resume = std::make_unique<sweep::CsvResume>(
        options.csv_path,
        std::vector<std::string>{"experts", "top_k", "strategy"});
    const std::size_t before = points.size();
    points = resume->remaining(std::move(points));
    if (resume->resuming()) {
      std::cout << "resuming: " << before - points.size() << "/" << before
                << " grid cells already in " << options.csv_path;
      if (resume->repaired_tail()) std::cout << " (repaired a torn tail)";
      std::cout << "\n";
    }
  }

  // Streaming CSV commits: each point's row is flushed (in canonical grid
  // order) the moment it can be, so the row count doubles as the progress
  // heartbeat sweep_orchestrate watches, a killed run loses at most the
  // in-flight points, and a --chaos-exec spec can kill/stall this worker
  // at an exact row boundary.
  std::unique_ptr<sweep::CsvProgress> progress;
  if (options.csv_enabled()) {
    progress = std::make_unique<sweep::CsvProgress>(
        options.csv_path,
        std::vector<std::string>{"experts", "top_k", "strategy",
                                 "step_time_s", "activation_peak_bytes",
                                 "offloaded_bytes", "plan_offloadable_bytes",
                                 "required_write_bw_bps"},
        sweep::ChaosExec::parse(options.chaos_exec));
  }
  const auto row_for = [](const sweep::SweepPoint& point,
                          const MoePoint& r) -> std::vector<std::string> {
    return {sweep::to_string(point.value("experts")),
            sweep::to_string(point.value("top_k")),
            point.str("strategy"),
            u::format_fixed(r.stats.step_time, 9),
            std::to_string(r.stats.activation_peak),
            std::to_string(r.stats.offloaded_bytes),
            u::format_fixed(r.plan_offloadable, 0),
            u::format_fixed(r.stats.required_write_bandwidth, 0)};
  };

  std::vector<std::size_t> indices(points.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  sweep::SweepRunner runner(options.workers);
  const auto outcomes = runner.map(
      indices,
      [&](std::size_t i) {
        MoePoint r = measure(points[i]);
        if (progress) progress->commit(i, row_for(points[i], r));
        return r;
      },
      options.map_options());
  // A failed point (thrown or watchdog-abandoned) is a hole, not a crash:
  // report it and exit nonzero at the end so a supervisor can tell
  // "completed" from "completed with holes" without parsing the CSV.
  int failed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!outcomes[i].ok()) {
      std::cerr << points[i].label() << " failed: " << outcomes[i].error
                << "\n";
      ++failed;
    }
  }

  std::cout << "=== MoE offload sweep (GPT-MoE H4096 L3 B8, TP2) ===\n\n";
  u::AsciiTable table({"experts", "top-k", "strategy", "step time",
                       "act peak", "offloaded", "plan offloadable",
                       "req. write BW"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!outcomes[i].ok()) continue;
    const MoePoint& r = outcomes[i].get();
    table.add_row(
        {sweep::to_string(points[i].value("experts")),
         sweep::to_string(points[i].value("top_k")),
         points[i].str("strategy"), u::format_time(r.stats.step_time),
         u::format_bytes(static_cast<double>(r.stats.activation_peak)),
         u::format_bytes(static_cast<double>(r.stats.offloaded_bytes)),
         u::format_bytes(r.plan_offloadable),
         u::format_bandwidth(r.stats.required_write_bandwidth)});
  }
  std::cout << table.render() << "\n";
  std::cout << "Expected shape: offloaded bytes grow with top-k, are flat "
               "in the expert count,\nand ssdtrain stays within ~2% of "
               "keep-in-gpu step time.\n";
  return failed == 0 ? 0 : 1;
}
