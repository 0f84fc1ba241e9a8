// Reproduces Fig. 7 of the paper: the recompute-offload-keep (ROK) curve
// for a 3-layer BERT with hidden dimension 12288 (a) and 14336 (b), batch
// sizes 4/8/16 under each activation-placement strategy.
//
// Expected shape (paper): at equal batch size, SSDTrain matches the
// keep-in-memory throughput at a much lower activation peak (below even
// recomputation's); a larger batch moves every strategy up the throughput
// axis, so SSDTrain reaches the highest throughput within any given memory
// budget, roughly doubling the feasible batch size.
//
// The 24-point grid is declared as a SweepSpec and sharded across worker
// threads (--workers N, default all cores); --csv PATH dumps the series.

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "ssdtrain/hw/device_allocator.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/sweep/spec.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace hw = ssdtrain::hw;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

// The session flags, applied to every measured session.
sweep::CliOptions g_cli;

// The paper's three strategies plus the hybrid extension (checkpointing
// whose checkpoints are offloaded): the minimum-memory corner.
const std::vector<rt::Strategy> kStrategies = {
    rt::Strategy::keep_in_gpu, rt::Strategy::recompute_full,
    rt::Strategy::ssdtrain, rt::Strategy::ssdtrain_recompute};

struct RokPoint {
  bool oom = false;
  rt::StepStats stats;
};

RokPoint measure(const sweep::SweepPoint& point) {
  rt::SessionConfig config;
  config.model = m::bert_config(point.i64("hidden"), 3, point.i64("batch"));
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::strategy_from(point.str("strategy"));
  g_cli.apply(config);
  RokPoint result;
  try {
    rt::TrainingSession session(std::move(config));
    session.run_step();
    result.stats = session.run_step();
  } catch (const hw::OutOfDeviceMemory&) {
    result.oom = true;  // the paper's missing Fig. 7(b) B16 keep point
  }
  return result;
}

/// (hidden, strategy, batch) -> result, for O(1) lookup while rendering.
using RokResults =
    std::map<std::tuple<std::int64_t, std::string, std::int64_t>, RokPoint>;

void rok_curve(std::int64_t hidden, const RokResults& results) {
  std::cout << "--- ROK curve: BERT H" << hidden << " L3 (TP2) ---\n";
  u::AsciiTable table({"strategy", "batch", "activation peak",
                       "model throughput", "step time"});
  bool first_group = true;
  for (rt::Strategy strategy : kStrategies) {
    if (!first_group) table.add_separator();
    first_group = false;
    for (std::int64_t batch : {4, 8, 16}) {
      const RokPoint& r =
          results.at({hidden, std::string(to_string(strategy)), batch});
      if (r.oom) {
        table.add_row({std::string(to_string(strategy)),
                       u::label("B", batch), "OOM (40 GB)", "-",
                       "-"});
        continue;
      }
      table.add_row(
          {std::string(to_string(strategy)), u::label("B", batch),
           u::format_bytes(static_cast<double>(r.stats.activation_peak)),
           u::format_flops_rate(r.stats.model_throughput),
           u::format_time(r.stats.step_time)});
    }
  }
  std::cout << table.render();

  // The headline comparison at B16.
  const std::string keep_name(to_string(rt::Strategy::keep_in_gpu));
  const std::string ssd_name(to_string(rt::Strategy::ssdtrain));
  const RokPoint& keep = results.at({hidden, keep_name, 16});
  const RokPoint& ssd = results.at({hidden, ssd_name, 16});
  const RokPoint& keep8 = results.at({hidden, keep_name, 8});
  if (!keep.oom && !ssd.oom) {
    std::cout << "B16: SSDTrain throughput / keep throughput = "
              << u::format_fixed(ssd.stats.model_throughput /
                                     keep.stats.model_throughput,
                                 3)
              << " (paper: ~1.0)\n";
  }
  if (!ssd.oom && !keep8.oom) {
    std::cout << "SSDTrain B16 peak vs keep B8 peak: "
              << u::format_bytes(
                     static_cast<double>(ssd.stats.activation_peak))
              << " vs "
              << u::format_bytes(
                     static_cast<double>(keep8.stats.activation_peak))
              << " (paper: doubles the batch in the same budget)\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_unused_selection(options);
  g_cli = options;

  std::vector<std::string> strategy_names;
  for (rt::Strategy s : kStrategies) {
    strategy_names.emplace_back(to_string(s));
  }
  sweep::SweepSpec spec;
  spec.axis("hidden", std::vector<std::int64_t>{12288, 14336})
      .axis("strategy", strategy_names)
      .axis("batch", std::vector<std::int64_t>{4, 8, 16});

  sweep::SweepRunner runner(options.workers);
  const auto points = spec.points();
  const auto outcomes = runner.map(points, measure, options.map_options());

  int failed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (outcomes[i].ok()) continue;
    std::cerr << points[i].label() << " failed: " << outcomes[i].error << "\n";
    ++failed;
  }
  if (failed != 0) return 1;

  RokResults results;
  for (std::size_t i = 0; i < points.size(); ++i) {
    results[{points[i].i64("hidden"), points[i].str("strategy"),
             points[i].i64("batch")}] = outcomes[i].get();
  }

  std::cout << "=== Fig. 7: recompute-offload-keep curves ===\n\n";
  rok_curve(12288, results);
  rok_curve(14336, results);

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path,
                     {"hidden", "strategy", "batch", "oom",
                      "activation_peak_bytes", "model_throughput_flops",
                      "step_time_s"});
    for (const auto& point : points) {
      const RokPoint& r = results.at({point.i64("hidden"),
                                      point.str("strategy"),
                                      point.i64("batch")});
      csv.add_row({sweep::to_string(point.value("hidden")),
                   point.str("strategy"),
                   sweep::to_string(point.value("batch")),
                   r.oom ? "1" : "0",
                   std::to_string(r.stats.activation_peak),
                   u::format_fixed(r.stats.model_throughput, 0),
                   u::format_fixed(r.stats.step_time, 9)});
    }
  }
  return 0;
}
