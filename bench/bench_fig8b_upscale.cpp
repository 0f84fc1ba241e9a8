// Reproduces Fig. 8(b) of the paper: projected per-GPU SSD write bandwidth
// as the 3-layer-per-stage BERT-style training system scales up —
// (PP1 TP4 L3), (PP1 TP8 L3), (PP2 TP8 L6), (PP4 TP8 L12), (PP8 TP8 L24) —
// using the llm-analysis-style performance model, compared against the
// 2-GPU evaluation case (the orange dashed line in the paper).
//
// Expected shape (paper): every upscaled configuration requires less write
// bandwidth per GPU than the original 2-GPU case (scaling LLM training is
// weak scaling: communication grows, so the I/O window per byte widens).
//
// The config list (baseline + 5 upscaled points) runs through the
// SweepRunner (--workers N); --csv PATH dumps the series.

#include <iostream>
#include <string>
#include <vector>

#include "ssdtrain/analysis/activation_model.hpp"
#include "ssdtrain/analysis/perf_model.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace a = ssdtrain::analysis;
namespace m = ssdtrain::modules;
namespace p = ssdtrain::parallel;
namespace hw = ssdtrain::hw;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

struct Config {
  int pp, tp, layers;
  bool sequence_parallel;
};

u::BytesPerSecond project(const Config& c) {
  auto model = m::bert_config(12288, c.layers, 16);
  p::ParallelConfig parallel;
  parallel.tensor_parallel = c.tp;
  parallel.pipeline_parallel = c.pp;
  // Megatron enables sequence parallelism together with TP >= 4; the
  // paper's llm-analysis projections assume it (the 2-GPU testbed does
  // not use it).
  parallel.sequence_parallel = c.sequence_parallel;
  hw::Gpu gpu(hw::catalog::a100_pcie_40gb());
  const auto est = a::estimate_step(model, parallel, gpu, a::Fabrics{});
  const auto offloadable =
      a::offloadable_activation_bytes(model, parallel) / c.pp;
  return a::required_write_bandwidth(offloadable, est.step);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_grid_cli(argc, argv);
  sweep::reject_unused_selection(options);

  // Point 0 is the 2-GPU evaluation machine (no sequence parallelism).
  const std::vector<Config> configs = {{1, 2, 3, false}, {1, 4, 3, true},
                                       {1, 8, 3, true},  {2, 8, 6, true},
                                       {4, 8, 12, true}, {8, 8, 24, true}};

  sweep::SweepRunner runner(options.workers);
  const auto outcomes = runner.map(configs, project, options.map_options());
  int failed = 0;
  for (const auto& o : outcomes) {
    if (o.ok()) continue;
    std::cerr << "projection failed: " << o.error << "\n";
    ++failed;
  }
  if (failed != 0) return 1;

  std::cout << "=== Fig. 8(b): impact of upscaling on per-GPU SSD write "
               "bandwidth (BERT-style, H12288) ===\n\n";

  const double baseline = outcomes[0].get();

  u::AsciiTable table(
      {"config", "GPUs", "write bandwidth per GPU", "vs 2-GPU case"});
  bool all_below = true;
  for (std::size_t i = 1; i < configs.size(); ++i) {
    const Config& c = configs[i];
    const double bw = outcomes[i].get();
    all_below = all_below && bw < baseline;
    table.add_row({u::label("PP", c.pp) + u::label(" TP", c.tp) +
                       u::label(" L", c.layers),
                   std::to_string(c.pp * c.tp), u::format_bandwidth(bw),
                   u::format_percent(bw / baseline - 1.0)});
  }
  std::cout << table.render() << "\n";
  std::cout << "2-GPU evaluation case (orange line): "
            << u::format_bandwidth(baseline) << "\n";
  std::cout << (all_below
                    ? "All upscaled configurations fall below the 2-GPU "
                      "case, as in the paper.\n"
                    : "WARNING: some configuration exceeds the 2-GPU "
                      "case (paper expects all below).\n");

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path,
                     {"pp", "tp", "layers", "gpus",
                      "write_bandwidth_per_gpu_bps", "vs_baseline"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const Config& c = configs[i];
      csv.add_row({std::to_string(c.pp), std::to_string(c.tp),
                   std::to_string(c.layers), std::to_string(c.pp * c.tp),
                   u::format_fixed(outcomes[i].get(), 0),
                   u::format_fixed(outcomes[i].get() / baseline, 6)});
    }
  }
  return 0;
}
