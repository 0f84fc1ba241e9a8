// Reproduces Fig. 6 of the paper: step time (a) and activation memory peak
// (b) for BERT, T5, and GPT at (H8192 L4), (H12288 L3), (H16384 L2),
// batch size 16, seq 1024, TP2, FP16 + FlashAttention-2, comparing
// SSDTrain against the no-offloading baseline on the Table II machine.
//
// Expected shape (paper): SSDTrain step time within ~1% of the baseline in
// every configuration (full overlap), activation peaks reduced by 28-47%.
//
// The 9 model configs x 2 strategies run as one sweep sharded across
// worker threads (--workers N); --csv PATH dumps the series.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/cli.hpp"
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

using ConfigFactory = m::ModelConfig (*)(std::int64_t, int, std::int64_t);

struct Case {
  ConfigFactory make;
  std::int64_t hidden;
  int layers;

  [[nodiscard]] std::string model_name() const {
    return make(hidden, layers, 16).name;
  }
};

struct Point {
  Case config;
  rt::Strategy strategy;
};

rt::StepStats measure(const Point& p) {
  rt::SessionConfig config;
  config.model = p.config.make(p.config.hidden, p.config.layers, 16);
  config.parallel.tensor_parallel = 2;
  config.strategy = p.strategy;
  g_cli.apply(config);
  rt::TrainingSession session(std::move(config));
  session.run_step();  // warm-up
  return session.run_step();
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_unused_selection(options);
  g_cli = options;

  const std::vector<Case> cases = {
      {&m::bert_config, 8192, 4},  {&m::bert_config, 12288, 3},
      {&m::bert_config, 16384, 2}, {&m::t5_config, 8192, 4},
      {&m::t5_config, 12288, 3},   {&m::t5_config, 16384, 2},
      {&m::gpt_config, 8192, 4},   {&m::gpt_config, 12288, 3},
      {&m::gpt_config, 16384, 2},
  };
  // One point per (case, strategy): SSDTrain next to its keep baseline.
  std::vector<Point> grid;
  for (const Case& c : cases) {
    grid.push_back({c, rt::Strategy::ssdtrain});
    grid.push_back({c, rt::Strategy::keep_in_gpu});
  }

  sweep::SweepRunner runner(options.workers);
  const auto outcomes = runner.map(grid, measure, options.map_options());
  int failed = 0;
  for (const auto& o : outcomes) {
    if (o.ok()) continue;
    std::cerr << "configuration failed: " << o.error << "\n";
    ++failed;
  }
  if (failed != 0) return 1;

  std::cout << "=== Fig. 6: SSDTrain vs no offloading "
               "(B=16, seq 1024, TP2, FP16+Flash) ===\n\n";

  u::AsciiTable table({"model", "config", "step time (SSDTrain)",
                       "step time (no offload)", "overhead",
                       "act peak (SSDTrain)", "act peak (no offload)",
                       "reduction"});
  struct Row {
    const Case* c;
    double overhead, reduction;
    const rt::StepStats* ssd;
    const rt::StepStats* keep;
  };
  std::vector<Row> rows;
  double worst_overhead = 0.0;
  double best_reduction = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const rt::StepStats& ssd = outcomes[2 * i].get();
    const rt::StepStats& keep = outcomes[2 * i + 1].get();
    const double overhead = ssd.step_time / keep.step_time - 1.0;
    const double reduction =
        1.0 - static_cast<double>(ssd.activation_peak) /
                  static_cast<double>(keep.activation_peak);
    worst_overhead = std::max(worst_overhead, overhead);
    best_reduction = std::max(best_reduction, reduction);
    rows.push_back({&cases[i], overhead, reduction, &ssd, &keep});
    table.add_row({cases[i].model_name(),
                   u::label("H", cases[i].hidden) +
                       u::label(" L", cases[i].layers),
                   u::format_time(ssd.step_time),
                   u::format_time(keep.step_time),
                   u::format_percent(overhead),
                   u::format_bytes(static_cast<double>(ssd.activation_peak)),
                   u::format_bytes(static_cast<double>(keep.activation_peak)),
                   u::format_percent(-reduction)});
  }
  std::cout << table.render() << "\n";
  std::cout << "worst SSDTrain overhead     : "
            << u::format_percent(worst_overhead)
            << "   (paper: negligible)\n";
  std::cout << "best activation reduction   : "
            << u::format_percent(best_reduction)
            << "   (paper: up to 47%)\n";

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path,
                     {"model", "hidden", "layers", "ssd_step_time_s",
                      "keep_step_time_s", "overhead", "ssd_act_peak_bytes",
                      "keep_act_peak_bytes", "reduction"});
    for (const Row& r : rows) {
      csv.add_row({r.c->model_name(),
                   std::to_string(r.c->hidden), std::to_string(r.c->layers),
                   u::format_fixed(r.ssd->step_time, 9),
                   u::format_fixed(r.keep->step_time, 9),
                   u::format_fixed(r.overhead, 6),
                   std::to_string(r.ssd->activation_peak),
                   std::to_string(r.keep->activation_peak),
                   u::format_fixed(r.reduction, 6)});
    }
  }
  return 0;
}
