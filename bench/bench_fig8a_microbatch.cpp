// Reproduces Fig. 8(a) of the paper: breakdown of the throughput
// improvement from larger micro-batch sizes (3-layer BERT, hidden 12288,
// no offloading) relative to micro-batch size 1. The improvement is split
// into the weight-update amortisation ("weights update saving") and the
// residual kernel-efficiency gain ("higher compute efficiency").
//
// Expected shape (paper): total improvement grows with batch size up to
// ~70-80% at B16, with the weight-update saving the dominant component.
//
// The batch-size axis is a SweepSpec sharded across worker threads
// (--workers N); --csv PATH dumps the series.

#include <cstdint>
#include <iostream>
#include <vector>

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
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

// The session flags, applied to every measured session.
sweep::CliOptions g_cli;

rt::StepStats measure(const sweep::SweepPoint& point) {
  rt::SessionConfig config;
  config.model = m::bert_config(12288, 3, point.i64("batch"));
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::Strategy::keep_in_gpu;
  g_cli.apply(config);
  rt::TrainingSession session(std::move(config));
  session.run_step();
  return session.run_step();
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_unused_selection(options);
  g_cli = options;

  const std::vector<std::int64_t> batches = {1, 2, 4, 8, 16};
  sweep::SweepSpec spec;
  spec.axis("batch", batches);

  sweep::SweepRunner runner(options.workers);
  const auto points = spec.points();
  const auto outcomes = runner.map(points, measure, options.map_options());
  int failed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].ok()) continue;
    std::cerr << points[i].label() << " failed: " << outcomes[i].error << "\n";
    ++failed;
  }
  if (failed != 0) return 1;

  std::cout << "=== Fig. 8(a): throughput boost of larger micro-batch size "
               "(BERT H12288 L3) ===\n\n";

  const rt::StepStats& base = outcomes[0].get();  // batch axis starts at 1
  const double base_per_sample = base.step_time;  // one sample per step
  const double base_compute = base.step_time - base.optimizer_time;

  struct Row {
    std::int64_t batch;
    double per_sample, total, update_saving, efficiency;
  };
  std::vector<Row> rows;
  u::AsciiTable table({"batch", "per-sample time", "total improvement",
                       "weights update saving", "higher compute efficiency"});
  for (std::size_t i = 1; i < points.size(); ++i) {
    const std::int64_t batch = points[i].i64("batch");
    const rt::StepStats& stats = outcomes[i].get();
    const double per_sample =
        stats.step_time / static_cast<double>(batch);
    const double total = base_per_sample / per_sample - 1.0;
    // Counterfactual: per-sample compute unchanged from B1, only the
    // weight update amortised across the batch.
    const double update_only_per_sample =
        base_compute +
        base.optimizer_time / static_cast<double>(batch);
    const double update_saving =
        base_per_sample / update_only_per_sample - 1.0;
    const double efficiency = total - update_saving;
    rows.push_back({batch, per_sample, total, update_saving, efficiency});
    table.add_row({u::label("B", batch), u::format_time(per_sample),
                   u::format_percent(total), u::format_percent(update_saving),
                   u::format_percent(efficiency)});
  }
  std::cout << table.render() << "\n";
  std::cout << "B1 step: " << u::format_time(base.step_time)
            << " (weight update " << u::format_time(base.optimizer_time)
            << ")\n";
  std::cout << "Paper shape: improvement grows monotonically, dominated by "
               "the weights-update saving.\n";

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path,
                     {"batch", "per_sample_time_s", "total_improvement",
                      "weights_update_saving", "compute_efficiency"});
    for (const Row& r : rows) {
      csv.add_row({std::to_string(r.batch), u::format_fixed(r.per_sample, 9),
                   u::format_fixed(r.total, 6),
                   u::format_fixed(r.update_saving, 6),
                   u::format_fixed(r.efficiency, 6)});
    }
  }
  return 0;
}
