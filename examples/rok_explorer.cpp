// ROK explorer: sweep the recompute-offload-keep design space for a model
// of your choosing and print the curve plus a recommendation — the tool a
// practitioner would use to pick an activation-placement strategy for a
// given memory budget.
//
// Usage: example_rok_explorer [hidden] [layers] [max_batch] [arch]
//                             [--workers N] [--csv PATH]
//   hidden    hidden dimension, multiple of 128     (default 12288)
//   layers    transformer layers                    (default 3)
//   max_batch largest micro-batch size to try       (default 16)
//   arch      bert | gpt | t5 | gpt-moe | gpt-gqa   (default bert)
//   --workers sweep worker threads                  (default: all cores)
//   --csv     dump the curve as CSV
// and every session flag of sweep/cli.hpp (--tp, --faults, --ckpt-*, ...).

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
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

const std::vector<rt::Strategy> kStrategies = {rt::Strategy::keep_in_gpu,
                                               rt::Strategy::recompute_full,
                                               rt::Strategy::ssdtrain};

m::ModelConfig make_model(const std::string& arch, std::int64_t hidden,
                          int layers, std::int64_t batch) {
  if (arch == "gpt") return m::gpt_config(hidden, layers, batch);
  if (arch == "t5") return m::t5_config(hidden, layers, batch);
  if (arch == "gpt-moe") {
    return m::gpt_moe_config(hidden, layers, batch, /*num_experts=*/8,
                             /*top_k=*/2);
  }
  if (arch == "gpt-gqa") return m::gpt_gqa_config(hidden, layers, batch);
  return m::bert_config(hidden, layers, batch);
}

struct RokPoint {
  bool oom = false;
  rt::StepStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_unused_selection(options);
  const auto& args = options.positional;
  const std::int64_t hidden = !args.empty() ? std::atoll(args[0].c_str())
                                            : 12288;
  const int layers = args.size() > 1 ? std::atoi(args[1].c_str()) : 3;
  const std::int64_t max_batch =
      args.size() > 2 ? std::atoll(args[2].c_str()) : 16;
  const std::string arch = args.size() > 3 ? args[3] : "bert";

  std::cout << "ROK design-space exploration: " << arch << " H" << hidden
            << " L" << layers << " (TP2, seq 1024)\n\n";

  std::vector<std::string> strategy_names;
  for (rt::Strategy s : kStrategies) {
    strategy_names.emplace_back(to_string(s));
  }
  std::vector<std::int64_t> batches;
  for (std::int64_t batch = 2; batch <= max_batch; batch *= 2) {
    batches.push_back(batch);
  }
  // max_batch < 2 leaves the grid empty: print the empty curve instead of
  // declaring a zero-value axis.
  std::vector<sweep::SweepPoint> points;
  if (!batches.empty()) {
    sweep::SweepSpec spec;
    spec.axis("strategy", strategy_names).axis("batch", batches);
    points = spec.points();
  }

  sweep::SweepRunner runner(options.workers);
  const auto outcomes =
      runner.map(points, [&](const sweep::SweepPoint& p) {
        rt::SessionConfig config;
        config.model = make_model(arch, hidden, layers, p.i64("batch"));
        config.parallel.tensor_parallel = 2;
        config.strategy = rt::strategy_from(p.str("strategy"));
        options.apply(config);
        RokPoint result;
        try {
          rt::TrainingSession session(std::move(config));
          session.run_step();
          result.stats = session.run_step();
        } catch (const hw::OutOfDeviceMemory&) {
          result.oom = true;
        }
        return result;
      }, options.map_options());

  u::AsciiTable table({"strategy", "batch", "activation peak",
                       "throughput", "samples/s"});
  double best_throughput = 0.0;
  std::string best_point;
  for (std::size_t i = 0; i < points.size(); ++i) {
    u::check(outcomes[i].ok(),
             points[i].label() + " failed: " + outcomes[i].error);
    const std::string& strategy = points[i].str("strategy");
    const std::int64_t batch = points[i].i64("batch");
    const RokPoint& r = outcomes[i].get();
    if (r.oom) {
      table.add_row({strategy, u::label("B", batch), "OOM", "-", "-"});
      continue;
    }
    const double samples_per_s =
        static_cast<double>(batch) / r.stats.step_time;
    table.add_row(
        {strategy, u::label("B", batch),
         u::format_bytes(static_cast<double>(r.stats.activation_peak)),
         u::format_flops_rate(r.stats.model_throughput),
         u::format_fixed(samples_per_s, 2)});
    if (r.stats.model_throughput > best_throughput) {
      best_throughput = r.stats.model_throughput;
      best_point = strategy + " at B" + std::to_string(batch) + " (" +
                   u::format_bytes(
                       static_cast<double>(r.stats.activation_peak)) +
                   " activation peak)";
    }
  }
  std::cout << table.render() << "\n";
  std::cout << "highest model throughput: " << best_point << "\n";

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path,
                     {"strategy", "batch", "oom", "activation_peak_bytes",
                      "model_throughput_flops", "samples_per_s"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const RokPoint& r = outcomes[i].get();
      const std::int64_t batch = points[i].i64("batch");
      csv.add_row(
          {points[i].str("strategy"), std::to_string(batch),
           r.oom ? "1" : "0", std::to_string(r.stats.activation_peak),
           u::format_fixed(r.stats.model_throughput, 0),
           r.oom ? "0"
                 : u::format_fixed(
                       static_cast<double>(batch) / r.stats.step_time, 6)});
    }
  }
  return 0;
}
