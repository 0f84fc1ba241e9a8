// A long TrainingSession on the Table III point (BERT H8192 L4 B16 TP2,
// ssdtrain on the 4-SSD array). 1000 steps run ~20 simulated minutes, past
// t = 512 s where one ulp of simulated time starts to carry more than a
// milli-byte of a fast flow, and past the step where garbage collection
// starts on fresh drives. Labelled `sweep`: it takes seconds, not
// milliseconds.

#include <gtest/gtest.h>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"

namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;

TEST(LongSession, Table3PointRunsAThousandSteps) {
  rt::SessionConfig config;
  config.model = m::bert_config(8192, 4, 16);
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::Strategy::ssdtrain;
  rt::TrainingSession session(config);

  const auto first = session.run_step();
  rt::StepStats last;
  for (int step = 1; step < 1000; ++step) last = session.run_step();

  EXPECT_GT(session.node().simulator().now(), 512.0);
  EXPECT_EQ(session.logical_step(), 1000u);
  // The steady state holds: no drain tail, same step time to 1%.
  EXPECT_NEAR(last.step_time, first.step_time, first.step_time * 0.01);
  EXPECT_EQ(session.cache()->tracked_entries(), 0u);
}
