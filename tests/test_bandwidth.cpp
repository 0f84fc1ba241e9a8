// Tests for the incremental bandwidth-network internals: slot-map flow ids
// across reuse, coalesced filling passes, component-restricted refills, and
// the differential property that incremental reallocation produces
// byte-identical completion times and utilisation values versus the naive
// full-refill reference on randomized flow arrival/departure sequences.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ssdtrain/sim/bandwidth_network.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/rng.hpp"
#include "ssdtrain/util/units.hpp"

namespace sim = ssdtrain::sim;
namespace u = ssdtrain::util;

using RefillPolicy = sim::BandwidthNetwork::RefillPolicy;

TEST(BandwidthIncremental, FlowIdsStayUniqueAcrossSlotReuse) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  const auto first = net.start_flow("a", u::gb(10), {link}, [] {});
  EXPECT_TRUE(net.flow_active(first));
  s.run();
  EXPECT_FALSE(net.flow_active(first));
  // The second flow reuses the first flow's slot; the stale id must not
  // resolve to it.
  const auto second = net.start_flow("b", u::gb(10), {link}, [] {});
  EXPECT_NE(first, second);
  EXPECT_TRUE(net.flow_active(second));
  EXPECT_FALSE(net.flow_active(first));
  EXPECT_DOUBLE_EQ(net.flow_remaining(first), 0.0);
  EXPECT_EQ(net.active_flows(), 1u);
  s.run();
}

// Past t = 512 s one ulp of simulated time (1.1e-13 s) carries more than a
// milli-byte at 26.8 GB/s, so a flow can be left with a remainder that
// needs less than half an ulp. Its finish tick must still land after now():
// at now() it moves no bytes and repeats forever. 69 of these 400 sizes,
// 1,000,000,003 B among them, used to hang that way.
TEST(BandwidthIncremental, FlowFinishingWithinHalfAnUlpCompletes) {
  for (std::int64_t bytes = 1'000'000'000; bytes < 1'000'000'400; ++bytes) {
    sim::Simulator s;
    sim::BandwidthNetwork net(s);
    const auto ssd = net.add_resource("ssd", u::gbps(26.8));
    bool done = false;
    s.schedule_at(512.0, [&] {
      net.start_flow("f", bytes, {ssd}, [&done] { done = true; });
    });
    for (int events = 0; events < 100 && !done && s.step(); ++events) {
    }
    EXPECT_TRUE(done) << bytes << " B flow started at t = 512 s";
    EXPECT_NEAR(s.now(), 512.0 + static_cast<double>(bytes) / 26.8e9, 1e-9);
  }
}

TEST(BandwidthIncremental, SameInstantStartsCoalesceIntoOnePass) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  for (int i = 0; i < 10; ++i) {
    net.start_flow(u::label("f", i), u::gb(10), {link}, [] {});
  }
  s.run();
  // One pass rates the whole batch at t=0; the joint completion tick runs
  // one final (empty) pass. Without coalescing this would be 11 passes.
  EXPECT_EQ(net.filling_passes(), 2u);
  EXPECT_EQ(net.flows_refilled(), 10u);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);  // 10 flows x 10 GB at 10 GB/s
}

TEST(BandwidthIncremental, RefillTouchesOnlyTheDirtyComponent) {
  sim::Simulator s;
  sim::BandwidthNetwork incremental(s, RefillPolicy::incremental);
  sim::BandwidthNetwork full(s, RefillPolicy::full);
  // Two independent contention domains per network: flows on array B churn
  // while one long flow rides array A undisturbed.
  for (auto* net : {&incremental, &full}) {
    auto a = net->add_resource("arrayA", u::gbps(10));
    auto b = net->add_resource("arrayB", u::gbps(10));
    net->start_flow("long", u::gb(100), {a}, [] {});
    for (int i = 0; i < 8; ++i) {
      s.schedule_at(i * 0.5, [net, b] {
        net->start_flow("churn", u::gb(2), {b}, [] {});
      });
    }
  }
  s.run();
  EXPECT_EQ(incremental.filling_passes(), full.filling_passes());
  // The churn passes re-rate array B's flows only; the full policy re-rates
  // the long flow every time as well.
  EXPECT_LT(incremental.flows_refilled(), full.flows_refilled());
  EXPECT_DOUBLE_EQ(incremental.resource_delivered(0), 100e9);
  EXPECT_DOUBLE_EQ(incremental.resource_delivered(0),
                   full.resource_delivered(0));
}

TEST(BandwidthIncremental, DuplicateResourcesInPathCountOnce) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  double t = -1;
  // A repeated hop must not halve the fair share or double-count delivery.
  net.start_flow("dup", u::gb(20), {link, link}, [&] { t = s.now(); });
  s.run();
  EXPECT_NEAR(t, 2.0, 1e-9);
  EXPECT_NEAR(net.resource_delivered(link), 20e9, 1.0);
}

TEST(BandwidthIncremental, PathlessCappedFlowCompletes) {
  for (RefillPolicy policy : {RefillPolicy::incremental, RefillPolicy::full}) {
    sim::Simulator s;
    sim::BandwidthNetwork net(s, policy);
    double t = -1;
    net.start_flow("direct", u::gb(4), {}, [&] { t = s.now(); }, u::gbps(2));
    s.run();
    EXPECT_NEAR(t, 2.0, 1e-9);
  }
}

TEST(BandwidthIncremental, DropFlowsClearsPendingState) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  net.start_flow("a", u::gb(10), {link}, [] {});
  net.drop_flows();
  EXPECT_EQ(net.active_flows(), 0u);
  s.run();  // the armed flush must no-op instead of crashing
  // The network stays usable after a drop.
  double t = -1;
  net.start_flow("b", u::gb(10), {link}, [&] { t = s.now(); });
  s.run();
  EXPECT_NEAR(t, 1.0, 1e-9);
}

namespace {

/// One randomized flow program: arrivals, sizes, paths, caps, capacity
/// changes. Applied identically to any number of networks.
struct FlowProgram {
  struct FlowEvent {
    double at = 0.0;
    u::Bytes bytes = 0;
    std::vector<std::size_t> path;  // indices into resource ids
    double rate_cap = sim::BandwidthNetwork::unlimited;
  };
  struct CapacityEvent {
    double at = 0.0;
    std::size_t resource = 0;
    double capacity = 0.0;
  };
  std::vector<double> capacities;
  std::vector<FlowEvent> flows;
  std::vector<CapacityEvent> capacity_changes;
};

FlowProgram random_program(std::uint64_t seed) {
  u::Xoshiro256 rng(seed);
  FlowProgram program;
  // Two or three disjoint resource clusters so incremental refills have
  // genuinely independent components to skip.
  const std::size_t clusters = 2 + rng.uniform_int(2);
  const std::size_t per_cluster = 2 + rng.uniform_int(2);
  for (std::size_t i = 0; i < clusters * per_cluster; ++i) {
    program.capacities.push_back(u::gbps(1.0 + rng.uniform() * 30.0));
  }
  const std::size_t flow_count = 40 + rng.uniform_int(40);
  for (std::size_t i = 0; i < flow_count; ++i) {
    FlowProgram::FlowEvent e;
    e.at = rng.uniform() * 4.0;
    e.bytes = static_cast<u::Bytes>(u::mb(1.0 + rng.uniform() * 4000.0));
    const std::size_t cluster = rng.uniform_int(clusters);
    const std::size_t hops = 1 + rng.uniform_int(per_cluster);
    for (std::size_t h = 0; h < hops; ++h) {
      const std::size_t r = cluster * per_cluster + rng.uniform_int(per_cluster);
      bool dup = false;
      for (std::size_t seen : e.path) dup = dup || seen == r;
      if (!dup) e.path.push_back(r);
    }
    if (rng.uniform() < 0.3) {
      e.rate_cap = u::gbps(0.5 + rng.uniform() * 4.0);
    }
    program.flows.push_back(std::move(e));
  }
  const std::size_t cap_changes = rng.uniform_int(6);
  for (std::size_t i = 0; i < cap_changes; ++i) {
    FlowProgram::CapacityEvent e;
    e.at = rng.uniform() * 5.0;
    e.resource = rng.uniform_int(program.capacities.size());
    e.capacity = u::gbps(1.0 + rng.uniform() * 30.0);
    program.capacity_changes.push_back(e);
  }
  return program;
}

}  // namespace

// The paper-level property: incremental component-restricted reallocation
// must be indistinguishable from re-filling the whole network on every
// event. Both policies run the same randomized program inside one
// simulator; completion times, delivered bytes, and utilisations must match
// bit-for-bit (EXPECT_EQ on doubles, no tolerance).
TEST(BandwidthIncremental, PropertyIncrementalMatchesFullRefillExactly) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(u::label("seed ", static_cast<std::int64_t>(seed)));
    const FlowProgram program = random_program(seed);

    sim::Simulator s;
    sim::BandwidthNetwork incremental(s, RefillPolicy::incremental);
    sim::BandwidthNetwork full(s, RefillPolicy::full);

    std::vector<double> done_incremental(program.flows.size(), -1.0);
    std::vector<double> done_full(program.flows.size(), -1.0);

    struct Target {
      sim::BandwidthNetwork* net;
      std::vector<double>* done;
    };
    std::vector<sim::BandwidthNetwork::ResourceId> ids_incremental;
    std::vector<sim::BandwidthNetwork::ResourceId> ids_full;
    for (std::size_t r = 0; r < program.capacities.size(); ++r) {
      ids_incremental.push_back(incremental.add_resource(
          u::label("r", static_cast<std::int64_t>(r)), program.capacities[r]));
      ids_full.push_back(
          full.add_resource(u::label("r", static_cast<std::int64_t>(r)), program.capacities[r]));
    }
    for (Target target : {Target{&incremental, &done_incremental},
                          Target{&full, &done_full}}) {
      const auto& ids =
          target.net == &incremental ? ids_incremental : ids_full;
      for (std::size_t i = 0; i < program.flows.size(); ++i) {
        const auto& e = program.flows[i];
        std::vector<sim::BandwidthNetwork::ResourceId> path;
        for (std::size_t r : e.path) path.push_back(ids[r]);
        s.schedule_at(e.at, [target, i, &e, path, &s] {
          target.net->start_flow(
              u::label("f", static_cast<std::int64_t>(i)), e.bytes, path,
              [target, i, &s] { (*target.done)[i] = s.now(); }, e.rate_cap);
        });
      }
      for (const auto& c : program.capacity_changes) {
        const auto rid = ids[c.resource];
        const double capacity = c.capacity;
        s.schedule_at(c.at, [target, rid, capacity] {
          target.net->set_capacity(rid, capacity);
        });
      }
    }
    s.run();

    for (std::size_t i = 0; i < program.flows.size(); ++i) {
      SCOPED_TRACE(u::label("flow ", static_cast<std::int64_t>(i)));
      EXPECT_GE(done_incremental[i], 0.0);
      EXPECT_EQ(done_incremental[i], done_full[i]);  // bit-identical
    }
    for (std::size_t r = 0; r < program.capacities.size(); ++r) {
      SCOPED_TRACE(u::label("resource ", static_cast<std::int64_t>(r)));
      EXPECT_EQ(incremental.resource_delivered(ids_incremental[r]),
                full.resource_delivered(ids_full[r]));
      EXPECT_EQ(incremental.resource_utilization(ids_incremental[r]),
                full.resource_utilization(ids_full[r]));
    }
    // The whole point: the incremental policy did strictly less re-rating
    // work on these multi-component programs.
    EXPECT_LE(incremental.flows_refilled(), full.flows_refilled());
  }
}

TEST(BandwidthCancel, MidFlightCancelCreditsBytesAndFreesTheSlot) {
  for (RefillPolicy policy : {RefillPolicy::incremental, RefillPolicy::full}) {
    sim::Simulator s;
    sim::BandwidthNetwork net(s, policy);
    auto link = net.add_resource("pcie", u::gbps(10));
    bool completed = false;
    auto id = net.start_flow("a", u::gb(10), {link}, [&] { completed = true; });
    s.schedule_at(0.5, [&] {
      EXPECT_TRUE(net.flow_active(id));
      EXPECT_TRUE(net.cancel_flow(id));
      EXPECT_FALSE(net.flow_active(id));
      EXPECT_FALSE(net.cancel_flow(id));  // second cancel: already gone
    });
    s.run();
    // The completion callback never fires, the slot is reclaimed, and the
    // bytes moved before the cancel stay in the delivered accounting.
    EXPECT_FALSE(completed);
    EXPECT_EQ(net.active_flows(), 0u);
    EXPECT_NEAR(net.resource_delivered(link), u::gb(5), u::mb(1));
    // The network stays usable: a follow-up flow gets full capacity.
    // (Scheduled at t=2, past the cancelled flow's defunct completion
    // event, which still advances simulated time as a no-op.)
    double t = -1;
    s.schedule_at(2.0, [&] {
      net.start_flow("b", u::gb(10), {link}, [&] { t = s.now(); });
    });
    s.run();
    EXPECT_NEAR(t, 3.0, 1e-9);
  }
}

TEST(BandwidthCancel, CancelRejectsUnknownAndFinishedIds) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  EXPECT_FALSE(net.cancel_flow(0));       // pseudo id (capped pathless flows)
  EXPECT_FALSE(net.cancel_flow(123456));  // never issued
  auto id = net.start_flow("a", u::gb(1), {link}, [] {});
  s.run();
  EXPECT_FALSE(net.cancel_flow(id));  // already finished
}

// Fault-layer teardown property: a randomized program of flow arrivals,
// capacity changes (the injector's derate windows), and mid-flight cancels
// (RAID-member dropout tearing down in-flight transfers) must behave
// bit-identically under the incremental and full refill policies, never
// fire a cancelled flow's completion, and leak no slots.
TEST(BandwidthCancel, PropertyRandomCancelsMatchAcrossRefillPolicies) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    SCOPED_TRACE(u::label("seed ", static_cast<std::int64_t>(seed)));
    FlowProgram program = random_program(seed);
    // Give roughly a third of the flows a cancel point after arrival.
    u::Xoshiro256 rng(seed * 977);
    std::vector<double> cancel_at(program.flows.size(), -1.0);
    for (std::size_t i = 0; i < program.flows.size(); ++i) {
      if (rng.uniform() < 0.35) {
        cancel_at[i] = program.flows[i].at + rng.uniform() * 2.0;
      }
    }

    sim::Simulator s;
    sim::BandwidthNetwork incremental(s, RefillPolicy::incremental);
    sim::BandwidthNetwork full(s, RefillPolicy::full);

    struct Target {
      sim::BandwidthNetwork* net = nullptr;
      std::vector<sim::BandwidthNetwork::ResourceId> ids;
      std::vector<sim::BandwidthNetwork::FlowId> flow_ids;
      std::vector<double> done;
      std::vector<char> cancelled;
    };
    Target targets[2];
    targets[0].net = &incremental;
    targets[1].net = &full;
    for (Target& target : targets) {
      for (std::size_t r = 0; r < program.capacities.size(); ++r) {
        target.ids.push_back(target.net->add_resource(
            u::label("r", static_cast<std::int64_t>(r)),
            program.capacities[r]));
      }
      target.flow_ids.assign(program.flows.size(), 0);
      target.done.assign(program.flows.size(), -1.0);
      target.cancelled.assign(program.flows.size(), 0);
      Target* tp = &target;
      for (std::size_t i = 0; i < program.flows.size(); ++i) {
        const auto& e = program.flows[i];
        std::vector<sim::BandwidthNetwork::ResourceId> path;
        for (std::size_t r : e.path) path.push_back(target.ids[r]);
        s.schedule_at(e.at, [tp, i, &e, path, &s] {
          tp->flow_ids[i] = tp->net->start_flow(
              u::label("f", static_cast<std::int64_t>(i)), e.bytes, path,
              [tp, i, &s] { tp->done[i] = s.now(); }, e.rate_cap);
        });
        if (cancel_at[i] >= 0.0) {
          s.schedule_at(cancel_at[i], [tp, i] {
            tp->cancelled[i] =
                tp->net->cancel_flow(tp->flow_ids[i]) ? 1 : 0;
          });
        }
      }
      for (const auto& c : program.capacity_changes) {
        const auto rid = target.ids[c.resource];
        const double capacity = c.capacity;
        s.schedule_at(c.at, [tp, rid, capacity] {
          tp->net->set_capacity(rid, capacity);
        });
      }
    }
    s.run();

    for (std::size_t i = 0; i < program.flows.size(); ++i) {
      SCOPED_TRACE(u::label("flow ", static_cast<std::int64_t>(i)));
      // Both policies must agree on whether the cancel caught the flow
      // mid-flight, and a caught flow must never complete.
      EXPECT_EQ(targets[0].cancelled[i], targets[1].cancelled[i]);
      EXPECT_EQ(targets[0].done[i], targets[1].done[i]);  // bit-identical
      if (targets[0].cancelled[i] != 0) {
        EXPECT_EQ(targets[0].done[i], -1.0);
      } else if (cancel_at[i] < 0.0) {
        EXPECT_GE(targets[0].done[i], 0.0);
      }
    }
    for (std::size_t r = 0; r < program.capacities.size(); ++r) {
      SCOPED_TRACE(u::label("resource ", static_cast<std::int64_t>(r)));
      EXPECT_EQ(incremental.resource_delivered(targets[0].ids[r]),
                full.resource_delivered(targets[1].ids[r]));
    }
    // No slot or subscriber leaks: every flow either completed or was torn
    // down, and both networks drained to empty.
    EXPECT_EQ(incremental.active_flows(), 0u);
    EXPECT_EQ(full.active_flows(), 0u);
  }
}
