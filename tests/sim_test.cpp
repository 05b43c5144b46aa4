#include <gtest/gtest.h>

#include "sim/flow.h"
#include "sim/simulation.h"

namespace carousel::sim {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(2.0, [&] { order.push_back(2); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(3.0, [&] { order.push_back(3); });
  EXPECT_DOUBLE_EQ(sim.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulation, TiesFireInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, HandlersCanScheduleMore) {
  Simulation sim;
  int fired = 0;
  std::function<void()> tick = [&] {
    ++fired;
    if (fired < 10) sim.after(1.0, tick);
  };
  sim.after(1.0, tick);
  EXPECT_DOUBLE_EQ(sim.run(), 10.0);
  EXPECT_EQ(fired, 10);
}

TEST(Simulation, RejectsPastEvents) {
  Simulation sim;
  sim.at(5.0, [&] {
    EXPECT_THROW(sim.at(1.0, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(FlowNetwork, SingleFlowBottleneckedByNarrowestResource) {
  Simulation sim;
  FlowNetwork net(sim);
  auto wide = net.add_resource(100.0);
  auto narrow = net.add_resource(10.0);
  Time done = -1;
  net.start_flow(50.0, {wide, narrow}, [&](Time t) { done = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 5.0);  // 50 bytes at 10 B/s
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Simulation sim;
  FlowNetwork net(sim);
  auto link = net.add_resource(10.0);
  std::vector<Time> done;
  net.start_flow(50.0, {link}, [&](Time t) { done.push_back(t); });
  net.start_flow(50.0, {link}, [&](Time t) { done.push_back(t); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Both progress at 5 B/s and finish together.
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST(FlowNetwork, ShortFlowFreesCapacityForLongFlow) {
  Simulation sim;
  FlowNetwork net(sim);
  auto link = net.add_resource(10.0);
  Time short_done = -1, long_done = -1;
  net.start_flow(10.0, {link}, [&](Time t) { short_done = t; });
  net.start_flow(90.0, {link}, [&](Time t) { long_done = t; });
  sim.run();
  // Share 5 B/s until the short flow ends at t=2 (10 bytes), then the long
  // flow has 80 bytes left at 10 B/s: 2 + 8 = 10.
  EXPECT_NEAR(short_done, 2.0, 1e-6);
  EXPECT_NEAR(long_done, 10.0, 1e-6);
}

TEST(FlowNetwork, MaxMinUnevenPaths) {
  Simulation sim;
  FlowNetwork net(sim);
  auto a = net.add_resource(10.0);
  auto b = net.add_resource(4.0);
  // Flow 1 crosses a only; flow 2 crosses a and b.
  auto f1 = net.start_flow(1000.0, {a}, nullptr);
  auto f2 = net.start_flow(1000.0, {a, b}, nullptr);
  // Water-filling: f2 pinned to 4 by b, f1 gets the residual 6 on a.
  EXPECT_NEAR(net.flow_rate(f2), 4.0, 1e-9);
  EXPECT_NEAR(net.flow_rate(f1), 6.0, 1e-9);
  sim.run();
}

TEST(FlowNetwork, LateArrivalSlowsExistingFlow) {
  Simulation sim;
  FlowNetwork net(sim);
  auto link = net.add_resource(10.0);
  Time first_done = -1;
  net.start_flow(100.0, {link}, [&](Time t) { first_done = t; });
  sim.at(5.0, [&] { net.start_flow(200.0, {link}, nullptr); });
  sim.run();
  // 50 bytes in the first 5 s, then 5 B/s: 5 + 10 = 15.
  EXPECT_NEAR(first_done, 15.0, 1e-6);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately) {
  Simulation sim;
  FlowNetwork net(sim);
  auto link = net.add_resource(10.0);
  Time done = -1;
  net.start_flow(0.0, {link}, [&](Time t) { done = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(FlowNetwork, CompletionCallbackCanChainFlows) {
  Simulation sim;
  FlowNetwork net(sim);
  auto link = net.add_resource(10.0);
  Time second_done = -1;
  net.start_flow(20.0, {link}, [&](Time) {
    net.start_flow(30.0, {link}, [&](Time t) { second_done = t; });
  });
  sim.run();
  EXPECT_NEAR(second_done, 5.0, 1e-6);  // 2 s + 3 s, sequential
}

TEST(FlowNetwork, ValidatesInputs) {
  Simulation sim;
  FlowNetwork net(sim);
  EXPECT_THROW(net.add_resource(0.0), std::invalid_argument);
  auto link = net.add_resource(1.0);
  EXPECT_THROW(net.start_flow(1.0, {}, nullptr), std::invalid_argument);
  EXPECT_THROW(net.start_flow(1.0, {link + 7}, nullptr),
               std::invalid_argument);
}

TEST(FlowNetwork, ManyParallelFlowsAggregateCorrectly) {
  // 10 server links of 3 each into one client link of 25: aggregate pinned
  // at 25, finishing 10 * 30 bytes takes 300/25 = 12 s... but each server
  // link caps its flow at 3, total 30 > 25, so the client is the bottleneck.
  Simulation sim;
  FlowNetwork net(sim);
  auto client = net.add_resource(25.0);
  std::vector<Time> done(10, -1);
  for (int i = 0; i < 10; ++i) {
    auto server = net.add_resource(3.0);
    net.start_flow(30.0, {server, client},
                   [&done, i](Time t) { done[i] = t; });
  }
  sim.run();
  for (Time t : done) EXPECT_NEAR(t, 12.0, 1e-6);
}

}  // namespace
}  // namespace carousel::sim
