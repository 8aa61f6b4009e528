// The benchmark's own tests: the determinism pin over every workload, the
// traced mode's output contract, and reconciliation of daemon codec
// counters against fabric delivery counters on a small farm.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "farm/farm.h"
#include "lifecycle.h"

namespace gs::e2e {
namespace {

std::map<std::string, double> by_name(const std::vector<Metric>& metrics) {
  std::map<std::string, double> out;
  for (const Metric& m : metrics) out[m.name] = m.value;
  return out;
}

// Two same-seed runs of the shortest life cycle must agree exactly on every
// simulated-time outcome, including the 3-shard deployment.
class Determinism : public ::testing::TestWithParam<Workload> {};

TEST_P(Determinism, SameSeedRepeatsExactly) {
  RunOptions opts;
  opts.workload = GetParam();
  opts.seed = 5;
  opts.seconds = 0;
  const RunResult a = run_workload(opts);
  const RunResult b = run_workload(opts);
  ASSERT_TRUE(a.correct()) << a.errors.front();
  EXPECT_EQ(a.failed, 0u) << a.misses.front();
  EXPECT_GT(a.attempted, 0u);
  EXPECT_EQ(a.digest, b.digest);
  const auto ma = by_name(a.metrics);
  const auto mb = by_name(b.metrics);
  for (const char* sim_metric :
       {"stable_sim_s", "wire_frames_per_adapter_s", "detect_p50_sim_ms",
        "detect_p90_sim_ms", "recover_p50_sim_ms", "recover_p90_sim_ms"}) {
    ASSERT_TRUE(ma.count(sim_metric)) << sim_metric;
    EXPECT_GT(ma.at(sim_metric), 0) << sim_metric;
    EXPECT_EQ(ma.at(sim_metric), mb.at(sim_metric)) << sim_metric;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Determinism,
                         ::testing::Values(Workload::kBoot, Workload::kSteady,
                                           Workload::kChurn,
                                           Workload::kShardedSteady),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(Traced, EmitsEveryLayerMetricSpansAndOverhead) {
  RunOptions opts;
  opts.workload = Workload::kSteady;
  opts.seed = 3;
  opts.traced = true;
  const RunResult r = run_workload(opts);
  ASSERT_TRUE(r.correct()) << r.errors.front();  // includes traced == untraced
  const auto m = by_name(r.metrics);
  EXPECT_EQ(m.size(), r.metrics.size()) << "duplicate metric names";
  EXPECT_EQ(m.size(), 44u);
  EXPECT_GT(m.at("obs.trace_overhead"), 0);
  EXPECT_GT(m.at("sim.events"), 0);
  EXPECT_GT(m.at("wire.decoded.heartbeat"), m.at("wire.decoded.beacon"));
  EXPECT_GT(m.at("central.failures_committed"), 0);
  ASSERT_FALSE(r.spans.empty());
  std::set<std::string> names;
  for (const Span& s : r.spans) {
    names.insert(s.name);
    EXPECT_LE(s.start_s, s.end_s);
    EXPECT_LT(s.parent, s.id);
    EXPECT_FALSE(s.counters.empty());
  }
  for (const char* call : {"build", "start", "run_until", "fail_node",
                           "recover_node", "move_node", "check"})
    EXPECT_TRUE(names.count(call)) << call;
}

// --- Counter reconciliation ----------------------------------------------

struct Totals {
  std::uint64_t delivered = 0;  // fabric: frames handed to a receiver NIC
  std::uint64_t handled = 0;    // daemons: frames decoded or dropped
};

Totals totals(farm::Farm& farm) {
  Totals t;
  for (util::VlanId vlan : farm.vlans())
    t.delivered += farm.fabric().load(vlan).frames_delivered;
  for (std::size_t i = 0; i < farm.node_count(); ++i) {
    const proto::WireStats& ws = farm.daemon(i).wire_stats();
    t.handled += ws.total_decoded() + ws.total_dropped();
  }
  return t;
}

// Without start skew or processing delay every delivered frame is handled
// in the same simulated instant, so the two layers agree exactly.
TEST(Reconcile, DeliveredEqualsDecodedPlusDroppedWithoutDelays) {
  sim::Simulator sim;
  proto::Params params;
  params.start_skew_max = 0;
  params.proc_delay_mean = 0;
  farm::Farm farm(sim, farm::FarmSpec::hierarchical(2, 4), params, 11);
  farm.start();
  sim.run_until(sim::seconds(60));
  ASSERT_TRUE(farm.converged());
  const Totals t = totals(farm);
  std::printf("delivered=%llu handled=%llu residual=0 expected\n",
              static_cast<unsigned long long>(t.delivered),
              static_cast<unsigned long long>(t.handled));
  EXPECT_GT(t.delivered, 0u);
  EXPECT_EQ(t.delivered, t.handled);
}

// With the paper's delay model the residual (delivered - handled) is made
// of exactly three things, each bounded by deliveries in a known window:
//  * frames that reached a NIC before its daemon finished the start-up
//    skew and installed its receive handler (first start_skew_max);
//  * frames whose processing delay had not elapsed at the snapshot (the
//    delay is exponential with a 2 ms mean; 50 ms covers it);
//  * frames delivered to a node just before it halted, whose delayed
//    dispatch then finds the daemon halted.
TEST(Reconcile, ResidualIsExplainedByTheDelayModel) {
  sim::Simulator sim;
  const proto::Params params;
  farm::Farm farm(sim, farm::FarmSpec::hierarchical(2, 4), params, 11);
  farm.start();
  const sim::SimTime skew = params.start_skew_max;
  const sim::SimDuration window = sim::milliseconds(50);
  sim.run_until(skew);
  const std::uint64_t during_skew = totals(farm).delivered;

  sim.run_until(sim::seconds(40) - window);
  const std::uint64_t before_fail = totals(farm).delivered;
  sim.run_until(sim::seconds(40));
  const std::uint64_t at_fail = totals(farm).delivered;
  const std::size_t victim = farm.nodes_with_role(farm::NodeRole::kGeneric)[1];
  farm.fail_node(victim);

  sim.run_until(sim::seconds(70) - window);
  const std::uint64_t before_end = totals(farm).delivered;
  sim.run_until(sim::seconds(70));
  const Totals end = totals(farm);
  ASSERT_GE(end.delivered, end.handled);
  const std::uint64_t residual = end.delivered - end.handled;
  const std::uint64_t bound = during_skew + (at_fail - before_fail) +
                              (end.delivered - before_end);
  std::printf(
      "delivered=%llu handled=%llu residual=%llu <= bound=%llu "
      "(skew %llu + before halt %llu + in flight at end %llu)\n",
      static_cast<unsigned long long>(end.delivered),
      static_cast<unsigned long long>(end.handled),
      static_cast<unsigned long long>(residual),
      static_cast<unsigned long long>(bound),
      static_cast<unsigned long long>(during_skew),
      static_cast<unsigned long long>(at_fail - before_fail),
      static_cast<unsigned long long>(end.delivered - before_end));
  EXPECT_LE(residual, bound);
}

}  // namespace
}  // namespace gs::e2e
