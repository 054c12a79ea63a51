// Unit tests for the global-relabeling policy (GETITERGR) and the device
// time model — small pieces whose constants gate every experiment.

#include <gtest/gtest.h>

#include "core/relabel_policy.hpp"
#include "device/device.hpp"
#include "graph/generators.hpp"

namespace bpm {
namespace {

using gpu::GprOptions;
using gpu::RelabelStrategy;

// --------------------------------------------------------------- policy ----

GprOptions adaptive(double k) {
  GprOptions o;
  o.strategy = RelabelStrategy::kAdaptive;
  o.k = k;
  return o;
}

GprOptions fixed(double k) {
  GprOptions o;
  o.strategy = RelabelStrategy::kFixed;
  o.k = k;
  return o;
}

TEST(RelabelPolicy, FixedAddsK) {
  EXPECT_EQ(gpu::next_global_relabel_loop(fixed(10), /*max_level=*/999, 5), 15);
  EXPECT_EQ(gpu::next_global_relabel_loop(fixed(50), 2, 0), 50);
}

TEST(RelabelPolicy, AdaptiveScalesWithMaxLevel) {
  EXPECT_EQ(gpu::next_global_relabel_loop(adaptive(0.5), 10, 0), 5);
  EXPECT_EQ(gpu::next_global_relabel_loop(adaptive(2.0), 10, 3), 23);
  // Deeper BFS -> longer interval, same k.
  EXPECT_LT(gpu::next_global_relabel_loop(adaptive(0.7), 4, 0),
            gpu::next_global_relabel_loop(adaptive(0.7), 400, 0));
}

TEST(RelabelPolicy, IntervalNeverBelowOne) {
  // k·maxLevel can round to zero; the policy must still make progress.
  EXPECT_EQ(gpu::next_global_relabel_loop(adaptive(0.1), 2, 7), 8);
  EXPECT_EQ(gpu::next_global_relabel_loop(fixed(0.2), 0, 7), 8);
}

TEST(RelabelPolicy, RoundsToNearest) {
  // 0.7 * 5 = 3.5 -> 4 (llround half-up).
  EXPECT_EQ(gpu::next_global_relabel_loop(adaptive(0.7), 5, 0), 4);
  // 0.3 * 5 = 1.5 -> 2.
  EXPECT_EQ(gpu::next_global_relabel_loop(adaptive(0.3), 5, 0), 2);
}

// ----------------------------------------------------------- time model ----

TEST(DeviceModel, ChargesLaunchLatencyPerLaunch) {
  device::Device dev({.num_threads = 1});
  EXPECT_DOUBLE_EQ(dev.modeled_ms(), 0.0);
  dev.launch(0, [](std::int64_t) {});
  const double one_launch = dev.modeled_ms();
  EXPECT_NEAR(one_launch, device::DeviceModel{}.launch_latency_us / 1e3, 1e-9);
  dev.launch(0, [](std::int64_t) {});
  EXPECT_NEAR(dev.modeled_ms(), 2 * one_launch, 1e-9);
}

TEST(DeviceModel, ChargesItems) {
  device::Device dev({.num_threads = 1});
  dev.launch(1'000'000, [](std::int64_t) {});
  const device::DeviceModel m;
  const double want_ms =
      (m.launch_latency_us + 1e6 * m.ns_per_item * 1e-3) / 1e3;
  EXPECT_NEAR(dev.modeled_ms(), want_ms, want_ms * 1e-9);
}

TEST(DeviceModel, ChargesAccountedWork) {
  device::Device dev({.num_threads = 1});
  dev.launch_accounted(10, [](std::int64_t) -> std::int64_t { return 100; });
  const device::DeviceModel m;
  // Pure throughput: the 1000 total work units, however they are spread.
  const double want_ms =
      (m.launch_latency_us + (10 * m.ns_per_item + 1000 * m.ns_per_work) * 1e-3) /
      1e3;
  EXPECT_NEAR(dev.modeled_ms(), want_ms, want_ms * 1e-9);
}

TEST(DeviceModel, ChargeWorkWithoutLaunch) {
  device::Device dev({.num_threads = 1});
  dev.charge_work(1000);
  const device::DeviceModel m;
  EXPECT_NEAR(dev.modeled_ms(), 1000 * m.ns_per_work * 1e-6, 1e-12);
  EXPECT_EQ(dev.launches(), 0u);  // no launch was counted
}

TEST(DeviceModel, AccountedWorkIdenticalAcrossModes) {
  // The work tally is algorithmic, so one thread and four must model
  // identically for a deterministic kernel.
  auto run = [](unsigned threads) {
    device::Device dev({.num_threads = threads});
    dev.launch_accounted(1000, [](std::int64_t i) -> std::int64_t {
      return i % 7;
    });
    return dev.modeled_ms();
  };
  EXPECT_DOUBLE_EQ(run(1), run(4));
}

TEST(DeviceModel, DiffChargesOnlyTheLaunchesBetween) {
  // The accumulator only grows; `Solver::run` charges a run by diffing it.
  device::Device dev({.num_threads = 1});
  dev.launch(100, [](std::int64_t) {});
  const double one_launch = dev.modeled_ms();
  EXPECT_GT(one_launch, 0.0);
  const double before = dev.modeled_ms();
  dev.launch(100, [](std::int64_t) {});
  EXPECT_NEAR(dev.modeled_ms() - before, one_launch, 1e-12);
}

TEST(DeviceModel, HugetraceAnchorFromDesignDoc) {
  // Device-model sanity anchor: ~3000 level kernels over 4.6M rows model
  // to ≈ 2.8 s — within 20% of the paper's 2.71 s for hugetrace-00000.
  const device::DeviceModel m;
  const double per_level_us = m.launch_latency_us + 4.6e6 * m.ns_per_item * 1e-3;
  const double total_s = 3000 * per_level_us / 1e6;
  EXPECT_NEAR(total_s, 2.71, 0.55);
}

}  // namespace
}  // namespace bpm
