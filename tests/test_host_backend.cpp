// Conformance and property tests of the device engine's parallel
// executor, the host worker pool every launch runs on:
//
//  * executor properties: launches cover every index exactly once on real
//    threads, balanced launches honour the edge-balanced partition, and
//    the parallel exclusive scan matches the serial one (at `grain = 1`, so
//    even tiny grids genuinely fan out onto the pool);
//  * concurrent streams: several host threads drive streams of one shared
//    engine at once, which is what TSan checks here;
//  * solver conformance: every device solver reaches the reference maximum
//    cardinality whether its launches fan out or run inline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "device/device.hpp"
#include "device/scan.hpp"
#include "fanout_device.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"

namespace bpm::device {
namespace {

using test_support::fanout_device;
using test_support::fanout_engine;

// ------------------------------------------------------------- executor ----
// Executor properties with the serial cutoff off, so even small grids
// genuinely fan out onto the pool.

TEST(Executor, LaunchCoversEveryIndexExactlyOnce) {
  Device dev = fanout_device(4);
  constexpr std::int64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  dev.launch(kN, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                std::memory_order_relaxed);
  });
  for (std::int64_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  EXPECT_EQ(dev.launches(), 1u);
}

TEST(Executor, BalancedLaunchCoversEveryItemOnSkewedWork) {
  // A hub block up front — the regime the edge-balanced partition exists
  // for.  Every item must still run exactly once.
  std::vector<std::int64_t> work(2000, 1);
  for (std::size_t i = 0; i < 40; ++i) work[i] = 500;
  Device dev = fanout_device(4);
  const std::vector<std::int64_t> offsets = balanced_offsets(dev, work);
  ASSERT_EQ(offsets.size(), work.size() + 1);
  ASSERT_EQ(offsets.front(), 0);

  std::vector<std::atomic<int>> hits(work.size());
  dev.launch_balanced(offsets, [&](std::int64_t i) -> std::int64_t {
    hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                std::memory_order_relaxed);
    return work[static_cast<std::size_t>(i)];
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST(Executor, ExclusiveScanMatchesSerialReference) {
  Device dev = fanout_device(4);
  std::mt19937 rng(17);
  for (const std::size_t n : {0UL, 1UL, 7UL, 100UL, 4097UL, 50'000UL}) {
    std::vector<std::int64_t> in(n);
    for (auto& v : in) v = static_cast<std::int64_t>(rng() % 9);
    std::vector<std::int64_t> expect(n);
    std::int64_t run = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expect[i] = run;
      run += in[i];
    }
    std::vector<std::int64_t> out(n);
    EXPECT_EQ(exclusive_scan(dev, in, out), run) << "n=" << n;
    EXPECT_EQ(out, expect) << "n=" << n;
    // Aliasing in == out is part of the contract.
    std::vector<std::int64_t> aliased = in;
    EXPECT_EQ(exclusive_scan(dev, aliased, aliased), run);
    EXPECT_EQ(aliased, expect) << "aliased n=" << n;
  }
}

TEST(Executor, BalancedPartitionPropertiesOnScannedOffsets) {
  // Offsets built by the executor's own parallel scan, partitioned into
  // every slot count the launch path might pick: bounds must start at 0,
  // end at n, stay monotone, and every chunk's work must be within one
  // maximum item work of the ideal.
  std::mt19937 rng(23);
  std::vector<std::int64_t> work(3000);
  std::int64_t max_item = 0;
  for (auto& v : work) {
    v = static_cast<std::int64_t>(rng() % 50);
    if (rng() % 97 == 0) v = 2000;  // occasional huge item
    max_item = std::max(max_item, v);
  }
  Device dev = fanout_device(4);
  const std::vector<std::int64_t> offsets = balanced_offsets(dev, work);
  const std::int64_t total = offsets.back();
  for (const std::int64_t parts : {1, 2, 3, 7, 16, 64}) {
    const std::vector<std::int64_t> bounds = balanced_partition(offsets, parts);
    ASSERT_EQ(static_cast<std::int64_t>(bounds.size()), parts + 1);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), static_cast<std::int64_t>(work.size()));
    const std::int64_t ideal = total / parts + (total % parts != 0);
    for (std::int64_t p = 0; p < parts; ++p) {
      ASSERT_LE(bounds[static_cast<std::size_t>(p)],
                bounds[static_cast<std::size_t>(p) + 1]);
      const std::int64_t chunk =
          offsets[static_cast<std::size_t>(
              bounds[static_cast<std::size_t>(p) + 1])] -
          offsets[static_cast<std::size_t>(
              bounds[static_cast<std::size_t>(p)])];
      EXPECT_LE(chunk, ideal + max_item) << "parts=" << parts << " p=" << p;
    }
  }
}

TEST(Executor, ConcurrentStreamsShareOneEngine) {
  // TSan scenario: several host threads each drive their own stream of
  // one shared engine; every launch's writes must be complete and the
  // engine's odometer must account every stream.
  const auto engine = fanout_engine(3);
  constexpr int kStreams = 6, kLaunches = 20;
  constexpr std::int64_t kN = 512;
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kStreams);
  for (int s = 0; s < kStreams; ++s)
    threads.emplace_back([&] {
      Device dev(engine);
      for (int l = 0; l < kLaunches; ++l) {
        std::vector<std::int64_t> marks(kN, 0);
        dev.launch(kN, [&](std::int64_t i) {
          marks[static_cast<std::size_t>(i)] = i + 1;
        });
        std::int64_t sum = 0;  // the launch barrier publishes the writes
        for (const std::int64_t m : marks) sum += m;
        total.fetch_add(sum == kN * (kN + 1) / 2 ? 1 : -1000000);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), kStreams * kLaunches);
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.streams_retired, static_cast<std::uint64_t>(kStreams));
  EXPECT_EQ(stats.launches, static_cast<std::uint64_t>(kStreams) * kLaunches);
}

// ---------------------------------------------------------- conformance ----

std::vector<std::pair<std::string, graph::BipartiteGraph>> conformance_suite() {
  namespace gen = graph::gen;
  std::vector<std::pair<std::string, graph::BipartiteGraph>> suite;
  suite.emplace_back("uniform", gen::random_uniform(150, 150, 600, 3));
  suite.emplace_back("power_law", gen::chung_lu(220, 220, 4.0, 2.3, 5));
  suite.emplace_back("hubs", gen::skewed_hubs(170, 200, 4, 0.3, 2.5, 7));
  suite.emplace_back("hub_block",
                     gen::skewed_hubs(180, 200, 24, 0.15, 2.0, 9, false));
  suite.emplace_back("mesh", gen::trace_mesh(60, 3, 0.06, 11));
  suite.emplace_back("planted", gen::planted_perfect(90, 1.5, 13));
  suite.emplace_back("star", gen::star(50));
  suite.emplace_back("empty", gen::empty_graph(20, 20));
  return suite;
}

TEST(Conformance, DeviceSolversMatchReferenceAtEveryGrain) {
  // Every device solver reaches the reference maximum cardinality whether
  // its launches all fan out (grain 1) or mostly run inline (the
  // production grain): the grain may change cost, never results.
  for (const char* name : {"g-pr", "g-pr-wb", "g-hk", "p-dbfs"}) {
    for (const auto& [gname, g] : conformance_suite()) {
      const graph::index_t reference =
          matching::reference_maximum_cardinality(g);
      const matching::Matching init = matching::cheap_matching(g);
      for (const bool fanout : {true, false}) {
        auto solver = SolverRegistry::instance().create(name);
        ASSERT_NE(solver, nullptr) << name;
        Device dev = fanout ? fanout_device(4) : Device({.num_threads = 4});
        const SolveContext ctx{.device = &dev};
        const SolveResult r = solver->run(ctx, g, init);
        EXPECT_EQ(r.stats.cardinality, reference)
            << name << " on " << gname << (fanout ? " at grain 1" : "");
      }
    }
  }
}

TEST(Conformance, SequentialModeStaysCorrectAndReportsBothTimes) {
  // One thread is the debugging configuration: every launch inline,
  // indices in order, still measured and still modeled.
  const graph::BipartiteGraph g =
      graph::gen::skewed_hubs(120, 150, 4, 0.3, 2.0, 19);
  const graph::index_t reference = matching::reference_maximum_cardinality(g);
  auto solver = SolverRegistry::instance().create("g-pr");
  Device dev({.num_threads = 1});
  const SolveContext ctx{.device = &dev};
  const SolveResult r = solver->run(ctx, g, matching::cheap_matching(g));
  EXPECT_EQ(r.stats.cardinality, reference);
  EXPECT_GT(dev.modeled_ms(), 0.0);
  EXPECT_GT(dev.native_ms(), 0.0);
}

}  // namespace
}  // namespace bpm::device
