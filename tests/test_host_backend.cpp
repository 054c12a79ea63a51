// Conformance and property tests of the real multicore host backend
// (`device::HostParallelEngine`) behind the `device::Engine` seam:
//
//  * executor properties — launches cover every index exactly once on real
//    threads, balanced launches honour the edge-balanced partition, the
//    parallel exclusive scan matches the serial one (with `host_grain = 1`
//    so even tiny grids genuinely fan out onto the pool);
//  * native-time accounting — host streams measure wall clock and charge
//    no model time; sim streams do the reverse; engine stats fold both;
//  * backend parity — every device solver produces reference-maximum
//    cardinalities on both backends over randomized generator instances.
//
// The concurrent-stream tests are written to be meaningful under TSan:
// several host threads drive streams of one shared host engine at once.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "device/device.hpp"
#include "device/scan.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"

namespace bpm {
namespace {

using device::Backend;
using device::Device;
using device::EngineDescriptor;
using device::ExecMode;
using device::HostParallelEngine;
using graph::BipartiteGraph;
namespace gen = graph::gen;

// A host engine whose serial cutoff is disabled: every launch, however
// tiny, is dispatched onto the pool — the configuration the executor
// properties (and TSan) want to exercise.
std::shared_ptr<HostParallelEngine> fanout_engine(unsigned threads) {
  return std::make_shared<HostParallelEngine>(EngineDescriptor{
      .mode = ExecMode::kConcurrent, .threads = threads, .host_grain = 1});
}

// ------------------------------------------------------- descriptors ----

TEST(HostBackend, ParseAndNameRoundTrip) {
  EXPECT_EQ(device::parse_backend("sim"), Backend::kSim);
  EXPECT_EQ(device::parse_backend("host"), Backend::kHost);
  EXPECT_THROW((void)device::parse_backend("cuda"), std::invalid_argument);
  EXPECT_EQ(device::backend_name(Backend::kSim), "sim");
  EXPECT_EQ(device::backend_name(Backend::kHost), "host");
}

TEST(HostBackend, DescriptorSummariesNameTheBackend) {
  HostParallelEngine host(3);
  EXPECT_EQ(host.backend(), Backend::kHost);
  EXPECT_EQ(host.descriptor().summary(), "host(workers=3)");
  // Both backends resolve `workers` to the actual pool size.
  EXPECT_EQ(host.descriptor().workers, 3);
  device::Engine pooled_sim(EngineDescriptor{.backend = Backend::kSim,
                                             .threads = 2});
  EXPECT_EQ(pooled_sim.descriptor().summary(), "sim(workers=2)");

  device::Engine sim(ExecMode::kSequential, 2);
  // The legacy ctor follows the process default; pin expectations to it.
  // A sequential engine has no pool, so it runs on one worker.
  if (sim.backend() == Backend::kSim)
    EXPECT_EQ(sim.descriptor().summary(), "sim(workers=1,seq)");
  else
    EXPECT_EQ(sim.descriptor().summary(), "host(workers=1,seq)");

  // The descriptor ctor forces the backend even if the caller forgot it.
  HostParallelEngine forced(EngineDescriptor{.backend = Backend::kSim});
  EXPECT_EQ(forced.backend(), Backend::kHost);
}

TEST(HostBackend, ExplicitBackendOverridesTheProcessDefault) {
  // Whatever BPM_DEVICE_BACKEND says, an explicit DeviceOptions backend
  // wins — the sim pin is what keeps model-validation tests meaningful
  // when CI reruns the suites under the host default.
  Device sim({.backend = Backend::kSim, .num_threads = 2});
  sim.launch_accounted(100, [](std::int64_t) -> std::int64_t { return 3; });
  EXPECT_GT(sim.modeled_ms(), 0.0);
  EXPECT_EQ(sim.engine()->backend(), Backend::kSim);

  Device host({.backend = Backend::kHost, .num_threads = 2});
  host.launch_accounted(100, [](std::int64_t) -> std::int64_t { return 3; });
  EXPECT_EQ(host.modeled_ms(), 0.0);
  EXPECT_EQ(host.engine()->backend(), Backend::kHost);
}

// ---------------------------------------------------------- executor ----

TEST(HostBackend, LaunchCoversEveryIndexExactlyOnce) {
  const auto engine = fanout_engine(4);
  Device dev(engine);
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

TEST(HostBackend, BalancedLaunchCoversEveryItemOnSkewedWork) {
  // A hub block up front — the regime the edge-balanced partition exists
  // for.  Every item must still run exactly once.
  std::vector<std::int64_t> work(2000, 1);
  for (std::size_t i = 0; i < 40; ++i) work[i] = 500;
  const auto engine = fanout_engine(4);
  Device dev(engine);
  const std::vector<std::int64_t> offsets =
      device::balanced_offsets(dev, work);
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

TEST(HostBackend, ExclusiveScanMatchesSerialReference) {
  const auto engine = fanout_engine(4);
  Device dev(engine);
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
    EXPECT_EQ(device::exclusive_scan(dev, in, out), run) << "n=" << n;
    EXPECT_EQ(out, expect) << "n=" << n;
    // Aliasing in == out is part of the contract.
    std::vector<std::int64_t> aliased = in;
    EXPECT_EQ(device::exclusive_scan(dev, aliased, aliased), run);
    EXPECT_EQ(aliased, expect) << "aliased n=" << n;
  }
}

TEST(HostBackend, BalancedPartitionPropertiesOnHostScannedOffsets) {
  // Offsets built by the host executor's own parallel scan, partitioned
  // into every slot count the launch path might pick: bounds must start
  // at 0, end at n, stay monotone, and every chunk's work must be within
  // one maximum item work of the ideal.
  std::mt19937 rng(23);
  std::vector<std::int64_t> work(3000);
  std::int64_t max_item = 0;
  for (auto& v : work) {
    v = static_cast<std::int64_t>(rng() % 50);
    if (rng() % 97 == 0) v = 2000;  // occasional huge item
    max_item = std::max(max_item, v);
  }
  const auto engine = fanout_engine(4);
  Device dev(engine);
  const std::vector<std::int64_t> offsets =
      device::balanced_offsets(dev, work);
  const std::int64_t total = offsets.back();
  for (const std::int64_t parts : {1, 2, 3, 7, 16, 64}) {
    const std::vector<std::int64_t> bounds =
        device::balanced_partition(offsets, parts);
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

// -------------------------------------------------- time accounting ----

TEST(HostBackend, HostStreamsMeasureWallAndChargeNoModel) {
  const auto engine = fanout_engine(2);
  {
    Device dev(engine);
    dev.launch(50'000, [](std::int64_t) {});
    dev.launch_accounted(50'000,
                         [](std::int64_t) -> std::int64_t { return 5; });
    EXPECT_EQ(dev.modeled_ms(), 0.0);  // the model is never consulted
    EXPECT_GT(dev.native_ms(), 0.0);   // measured in-kernel wall time
  }
  // The retired stream folds its native time into the engine's odometer.
  const device::EngineStats stats = engine->stats();
  EXPECT_EQ(stats.streams_retired, 1u);
  EXPECT_EQ(stats.launches, 2u);
  EXPECT_EQ(stats.modeled_ms, 0.0);
  EXPECT_GT(stats.native_ms, 0.0);
}

TEST(HostBackend, SimStreamsReportModeledTimeAsNative) {
  Device dev({.backend = Backend::kSim, .num_threads = 2});
  dev.launch_accounted(1000, [](std::int64_t) -> std::int64_t { return 2; });
  EXPECT_GT(dev.modeled_ms(), 0.0);
  EXPECT_DOUBLE_EQ(dev.native_ms(), dev.modeled_ms());
}

// ------------------------------------------------ concurrent streams ----

TEST(HostBackend, ConcurrentStreamsShareOneHostEngine) {
  // TSan scenario: several host threads each drive their own stream of
  // one shared host engine; every launch's writes must be complete and
  // the engine's odometer must account every stream.
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
  const device::EngineStats stats = engine->stats();
  EXPECT_EQ(stats.streams_retired, static_cast<std::uint64_t>(kStreams));
  EXPECT_EQ(stats.launches,
            static_cast<std::uint64_t>(kStreams) * kLaunches);
}

// ------------------------------------------------------------ parity ----

std::vector<std::pair<std::string, BipartiteGraph>> parity_suite() {
  std::vector<std::pair<std::string, BipartiteGraph>> suite;
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

TEST(HostBackendParity, DeviceSolversMatchReferenceOnBothBackends) {
  // The conformance gate: every device solver must reach the reference
  // maximum cardinality on the host backend exactly as it does on the
  // sim — the backends may only differ in *cost*, never in results.
  const auto suite = parity_suite();
  for (const char* name : {"g-pr", "g-pr-wb", "g-hk", "p-dbfs"}) {
    for (const auto& [gname, g] : suite) {
      const graph::index_t reference =
          matching::reference_maximum_cardinality(g);
      const matching::Matching init = matching::cheap_matching(g);
      for (const Backend backend : {Backend::kSim, Backend::kHost}) {
        auto solver = SolverRegistry::instance().create(name);
        ASSERT_NE(solver, nullptr) << name;
        Device dev({.backend = backend, .num_threads = 4});
        const SolveContext ctx{.device = &dev};
        const SolveResult r = solver->run(ctx, g, init);
        EXPECT_EQ(r.stats.cardinality, reference)
            << name << " on " << gname << " via "
            << device::backend_name(backend);
      }
    }
  }
}

TEST(HostBackendParity, SequentialHostModeStaysDeterministicAndCorrect) {
  // kSequential on the host backend is the debugging configuration: one
  // worker, indices in order, still measured wall time.
  const BipartiteGraph g = gen::skewed_hubs(120, 150, 4, 0.3, 2.0, 19);
  const graph::index_t reference = matching::reference_maximum_cardinality(g);
  auto solver = SolverRegistry::instance().create("g-pr");
  Device dev({.backend = Backend::kHost,
              .mode = ExecMode::kSequential,
              .num_threads = 1});
  const SolveContext ctx{.device = &dev};
  const SolveResult r =
      solver->run(ctx, g, matching::cheap_matching(g));
  EXPECT_EQ(r.stats.cardinality, reference);
  EXPECT_EQ(dev.modeled_ms(), 0.0);
}

}  // namespace
}  // namespace bpm
