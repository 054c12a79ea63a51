#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "device/device.hpp"
#include "device/mem.hpp"
#include "device/scan.hpp"
#include "device/thread_pool.hpp"
#include "fanout_device.hpp"

namespace bpm::device {
namespace {

using test_support::fanout_device;
using test_support::fanout_engine;

// ------------------------------------------------------------ ThreadPool ----

TEST(ThreadPool, RunsJobOnEveryWorker) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run_tasks(pool.size(), [&](unsigned id) { hits[id].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int i = 0; i < 200; ++i)
    pool.run_tasks(pool.size(), [&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 600);
}

TEST(ThreadPool, JoinPublishesWorkerWrites) {
  ThreadPool pool(4);
  std::vector<int> data(4, 0);  // plain ints: join must order the writes
  pool.run_tasks(pool.size(),
                 [&](unsigned id) { data[id] = static_cast<int>(id) + 1; });
  EXPECT_EQ(data, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ThreadPool, DefaultSizeIsHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, RunTasksCoversEverySlotExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(17);
  pool.run_tasks(17, [&](unsigned slot) { hits[slot].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentBatchesFromManyStreamsAllComplete) {
  // The stream scenario: several host threads submit batches to one pool
  // at once; every batch's slots must run exactly once and every caller
  // must see its own batch's writes after the join.
  ThreadPool pool(4);
  constexpr int kStreams = 6, kLaunches = 50, kSlots = 8;
  std::vector<std::thread> streams;
  std::vector<std::atomic<int>> totals(kStreams);
  for (int s = 0; s < kStreams; ++s)
    streams.emplace_back([&, s] {
      for (int l = 0; l < kLaunches; ++l) {
        std::vector<int> hits(kSlots, 0);  // plain ints: join orders writes
        pool.run_tasks(kSlots, [&](unsigned slot) { hits[slot] += 1; });
        int sum = 0;
        for (int h : hits) sum += h;
        totals[s].fetch_add(sum);
      }
    });
  for (auto& t : streams) t.join();
  for (auto& total : totals) EXPECT_EQ(total.load(), kLaunches * kSlots);
}

// ---------------------------------------------------------------- Device ----

/// Parameterised on worker threads: 1 runs every launch inline in index
/// order, 4 fans every launch out (`fanout_device`).
class DeviceModes : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeviceModes, LaunchCoversEveryIndexExactlyOnce) {
  Device dev = fanout_device(GetParam());
  std::vector<std::atomic<int>> hits(1000);
  dev.launch(1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(DeviceModes, LaunchCountsLaunches) {
  Device dev = fanout_device(GetParam());
  EXPECT_EQ(dev.launches(), 0u);
  dev.launch(10, [](std::int64_t) {});
  dev.launch(0, [](std::int64_t) {});  // empty grids still count
  EXPECT_EQ(dev.launches(), 2u);
  // The counter only grows: a caller diffs it around the launches it owns.
  const std::uint64_t before = dev.launches();
  dev.launch(5, [](std::int64_t) {});
  EXPECT_EQ(dev.launches() - before, 1u);
}

TEST_P(DeviceModes, LaunchChunkedPartitionsRange) {
  Device dev = fanout_device(GetParam());
  std::vector<std::atomic<int>> hits(100);
  dev.launch_chunked(100, [&](unsigned, std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i)
      hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(DeviceModes, LaunchBarrierPublishesWrites) {
  Device dev = fanout_device(GetParam());
  std::vector<int> data(257, 0);
  dev.launch(257, [&](std::int64_t i) { data[static_cast<std::size_t>(i)] = 1; });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 257);
}

TEST_P(DeviceModes, SmallGridsWithManyWorkers) {
  // n < workers: chunking must not duplicate or drop indices.
  Device dev = fanout_device(GetParam());
  std::vector<std::atomic<int>> hits(3);
  dev.launch(3, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeviceModes,
                         ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return param_info.param == 1 ? "Sequential"
                                                        : "Concurrent";
                         });

TEST(Device, SequentialModeRunsInOrder) {
  Device dev({.num_threads = 1});
  std::vector<std::int64_t> order;
  dev.launch(10, [&](std::int64_t i) { order.push_back(i); });
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// -------------------------------------------------------------- streams ----

TEST(Device, StreamsShareOneEngineButKeepTheirOwnStats) {
  const auto engine = fanout_engine(4);
  Device a(engine), b(engine);
  EXPECT_EQ(a.engine().get(), b.engine().get());
  EXPECT_EQ(a.num_workers(), 4u);

  a.launch(100, [](std::int64_t) {});
  a.launch(100, [](std::int64_t) {});
  b.launch_accounted(100, [](std::int64_t) -> std::int64_t { return 3; });
  EXPECT_EQ(a.launches(), 2u);
  EXPECT_EQ(b.launches(), 1u);
  // Each stream models only its own launches: a has 2 latency + item
  // terms and no work; b has 1 plus its 300 work units.
  const DeviceModel m;
  const double item_ms = 100 * m.ns_per_item * 1e-6;
  EXPECT_NEAR(a.modeled_ms(), 2 * (m.launch_latency_us / 1e3 + item_ms), 1e-9);
  EXPECT_NEAR(b.modeled_ms(),
              m.launch_latency_us / 1e3 + item_ms + 300 * m.ns_per_work * 1e-6,
              1e-9);
}

TEST(Device, ChunkedLaunchChargesLatencyAndItems) {
  // A chunked launch costs what a plain launch of the same grid costs,
  // the empty grid included.
  const auto engine = fanout_engine(4);
  Device plain(engine), chunked(engine);
  for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1000}}) {
    plain.launch(n, [](std::int64_t) {});
    chunked.launch_chunked(n, [](unsigned, std::int64_t, std::int64_t) {});
  }
  EXPECT_EQ(chunked.launches(), 2u);
  EXPECT_GT(chunked.modeled_ms(), 0.0);
  EXPECT_DOUBLE_EQ(chunked.modeled_ms(), plain.modeled_ms());
}

TEST(Device, ConcurrentStreamsRunConcurrentLaunchesCorrectly) {
  // N streams on one engine, each launching from its own host thread —
  // the pipeline's execution shape.  Every stream's grids must each cover
  // their index space exactly once and count their own launches.
  const auto engine = fanout_engine(4);
  constexpr int kStreams = 4, kLaunches = 25;
  constexpr std::int64_t kGrid = 512;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> launches(kStreams, 0);
  std::vector<std::int64_t> covered(kStreams, 0);
  for (int s = 0; s < kStreams; ++s)
    threads.emplace_back([&, s] {
      Device stream(engine);
      std::vector<std::atomic<int>> hits(kGrid);
      for (int l = 0; l < kLaunches; ++l) {
        for (auto& h : hits) h.store(0);
        stream.launch(kGrid, [&](std::int64_t i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        });
        for (auto& h : hits) covered[static_cast<std::size_t>(s)] += h.load();
      }
      launches[static_cast<std::size_t>(s)] = stream.launches();
    });
  for (auto& t : threads) t.join();
  for (int s = 0; s < kStreams; ++s) {
    EXPECT_EQ(launches[static_cast<std::size_t>(s)],
              static_cast<std::uint64_t>(kLaunches));
    EXPECT_EQ(covered[static_cast<std::size_t>(s)], kLaunches * kGrid);
  }
}

TEST(Device, StreamsOnASequentialEngineStayOrdered) {
  const auto engine = std::make_shared<Engine>(1);
  Device stream(engine);
  EXPECT_EQ(stream.num_workers(), 1u);
  std::vector<std::int64_t> order;
  stream.launch(5, [&](std::int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(Engine, DescriptorSummariesNameTheWorkers) {
  const Engine pooled(3);
  EXPECT_EQ(pooled.descriptor().summary(), "host(workers=3)");
  // `workers` is resolved to the actual pool size.
  EXPECT_EQ(pooled.descriptor().workers, 3);
  // A one-thread engine builds no pool: it runs every launch on the
  // caller.
  const Engine one(1);
  EXPECT_EQ(one.descriptor().summary(), "host(workers=1)");
  // 0 resolves to hardware concurrency.
  EXPECT_GE(Engine(0).descriptor().workers, 1);
}

// ------------------------------------------------------- time accounting ----

// Deterministic per-item work: small everywhere, with a hub every 97 items.
std::int64_t item_work(std::int64_t i) {
  return i % 7 + (i % 97 == 0 ? 500 : 0);
}

struct Charged {
  double modeled_ms = 0.0;
  double native_ms = 0.0;
  std::uint64_t launches = 0;
};

// Runs every launch kind once at a grid that fans out even at the
// production grain, and once at a tiny one, on a stream of `engine`; then
// checks that the retired stream's totals land in the engine's odometer.
Charged charge_every_launch_kind(const std::shared_ptr<Engine>& engine) {
  Charged c;
  {
    Device dev(engine);
    for (const std::int64_t n : {std::int64_t{40'000}, std::int64_t{100}}) {
      std::vector<std::int64_t> work(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i)
        work[static_cast<std::size_t>(i)] = item_work(i);
      std::vector<std::int64_t> offsets(work.size() + 1, 0);
      std::partial_sum(work.begin(), work.end(), offsets.begin() + 1);
      std::atomic<std::int64_t> sink{0};

      dev.launch(n, [&](std::int64_t i) {
        sink.fetch_add(item_work(i), std::memory_order_relaxed);
      });
      dev.launch_accounted(n, [](std::int64_t i) { return item_work(i); });
      dev.launch_balanced(offsets, [](std::int64_t i) { return item_work(i); });
      std::vector<PaddedCount> partial(dev.num_workers());
      dev.launch_chunked(n, [&](unsigned w, std::int64_t begin,
                                std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i)
          partial[w].value += item_work(i);
      });
      std::int64_t chunked_work = 0;
      for (const PaddedCount& p : partial) chunked_work += p.value;
      dev.charge_work(chunked_work);
      EXPECT_EQ(sink.load(), offsets.back());
    }
    c = {dev.modeled_ms(), dev.native_ms(), dev.launches()};
  }
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.streams_retired, 1u);
  EXPECT_EQ(stats.launches, c.launches);
  EXPECT_DOUBLE_EQ(stats.modeled_ms, c.modeled_ms);
  EXPECT_DOUBLE_EQ(stats.native_ms, c.native_ms);
  return c;
}

TEST(TimeAccounting, TheModelIgnoresHowALaunchFansOut) {
  // The model is a pure function of each launch's (n, work): a one-thread
  // engine, a fully fanned-out one and one at the production grain charge
  // the same modeled time, and each measures its own wall time.
  const std::vector<std::pair<std::string, std::shared_ptr<Engine>>> engines{
      {"one thread", std::make_shared<Engine>(1)},
      {"grain 1", fanout_engine(4)},
      {"default grain", std::make_shared<Engine>(4)}};
  std::vector<Charged> charged;
  for (const auto& [name, engine] : engines) {
    SCOPED_TRACE(name);
    charged.push_back(charge_every_launch_kind(engine));
    EXPECT_GT(charged.back().modeled_ms, 0.0);
    EXPECT_GT(charged.back().native_ms, 0.0);
  }
  for (std::size_t e = 1; e < charged.size(); ++e) {
    SCOPED_TRACE(engines[e].first);
    EXPECT_EQ(charged[e].launches, charged[0].launches);
    EXPECT_DOUBLE_EQ(charged[e].modeled_ms, charged[0].modeled_ms);
  }
  EXPECT_EQ(charged[0].launches, 8u);
}

// ------------------------------------------------------------------- mem ----

TEST(Mem, RelaxedCellLoadStore) {
  relaxed_cell<std::int32_t> c(5);
  EXPECT_EQ(c.load(), 5);
  c.store(-2);
  EXPECT_EQ(c.load(), -2);
}

TEST(Mem, RelaxedVectorBulkOps) {
  relaxed_vector<std::int32_t> v(4, 7);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.load(2), 7);
  v.store(2, 9);
  EXPECT_EQ(v.load(2), 9);
  v.fill(1);
  EXPECT_EQ(v.to_host(), (std::vector<std::int32_t>{1, 1, 1, 1}));
  v.assign_from({3, 2, 1});
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.load(0), 3);
}

TEST(Mem, RelaxedVectorSwapIsConstantTimeExchange) {
  relaxed_vector<std::int32_t> a(2, 1), b(3, 2);
  a.swap(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.load(0), 2);
  EXPECT_EQ(b.load(0), 1);
}

TEST(Mem, DeviceFlagRaiseFromKernel) {
  Device dev = fanout_device(4);
  device_flag flag;
  EXPECT_FALSE(flag.is_raised());
  dev.launch(100, [&](std::int64_t i) {
    if (i == 37) flag.raise();
  });
  EXPECT_TRUE(flag.is_raised());
  flag.reset();
  EXPECT_FALSE(flag.is_raised());
}

TEST(Mem, ConcurrentSameValueWritesAreBenign) {
  // The G-GR pattern: many threads store the same value to one cell.
  Device dev = fanout_device(8);
  relaxed_vector<std::int32_t> cell(1, 0);
  dev.launch(10000, [&](std::int64_t) { cell.store(0, 42); });
  EXPECT_EQ(cell.load(0), 42);
}

TEST(Mem, ConcurrentLastWriterWinsSettlesOnSomeWrittenValue) {
  // The µ(u) pattern: racing writes of different values; after the launch
  // barrier the cell holds one of them.
  Device dev = fanout_device(8);
  relaxed_vector<std::int32_t> cell(1, -1);
  dev.launch(64, [&](std::int64_t i) {
    cell.store(0, static_cast<std::int32_t>(i));
  });
  const auto v = cell.load(0);
  EXPECT_GE(v, 0);
  EXPECT_LT(v, 64);
}

// ------------------------------------------------------- balanced launch ----

// Deterministic pseudo-random degree sequence with a few planted hubs —
// the skewed shape balanced partitioning exists for.
std::vector<std::int64_t> skewed_degrees(std::size_t n, std::uint64_t seed) {
  std::vector<std::int64_t> work(n);
  std::uint64_t x = seed * 2654435761u + 1;
  for (auto& w : work) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = static_cast<std::int64_t>(x % 7);
    if (x % 97 == 0) w = 500 + static_cast<std::int64_t>(x % 400);  // hub
  }
  return work;
}

std::vector<std::int64_t> offsets_of(const std::vector<std::int64_t>& work) {
  std::vector<std::int64_t> offsets(work.size() + 1, 0);
  for (std::size_t i = 0; i < work.size(); ++i)
    offsets[i + 1] = offsets[i] + work[i];
  return offsets;
}

TEST(BalancedPartition, CoversEveryItemExactlyOnceAcrossShapes) {
  for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u, 4097u}) {
    const auto offsets = offsets_of(skewed_degrees(n, n));
    for (const std::int64_t parts : {1, 2, 3, 7, 16, 448}) {
      const auto bounds = balanced_partition(offsets, parts);
      ASSERT_EQ(bounds.size(), static_cast<std::size_t>(parts) + 1);
      EXPECT_EQ(bounds.front(), 0);
      EXPECT_EQ(bounds.back(), static_cast<std::int64_t>(n));
      // Monotone boundaries partition [0, n): every item in exactly one
      // chunk, which is the "every edge covered exactly once" property —
      // chunks own disjoint, contiguous, exhaustive item (and hence CSR
      // edge-range) sets.
      for (std::size_t p = 1; p < bounds.size(); ++p)
        EXPECT_LE(bounds[p - 1], bounds[p]) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(BalancedPartition, ChunkWorkWithinOneMaxDegreeOfIdeal) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto work = skewed_degrees(3000, seed);
    const auto offsets = offsets_of(work);
    const std::int64_t max_degree =
        *std::max_element(work.begin(), work.end());
    for (const std::int64_t parts : {2, 8, 64, 448}) {
      const auto bounds = balanced_partition(offsets, parts);
      const std::int64_t ideal = offsets.back() / parts;
      for (std::int64_t p = 0; p < parts; ++p) {
        const std::int64_t chunk_work =
            offsets[static_cast<std::size_t>(bounds[p + 1])] -
            offsets[static_cast<std::size_t>(bounds[p])];
        EXPECT_LE(chunk_work, ideal + max_degree + 1)
            << "seed=" << seed << " parts=" << parts << " chunk=" << p;
      }
    }
  }
}

TEST(BalancedPartition, DegenerateInputs) {
  // All-zero work: any boundaries partitioning [0, n) are acceptable.
  const std::vector<std::int64_t> zeros(5, 0);
  const auto bounds = balanced_partition(offsets_of(zeros), 3);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 5);
  for (std::size_t p = 1; p < bounds.size(); ++p)
    EXPECT_LE(bounds[p - 1], bounds[p]);
  // Contract violations throw.
  EXPECT_THROW(balanced_partition({}, 2), std::invalid_argument);
  const std::vector<std::int64_t> not_prefix{3, 5};
  EXPECT_THROW(balanced_partition(not_prefix, 2), std::invalid_argument);
  const std::vector<std::int64_t> ok{0, 3};
  EXPECT_THROW(balanced_partition(ok, 0), std::invalid_argument);
}

TEST(BalancedPartition, LeadingChunksNeverEmptyWhileWorkRemains) {
  // Regression: floor targets used to hand chunk 0 an empty range when an
  // all-zero-degree tail (or total < parts) dragged the average below 1 —
  // an empty *leading* chunk while later chunks held all the work.  Ceil
  // targets keep every leading chunk non-empty until the items run out.
  const std::vector<std::int64_t> tail_zeros{3, 2, 0, 0, 0, 0, 0, 0};
  const auto bounds = balanced_partition(offsets_of(tail_zeros), 4);
  EXPECT_GT(bounds[1], 0) << "leading chunk must own at least one item";
  // All work (5 units over items 0-1) is covered exactly once.
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 8);
}

TEST(BalancedPartition, MorePartsThanNonEmptyItemsDegradesGracefully) {
  // 2 non-empty items, 8 parts: items are indivisible, so at most 2
  // chunks can carry work (no work duplicated into padding chunks), the
  // cover stays exact, and the leading chunk still owns the first item.
  const std::vector<std::int64_t> two{7, 0, 0, 5, 0};
  const auto offsets = offsets_of(two);
  const auto bounds = balanced_partition(offsets, 8);
  ASSERT_EQ(bounds.size(), 9u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 5);
  EXPECT_GT(bounds[1], 0);
  int chunks_with_work = 0;
  std::int64_t total_work = 0;
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_LE(bounds[p], bounds[p + 1]);
    const std::int64_t work =
        offsets[static_cast<std::size_t>(bounds[p + 1])] -
        offsets[static_cast<std::size_t>(bounds[p])];
    chunks_with_work += work > 0 ? 1 : 0;
    total_work += work;
  }
  EXPECT_EQ(chunks_with_work, 2);
  EXPECT_EQ(total_work, offsets.back());
}

TEST(BalancedPartition, ZeroTotalWorkSpreadsItemsEvenly) {
  // No work at all: chunks still partition the items (±1) so downstream
  // per-chunk loops see bounded ranges instead of one chunk owning all n.
  const std::vector<std::int64_t> zeros(10, 0);
  const auto bounds = balanced_partition(offsets_of(zeros), 4);
  for (std::size_t p = 0; p < 4; ++p) {
    const std::int64_t items = bounds[p + 1] - bounds[p];
    EXPECT_GE(items, 2);
    EXPECT_LE(items, 3);
  }
}

class BalancedLaunchModes : public ::testing::TestWithParam<unsigned> {};

TEST_P(BalancedLaunchModes, RunsEveryItemExactlyOnce) {
  Device dev = fanout_device(GetParam());
  for (const std::size_t n : {1u, 3u, 57u, 1000u}) {
    const auto offsets = offsets_of(skewed_degrees(n, 11));
    std::vector<std::atomic<int>> hits(n);
    dev.launch_balanced(offsets, [&](std::int64_t i) -> std::int64_t {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
      return 1;
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n;
  }
}

TEST_P(BalancedLaunchModes, EmptyAndZeroWorkGrids) {
  Device dev = fanout_device(GetParam());
  const std::vector<std::int64_t> empty{0};
  dev.launch_balanced(empty, [](std::int64_t) -> std::int64_t { return 1; });
  EXPECT_EQ(dev.launches(), 1u);  // empty grids still count as a launch
  // All-zero work estimates: every item still runs exactly once.
  const std::vector<std::int64_t> zeros(8, 0);
  std::vector<std::atomic<int>> hits(7);
  dev.launch_balanced(zeros, [&](std::int64_t i) -> std::int64_t {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
    return 0;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllModes, BalancedLaunchModes,
                         ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return param_info.param == 1 ? "Sequential"
                                                        : "Concurrent";
                         });

TEST(BalancedLaunch, ChargesWhatAnAccountedLaunchCharges) {
  // The model charges no stragglers, so an edge-balanced launch over
  // skewed work is the same accounted launch as the vertex-parallel grid
  // over the same items: equal modeled time, on one thread or four.
  std::vector<std::int64_t> work(4480, 1);
  for (std::size_t i = 0; i < 448; ++i) work[i] = 100;  // a hub block
  const auto offsets = offsets_of(work);
  auto modeled = [&](bool balanced, unsigned threads) {
    Device dev = fanout_device(threads);
    const auto kernel = [&](std::int64_t i) -> std::int64_t {
      return work[static_cast<std::size_t>(i)];
    };
    if (balanced)
      dev.launch_balanced(offsets, kernel);
    else
      dev.launch_accounted(static_cast<std::int64_t>(work.size()), kernel);
    return dev.modeled_ms();
  };
  for (const unsigned threads : {1u, 4u})
    EXPECT_DOUBLE_EQ(modeled(true, threads), modeled(false, threads));
}

TEST(BalancedLaunch, ConcurrentStreamsStressAllCovered) {
  // TSan stress for the balanced launch and its padded per-worker work
  // partials: several streams on one engine, each running balanced
  // launches over skewed work from its own host thread.
  const auto engine = fanout_engine(4);
  constexpr int kStreams = 4, kLaunches = 20;
  constexpr std::size_t kGrid = 700;
  std::vector<std::thread> threads;
  std::vector<std::int64_t> covered(kStreams, 0);
  for (int s = 0; s < kStreams; ++s)
    threads.emplace_back([&, s] {
      Device stream(engine);
      const auto offsets =
          offsets_of(skewed_degrees(kGrid, static_cast<std::uint64_t>(s)));
      std::vector<std::atomic<int>> hits(kGrid);
      for (int l = 0; l < kLaunches; ++l) {
        for (auto& h : hits) h.store(0);
        stream.launch_balanced(offsets, [&](std::int64_t i) -> std::int64_t {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
          return 1;
        });
        for (auto& h : hits) covered[static_cast<std::size_t>(s)] += h.load();
      }
    });
  for (auto& t : threads) t.join();
  for (int s = 0; s < kStreams; ++s)
    EXPECT_EQ(covered[static_cast<std::size_t>(s)],
              static_cast<std::int64_t>(kLaunches * kGrid));
}

// ------------------------------------------------------------------ scan ----

class ScanModes : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScanModes, MatchesSerialExclusiveScan) {
  Device dev = fanout_device(GetParam());
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u, 4097u}) {
    std::vector<std::int64_t> in(n);
    for (std::size_t i = 0; i < n; ++i)
      in[i] = static_cast<std::int64_t>((i * 2654435761u) % 17);
    std::vector<std::int64_t> expect(n, 0);
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expect[i] = acc;
      acc += in[i];
    }
    std::vector<std::int64_t> out(n);
    const std::int64_t total = exclusive_scan(dev, in, out);
    EXPECT_EQ(total, acc) << "n=" << n;
    EXPECT_EQ(out, expect) << "n=" << n;
  }
}

TEST_P(ScanModes, InPlaceAliasing) {
  Device dev = fanout_device(GetParam());
  std::vector<std::int64_t> data{3, 1, 4, 1, 5};
  const std::int64_t total = exclusive_scan(dev, data, data);
  EXPECT_EQ(total, 14);
  EXPECT_EQ(data, (std::vector<std::int64_t>{0, 3, 4, 8, 9}));
}

INSTANTIATE_TEST_SUITE_P(AllModes, ScanModes,
                         ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return param_info.param == 1 ? "Sequential"
                                                        : "Concurrent";
                         });

TEST(Scan, SizeMismatchThrows) {
  Device dev({.num_threads = 1});
  std::vector<std::int64_t> in{1, 2};
  std::vector<std::int64_t> out(3);
  EXPECT_THROW(exclusive_scan(dev, in, out), std::invalid_argument);
}

}  // namespace
}  // namespace bpm::device
