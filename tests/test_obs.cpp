// Observability layer: metrics registry (striped counters, gauges,
// fixed-bucket histograms, deterministic snapshots) and the tracer
// (bounded per-thread rings, chrome://tracing JSON, span nesting).
//
// The concurrency tests double as the TSan harness for the hot-path
// claims in obs/metrics.hpp and obs/trace.hpp: counters and histograms
// are hammered from many threads and must come out exact, and spans are
// recorded from a pool without a shared buffer.  The conformance tests
// at the bottom run real solves with tracing on and off and require
// identical results — instrumentation must observe, never perturb.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/g_pr.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpm::obs {
namespace {

using device::Device;
using graph::BipartiteGraph;
namespace gen = graph::gen;

// ------------------------------------------------------------- metrics ----

TEST(Counter, AddIncValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentHammerIsExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
      c.add(3);
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.value(), kThreads * (kPerThread + 3));
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsCountSumMean) {
  Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.counts.size(), 4u);  // +1 overflow bucket
  // Bounds are inclusive upper bounds: 1.0 lands in the first bucket.
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 106.0);
  EXPECT_DOUBLE_EQ(s.mean(), 106.0 / 5.0);
}

TEST(Histogram, PercentileEmptyAndOverflowBucket) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.snapshot().percentile(50), 0.0);
  h.observe(100.0);  // overflow bucket
  const Histogram::Snapshot s = h.snapshot();
  // The histogram cannot see past its last boundary: the overflow bucket
  // reports its lower bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(s.percentile(50), 4.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 4.0);
}

TEST(Histogram, PercentileMonotoneAndClamped) {
  Histogram h(Histogram::exponential_bounds(1.0, 2.0, 10));
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i % 100));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.percentile(-5), s.percentile(0));
  EXPECT_DOUBLE_EQ(s.percentile(250), s.percentile(100));
  double prev = s.percentile(0);
  for (int pct = 5; pct <= 100; pct += 5) {
    const double cur = s.percentile(pct);
    EXPECT_GE(cur, prev) << "pct=" << pct;
    prev = cur;
  }
}

TEST(Histogram, ConcurrentObserveCountsEverySample) {
  Histogram h({1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(static_cast<double>((t + i) % 200));
    });
  for (auto& th : pool) th.join();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : s.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(Histogram, ExponentialBoundsShape) {
  const std::vector<double> b = Histogram::exponential_bounds(0.5, 2.0, 6);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_DOUBLE_EQ(b.front(), 0.5);
  for (std::size_t i = 1; i < b.size(); ++i)
    EXPECT_DOUBLE_EQ(b[i], b[i - 1] * 2.0);
  EXPECT_FALSE(Histogram::default_latency_bounds_ms().empty());
}

TEST(Registry, ReturnsStableReferences) {
  Registry reg;
  Counter& c1 = reg.counter("x");
  Counter& c2 = reg.counter("x");
  EXPECT_EQ(&c1, &c2);
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  // Bounds apply on first registration only.
  Histogram& h2 = reg.histogram("h", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
  // Empty bounds fall back to the default latency ladder.
  EXPECT_EQ(reg.histogram("lat").bounds(),
            Histogram::default_latency_bounds_ms());
}

TEST(Registry, SnapshotDeterministicAcrossInsertionOrder) {
  const auto populate = [](Registry& reg, bool reversed) {
    const std::vector<std::string> names{"alpha", "beta", "gamma"};
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& n = reversed ? names[names.size() - 1 - i] : names[i];
      reg.counter("c." + n).add(7);
      reg.gauge("g." + n).set(1.25);
      reg.histogram("h." + n, {1.0, 2.0}).observe(1.5);
      reg.set_info("i." + n, "value of " + n);
    }
  };
  Registry a, b;
  populate(a, false);
  populate(b, true);
  const std::string ja = a.snapshot_json();
  EXPECT_EQ(ja, b.snapshot_json());
  // Equal state → byte-identical snapshots, and the document carries all
  // four sections.
  EXPECT_EQ(ja, a.snapshot_json());
  for (const char* key : {"\"counters\"", "\"gauges\"", "\"histograms\"",
                          "\"info\"", "\"c.alpha\"", "\"value of gamma\""})
    EXPECT_NE(ja.find(key), std::string::npos) << key;
}

TEST(Registry, AccessorsMirrorState) {
  Registry reg;
  reg.counter("n").add(3);
  reg.gauge("q").set(4.0);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.set_info("engine", "host(workers=4)");
  EXPECT_EQ(reg.counter_values().at("n"), 3u);
  EXPECT_DOUBLE_EQ(reg.gauge_values().at("q"), 4.0);
  const auto hists = reg.histogram_snapshots();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].name, "h");
  EXPECT_EQ(hists[0].snapshot.count, 1u);
  EXPECT_EQ(reg.info_values().at("engine"), "host(workers=4)");
}

TEST(Registry, WriteFileRoundTripsSnapshot) {
  Registry reg;
  reg.counter("written").add(11);
  const std::string path = ::testing::TempDir() + "obs_registry_rt.json";
  ASSERT_TRUE(reg.write_file(path));
  std::ifstream in(path);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, reg.snapshot_json());
  EXPECT_FALSE(reg.write_file("/nonexistent-dir/registry.json"));
}

TEST(Registry, ConcurrentRegistrationAndUpdates) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&reg, t] {
      // Everyone registers the shared metric plus one of its own; lookups
      // and updates race with other registrants on purpose.
      Counter& shared = reg.counter("shared");
      Counter& mine = reg.counter("own." + std::to_string(t));
      Histogram& h = reg.histogram("lat");
      for (int i = 0; i < kIters; ++i) {
        shared.inc();
        mine.inc();
        h.observe(static_cast<double>(i % 7));
        if (i % 512 == 0) (void)reg.snapshot_json();
      }
    });
  for (auto& th : pool) th.join();
  const auto counters = reg.counter_values();
  EXPECT_EQ(counters.at("shared"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(counters.at("own." + std::to_string(t)),
              static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(reg.histogram_snapshots().at(0).snapshot.count,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// -------------------------------------------------------------- tracing ----

TEST(Trace, ArgJsonRendersAndEscapes) {
  EXPECT_EQ(arg_json("k", std::string_view("plain")), "\"k\":\"plain\"");
  EXPECT_EQ(arg_json("k", std::string_view("a\"b\\c")),
            "\"k\":\"a\\\"b\\\\c\"");
  EXPECT_EQ(arg_json("n", std::int64_t{-3}), "\"n\":-3");
  const std::string d = arg_json("x", 1.5);
  EXPECT_EQ(d.substr(0, 5), "\"x\":1");
  EXPECT_NE(d.find("1.5"), std::string::npos);
}

TEST(Trace, DisabledAndNullPathsAreInert) {
  Tracer t;  // constructed disabled
  EXPECT_FALSE(t.enabled());
  {
    Span null_sp = span(nullptr, "a", "cat");
    EXPECT_FALSE(null_sp.active());
    Span off_sp = span(&t, "a", "cat");
    EXPECT_FALSE(off_sp.active());
    off_sp.arg("ignored", 1);  // must be a no-op, not a crash
  }
  t.instant("marker", "cat");  // disabled → dropped silently
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Trace, SpanRecordsCompleteEventWithTypedArgs) {
  Tracer t;
  t.enable();
  {
    Span sp = span(&t, "launch", "device");
    ASSERT_TRUE(sp.active());
    sp.arg("kernel", std::string("push"));
    sp.arg("items", 42);
    sp.arg("ok", true);
    sp.arg("ms", 0.5);
  }
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "launch");
  EXPECT_EQ(evs[0].cat, "device");
  EXPECT_EQ(evs[0].ph, 'X');
  EXPECT_GE(evs[0].tid, Tracer::kThreadTidBase);
  EXPECT_EQ(evs[0].args,
            "\"kernel\":\"push\",\"items\":42,\"ok\":1,\"ms\":0.5");
}

TEST(Trace, NestedSpansSortEnclosingFirst) {
  Tracer t;
  t.enable();
  // The sleeps separate the three start timestamps at µs resolution so
  // the (ts, tid, -dur, name) sort is exercised on real orderings, not
  // all-zero ties.
  constexpr auto kTick = std::chrono::milliseconds(2);
  {
    Span outer = span(&t, "outer", "test");
    std::this_thread::sleep_for(kTick);
    {
      Span inner = span(&t, "inner", "test");
      std::this_thread::sleep_for(kTick);
      t.instant("tick", "test");
    }
  }
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  // Deterministic (ts, tid, -dur, name) order: the enclosing span comes
  // before what it contains.
  EXPECT_EQ(evs[0].name, "outer");
  EXPECT_EQ(evs[1].name, "inner");
  EXPECT_EQ(evs[2].name, "tick");
  EXPECT_EQ(evs[2].ph, 'i');
  EXPECT_LE(evs[0].ts_us, evs[1].ts_us);
  EXPECT_GE(evs[0].ts_us + evs[0].dur_us, evs[1].ts_us + evs[1].dur_us);
}

TEST(Trace, MovedFromSpanDoesNotDoubleRecord) {
  Tracer t;
  t.enable();
  {
    Span a = span(&t, "once", "test");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): contract
    EXPECT_TRUE(b.active());
  }
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Trace, ExplicitTidsReachJson) {
  Tracer t;
  t.enable();
  t.complete("push", "phase", 10, 5, arg_json("round", std::int64_t{1}), 0);
  t.instant("barrier", "phase", /*args=*/{}, 96);
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 2u);
  for (const TraceEvent& ev : evs)
    EXPECT_EQ(ev.tid, ev.name == "push" ? 0u : 96u) << ev.name;
  const std::string json = t.json();
  for (const char* needle :
       {"\"tid\":0", "\"tid\":96", "\"ph\":\"X\"", "\"ph\":\"i\"",
        "\"round\":1"})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  EXPECT_EQ(json, t.json());  // deterministic for a fixed event set
}

TEST(Trace, ThreadsGetDistinctRowsFromBase) {
  Tracer t;
  t.enable();
  constexpr int kThreads = 3;
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&t] { t.instant("hello", "test"); });
  for (auto& th : pool) th.join();
  std::set<std::uint32_t> tids;
  for (const TraceEvent& ev : t.events()) tids.insert(ev.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  for (const std::uint32_t tid : tids) EXPECT_GE(tid, Tracer::kThreadTidBase);
}

TEST(Trace, RingBoundDropsNewestAndCounts) {
  Tracer t(/*per_thread_capacity=*/16);  // 16 is the smallest ring
  t.enable();
  for (int i = 0; i < 40; ++i)
    t.instant("e" + std::to_string(i), "test");
  EXPECT_EQ(t.events().size(), 16u);
  EXPECT_EQ(t.dropped(), 24u);
  // The ring keeps the oldest events (the drop policy sheds the newest).
  EXPECT_EQ(t.events().front().name, "e0");
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
  t.instant("after-clear", "test");
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Trace, ConcurrentSpansAllRecorded) {
  Tracer t;
  t.enable();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&t, i] {
      for (int s = 0; s < kSpansPerThread; ++s) {
        Span sp = span(&t, "work", "pool");
        sp.arg("thread", i);
        sp.arg("iter", s);
      }
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(t.events().size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(t.dropped(), 0u);
  const auto totals = t.totals_ms("pool");
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_GE(totals.at("work"), 0.0);
}

TEST(Trace, TotalsMsSumsPerNameWithinCategory) {
  Tracer t;
  t.enable();
  t.complete("a", "phase", 0, 1000);
  t.complete("a", "phase", 5000, 2000);
  t.complete("b", "phase", 0, 500);
  t.complete("a", "other", 0, 7000);
  t.instant("a", "phase");  // instants carry no duration
  const std::map<std::string, double> totals = t.totals_ms("phase");
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_DOUBLE_EQ(totals.at("a"), 3.0);
  EXPECT_DOUBLE_EQ(totals.at("b"), 0.5);
  EXPECT_DOUBLE_EQ(t.totals_ms("other").at("a"), 7.0);
}

// -------------------------------------------------- solve conformance ----

/// Names among `evs` whose category is `cat`.
std::set<std::string> names_in(const std::vector<TraceEvent>& evs,
                               std::string_view cat) {
  std::set<std::string> names;
  for (const TraceEvent& ev : evs)
    if (ev.cat == cat) names.insert(ev.name);
  return names;
}

TEST(TraceConformance, GprTracedSolveMatchesUntracedAndRecordsPhases) {
  const BipartiteGraph g = gen::random_uniform(300, 320, 2400, 7);
  const matching::Matching init = matching::cheap_matching(g);

  // One thread so the untraced and traced solves take exactly the
  // same kernel schedule and the stats comparison is meaningful.
  Device plain({.num_threads = 1});
  const gpu::GprResult base = gpu::g_pr(plain, g, init);

  Tracer tracer;
  tracer.enable();
  Device traced({.num_threads = 1});
  traced.set_tracer(&tracer);
  const gpu::GprResult obs_run = gpu::g_pr(traced, g, init);

  ASSERT_TRUE(obs_run.matching.is_valid(g));
  EXPECT_EQ(obs_run.matching.cardinality(), base.matching.cardinality());
  EXPECT_TRUE(matching::is_maximum(g, obs_run.matching));
  EXPECT_EQ(obs_run.stats.loops, base.stats.loops);
  EXPECT_EQ(obs_run.stats.global_relabels, base.stats.global_relabels);
  EXPECT_EQ(obs_run.stats.device_launches, base.stats.device_launches);

  const std::vector<TraceEvent> evs = tracer.events();
  EXPECT_EQ(tracer.dropped(), 0u);
  const std::set<std::string> phases = names_in(evs, "phase");
  EXPECT_TRUE(phases.count("push")) << "no push phase span";
  EXPECT_TRUE(phases.count("global-relabel")) << "no global-relabel span";
  // Each relabel span carries its BFS depth and frontier total, so a slow
  // relabel is explained by the trace alone; the depths add up to the
  // solve's level-kernel count.
  auto arg_of = [](const TraceEvent& ev, const std::string& key) {
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = ev.args.find(tag);
    EXPECT_NE(at, std::string::npos) << key << " missing in " << ev.args;
    return at == std::string::npos
               ? std::int64_t{-1}
               : std::stoll(ev.args.substr(at + tag.size()));
  };
  std::int64_t levels = 0;
  for (const TraceEvent& ev : evs) {
    if (ev.cat != "phase" || ev.name != "global-relabel") continue;
    levels += arg_of(ev, "levels");
    EXPECT_GE(arg_of(ev, "reached"), 0);
  }
  EXPECT_EQ(levels, obs_run.stats.gr_level_kernels);
  EXPECT_TRUE(names_in(evs, "solve").count("g-pr"));
  EXPECT_FALSE(names_in(evs, "device").empty()) << "no launch spans";
  // Phase totals account for real time: every recorded phase is a
  // complete span with a finite duration.
  for (const auto& [name, ms] : tracer.totals_ms("phase")) {
    EXPECT_GE(ms, 0.0) << name;
  }
}

}  // namespace
}  // namespace bpm::obs
