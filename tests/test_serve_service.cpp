// serve::MatchingService + serve::InstanceStore (src/serve/): async
// submit/future and ticket-polling APIs, priority ordering, bounded-queue
// backpressure, deadlines, instance dedup, cache accounting across
// requests (including canonical-spec identity and a snapshot-warmed
// restart), the process-wide metrics registry stream, and
// certificate-only verification rejecting (and never caching) mutants.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "mutant_solver.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace bpm::serve {
namespace {

namespace gen = graph::gen;

/// A registered test solver that sleeps: lets tests hold a worker busy for
/// a deterministic window (to fill queues, test priorities and deadlines).
class SleepSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "test-sleep"; }
  [[nodiscard]] SolverCaps caps() const override {
    return {.deterministic = true, .exact = false};
  }
  bool set_option(std::string_view key, std::string_view value) override {
    if (key != "ms") return false;
    ms_ = std::stoi(std::string(value));
    return true;
  }
  [[nodiscard]] SolveResult run(const SolveContext&,
                                const graph::BipartiteGraph&,
                                const matching::Matching& init) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    SolveResult out{init, {}};
    out.stats.cardinality = init.cardinality();
    return out;
  }

 private:
  int ms_ = 20;
};

[[maybe_unused]] const bool kRegistered = [] {
  SolverRegistry::instance().add("test-sleep",
                                 [] { return std::make_unique<SleepSolver>(); });
  return true;
}();

Request request(std::size_t instance, const std::string& spec,
                int priority = 0, double deadline_ms = 0.0) {
  return {.instance = instance,
          .spec = SolverSpec::parse(spec),
          .priority = priority,
          .deadline_ms = deadline_ms};
}

TEST(InstanceStore, DedupsByStructuralFingerprint) {
  InstanceStore store;
  const auto g = gen::random_uniform(200, 210, 900, 3);
  const auto a = store.add("original", g);
  const auto b = store.add("same-graph-new-name", g);
  const auto c = store.add("other", gen::planted_perfect(100, 2.0, 9));
  EXPECT_FALSE(a.deduplicated);
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(a.handle, b.handle);
  EXPECT_FALSE(c.deduplicated);
  EXPECT_NE(a.handle, c.handle);
  EXPECT_EQ(store.size(), 2u);
  // Both names resolve; the admitting registration's name is primary.
  EXPECT_EQ(store.find("original"), a.handle);
  EXPECT_EQ(store.find("same-graph-new-name"), a.handle);
  EXPECT_FALSE(store.find("nope").has_value());
  EXPECT_EQ(store.get(a.handle).name, "original");
  EXPECT_THROW((void)store.get(99), std::out_of_range);

  // Re-registering a *different* graph under a taken name re-points the
  // name — submits against "original" must hit the new graph, not the old.
  const auto d = store.add("original", gen::complete_bipartite(4, 4));
  EXPECT_FALSE(d.deduplicated);
  EXPECT_EQ(store.find("original"), d.handle);
  EXPECT_EQ(store.get(d.handle).graph.num_rows(), 4);
}

TEST(InstanceStore, AdmitsWithKarpSipser) {
  // The serving tier starts every solve from admission's Karp–Sipser init,
  // and the policy features read its deficiency.
  InstanceStore store;
  const auto g = gen::chung_lu(500, 500, 4.0, 2.4, 21);
  const PipelineInstance& inst = store.get(store.add("g", g).handle);
  const matching::Matching ks = matching::karp_sipser(g);
  EXPECT_EQ(inst.init.row_match, ks.row_match);
  EXPECT_EQ(inst.init.col_match, ks.col_match);
  EXPECT_EQ(inst.initial_cardinality, ks.cardinality());
  EXPECT_GT(inst.initial_cardinality,
            matching::cheap_matching(g).cardinality());
  EXPECT_EQ(inst.features.deficiency_est,
            policy::compute_features(g, ks.cardinality()).deficiency_est);
}

TEST(InstanceStore, PrebuiltInstancesAdmitWithoutRecomputation) {
  // The precomputed-admission seam: a PipelineInstance built elsewhere
  // (here with a deliberately wrong initial cardinality) is stored
  // verbatim — proof the store reuses instead of recomputing — and still
  // dedups.
  InstanceStore store;
  PipelineInstance inst;
  inst.name = "prebuilt";
  inst.graph = gen::complete_bipartite(6, 6);
  inst.init = matching::Matching(inst.graph);
  inst.initial_cardinality = 123;  // sentinel: would be 6 if recomputed
  const auto a = store.add(inst);
  EXPECT_FALSE(a.deduplicated);
  EXPECT_EQ(store.get(a.handle).initial_cardinality, 123);
  const auto b = store.add("same-structure", gen::complete_bipartite(6, 6));
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(b.handle, a.handle);
}

TEST(Service, SubmitFutureDeliversVerifiedResults) {
  MatchingService svc({.workers = 2});
  const auto g = gen::random_uniform(300, 310, 1500, 11);
  const auto handle = svc.add_instance("g", g).handle;

  // The expected outcome, from a sequential pipeline on the same graph.
  MatchingPipeline pipe({.max_concurrent_jobs = 1});
  pipe.add_instance("g", g);
  const PipelineReport ref = pipe.run({"g-pr-shr:k=1.5", "hk", "p-dbfs"});
  ASSERT_TRUE(ref.all_ok());

  std::vector<Submission> subs;
  for (const std::string spec : {"g-pr-shr:k=1.5", "hk", "p-dbfs"})
    subs.push_back(svc.submit(request(handle, spec)));
  for (std::size_t i = 0; i < subs.size(); ++i) {
    ASSERT_TRUE(subs[i].accepted) << subs[i].reason;
    const Response r = subs[i].future.get();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.solver, ref.jobs[i].solver);
    EXPECT_EQ(r.stats.cardinality, ref.jobs[i].stats.cardinality);
    EXPECT_EQ(r.instance_name, "g");
    EXPECT_GE(r.total_ms, r.service_ms);
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(Service, TicketPollingCompletesWithoutFutures) {
  MatchingService svc({.workers = 1});
  const auto handle =
      svc.add_instance("g", gen::chung_lu(250, 260, 4.0, 2.4, 7)).handle;
  const Submission sub = svc.submit(request(handle, "hk"));
  ASSERT_TRUE(sub.accepted);
  // Poll until done — no deadline needed, the solve is milliseconds.
  std::optional<Response> r;
  while (!(r = svc.poll(sub.ticket)))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(r->ok) << r->error;
  EXPECT_EQ(r->ticket, sub.ticket);
  // Polling again returns the same completed response.
  EXPECT_EQ(svc.poll(sub.ticket)->stats.cardinality, r->stats.cardinality);
  EXPECT_THROW((void)svc.poll(777), std::invalid_argument);
}

TEST(Service, RejectsBadRequestsWithReasons) {
  MatchingService svc({.workers = 1});
  const auto handle =
      svc.add_instance("g", gen::complete_bipartite(8, 8)).handle;

  const Submission unknown_instance = svc.submit(request(handle + 50, "hk"));
  EXPECT_FALSE(unknown_instance.accepted);
  EXPECT_NE(unknown_instance.reason.find("unknown instance"),
            std::string::npos);

  const Submission bad_spec = svc.submit(request(handle, "no-such-solver"));
  EXPECT_FALSE(bad_spec.accepted);
  EXPECT_FALSE(bad_spec.reason.empty());

  // `auto` takes no options: a client-set `model=` path is rejected by
  // name before anything opens it (reading /dev/zero would never end).
  const Submission auto_model =
      svc.submit(request(handle, "auto:model=/dev/zero"));
  EXPECT_FALSE(auto_model.accepted);
  EXPECT_NE(auto_model.reason.find("option 'model'"), std::string::npos)
      << auto_model.reason;

  EXPECT_EQ(svc.stats().rejected, 3u);
  EXPECT_EQ(svc.stats().accepted, 0u);
}

TEST(Service, BoundedQueueRejectsWithBackpressure) {
  // One worker, queue depth 2: a sleeping request holds the worker, the
  // next two fill the queue, the fourth must bounce.
  MatchingService svc({.workers = 1, .queue_depth = 2});
  const auto handle =
      svc.add_instance("g", gen::complete_bipartite(8, 8)).handle;
  const Submission blocker =
      svc.submit(request(handle, "test-sleep:ms=300"));
  ASSERT_TRUE(blocker.accepted);
  // The blocker may still be queued or already running; either way two
  // more fit at most.
  std::size_t rejected = 0;
  std::vector<Submission> rest;
  for (int i = 0; i < 4; ++i) {
    Submission sub = svc.submit(request(handle, "hk"));
    if (!sub.accepted) {
      ++rejected;
      EXPECT_NE(sub.reason.find("admission queue full"), std::string::npos)
          << sub.reason;
    } else {
      rest.push_back(std::move(sub));
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(svc.stats().rejected, rejected);
  for (const Submission& sub : rest) EXPECT_TRUE(sub.future.get().ok);
  (void)blocker.future.get();
}

TEST(Service, HigherPriorityJumpsTheQueue) {
  MatchingService svc({.workers = 1});
  const auto handle =
      svc.add_instance("g", gen::complete_bipartite(8, 8)).handle;
  // Hold the single worker so the next submissions pile up in the queue.
  const Submission blocker =
      svc.submit(request(handle, "test-sleep:ms=150"));
  ASSERT_TRUE(blocker.accepted);
  const Submission low = svc.submit(request(handle, "hk", /*priority=*/0));
  const Submission high =
      svc.submit(request(handle, "pf", /*priority=*/10));
  ASSERT_TRUE(low.accepted);
  ASSERT_TRUE(high.accepted);
  // The worker serves the high-priority request first, so by the time the
  // low one completes, the high one must already be done.
  (void)low.future.get();
  ASSERT_TRUE(svc.poll(high.ticket).has_value());
  (void)blocker.future.get();
}

TEST(Service, DeadlineExpiresWhileQueued) {
  MatchingService svc({.workers = 1});
  const auto handle =
      svc.add_instance("g", gen::complete_bipartite(8, 8)).handle;
  const Submission blocker =
      svc.submit(request(handle, "test-sleep:ms=100"));
  ASSERT_TRUE(blocker.accepted);
  const Submission doomed =
      svc.submit(request(handle, "hk", 0, /*deadline_ms=*/1.0));
  ASSERT_TRUE(doomed.accepted);
  const Response r = doomed.future.get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("deadline expired"), std::string::npos) << r.error;
  EXPECT_EQ(svc.stats().expired, 1u);
  (void)blocker.future.get();
}

TEST(Service, CacheServesRepeatsAndCountsHits) {
  auto cache = std::make_shared<ResultCache>();
  MatchingService svc({.workers = 2, .cache = cache});
  const auto g = gen::random_uniform(300, 310, 1500, 11);
  const auto handle = svc.add_instance("g", g).handle;

  const Response first = svc.submit(request(handle, "hk")).future.get();
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cached);

  const Response repeat = svc.submit(request(handle, "hk")).future.get();
  ASSERT_TRUE(repeat.ok);
  EXPECT_TRUE(repeat.cached);
  EXPECT_EQ(repeat.stats.cardinality, first.stats.cardinality);
  EXPECT_EQ(repeat.service_ms, 0.0);
  // Cost fields are not re-charged on hits (same convention as the
  // pipeline), so clients aggregating responses never double-count.
  EXPECT_EQ(repeat.stats.wall_ms, 0.0);
  EXPECT_EQ(repeat.stats.device_launches, 0);

  // The cache key is the canonical spec: two spellings of one tuning
  // share an entry, while a different tuning never does.
  const Response tuned =
      svc.submit(request(handle, "seq-pr:k=2,gap=1")).future.get();
  EXPECT_FALSE(tuned.cached);
  const Response respelled =
      svc.submit(request(handle, "seq-pr:gap=1,k=2")).future.get();
  EXPECT_TRUE(respelled.cached);
  EXPECT_EQ(respelled.solver, tuned.solver);
  const Response retuned =
      svc.submit(request(handle, "seq-pr:k=4,gap=1")).future.get();
  EXPECT_FALSE(retuned.cached);

  // Dedup makes a re-registered graph hit the same entries.
  const auto again = svc.add_instance("g2", g);
  EXPECT_TRUE(again.deduplicated);
  const Response via_dedup =
      svc.submit(request(again.handle, "hk")).future.get();
  EXPECT_TRUE(via_dedup.cached);

  EXPECT_EQ(svc.stats().cache_hits, 3u);
  EXPECT_EQ(cache->stats().hits, 3u);
}

TEST(Service, StreamsEveryCompletionIntoTheRegistry) {
  // The registry is process-wide and every service in this binary feeds
  // it, so compare deltas across this one service's lifetime.
  obs::Registry& reg = obs::Registry::global();
  const std::vector<std::string> counters = {
      "serve.submitted", "serve.accepted", "serve.rejected", "serve.completed",
      "serve.cache_hits"};
  const std::vector<std::string> histograms = {
      "serve.latency_ms", "serve.queue_ms", "serve.service_ms"};
  const auto read = [&] {
    std::vector<std::uint64_t> v;
    for (const auto& name : counters) v.push_back(reg.counter(name).value());
    for (const auto& name : histograms)
      v.push_back(reg.histogram(name).snapshot().count);
    return v;
  };
  const std::vector<std::uint64_t> before = read();

  ServiceStats s;
  {
    MatchingService svc({.workers = 2,
                         .cache = std::make_shared<ResultCache>()});
    const auto handle =
        svc.add_instance("g", gen::random_uniform(300, 310, 1500, 11)).handle;
    const Submission hk = svc.submit(request(handle, "hk"));
    const Submission pr = svc.submit(request(handle, "seq-pr"));
    ASSERT_TRUE(hk.accepted && pr.accepted);
    EXPECT_TRUE(hk.future.get().ok);
    const Response repeat = svc.submit(request(handle, "hk")).future.get();
    EXPECT_TRUE(repeat.cached);
    EXPECT_FALSE(svc.submit(request(handle, "no-such-solver")).accepted);
    EXPECT_TRUE(pr.future.get().ok);
    s = svc.stats();
  }
  ASSERT_EQ(s.completed, 3u);
  ASSERT_EQ(s.cache_hits, 1u);

  const std::vector<std::uint64_t> after = read();
  const auto delta = [&](std::size_t i) { return after[i] - before[i]; };
  EXPECT_EQ(delta(0), s.submitted);
  EXPECT_EQ(delta(1), s.accepted);
  EXPECT_EQ(delta(2), s.rejected);
  EXPECT_EQ(delta(3), s.completed);
  EXPECT_EQ(delta(4), s.cache_hits);
  EXPECT_EQ(delta(5), 3u);  // latency: every completion
  EXPECT_EQ(delta(6), 3u);  // queue wait: every completion
  EXPECT_EQ(delta(7), 2u);  // service time: a cache hit records none
}

TEST(Service, CacheSnapshotWarmsARestartedService) {
  const auto g = gen::random_uniform(300, 310, 1500, 11);
  const std::vector<std::string> specs = {"g-pr-shr:k=1.5", "hk"};
  const std::string path = ::testing::TempDir() + "bpm_service_restart.cache";

  // The first service solves every spec and snapshots its cache.
  std::vector<Response> cold;
  {
    auto cache = std::make_shared<ResultCache>();
    MatchingService svc({.workers = 1, .cache = cache});
    const auto handle = svc.add_instance("g", g).handle;
    for (const std::string& spec : specs) {
      cold.push_back(svc.submit(request(handle, spec)).future.get());
      ASSERT_TRUE(cold.back().ok) << cold.back().error;
      EXPECT_FALSE(cold.back().cached);
    }
    EXPECT_EQ(cache->stats().entries, 2u);
    ASSERT_TRUE(cache->save_file(path));
  }

  // A restarted service (fresh engine, store and cache) warmed from the
  // snapshot serves every spec as a hit, under any instance name.
  auto reloaded = std::make_shared<ResultCache>();
  EXPECT_EQ(reloaded->load_file(path), 2u);
  std::remove(path.c_str());
  MatchingService restarted({.workers = 1, .cache = reloaded});
  const auto handle = restarted.add_instance("g-again", g).handle;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Response warm =
        restarted.submit(request(handle, specs[i])).future.get();
    EXPECT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cached) << specs[i];
    EXPECT_EQ(warm.stats.cardinality, cold[i].stats.cardinality);
    EXPECT_EQ(warm.stats.wall_ms, 0.0);  // cost is not re-charged
  }
  EXPECT_EQ(restarted.stats().cache_hits, 2u);
}

TEST(Service, CertificateRejectsMutantsAndNeverCachesThem) {
  // The service verifies exactly as the pipeline does: each mutant
  // response is `ok == false`, is never published to the cache,
  // and so fails again (uncached) when resubmitted.
  test_support::register_mutant_solver();
  auto cache = std::make_shared<ResultCache>();
  MatchingService svc({.workers = 2, .cache = cache});
  const auto handle =
      svc.add_instance("g", gen::random_uniform(300, 310, 1500, 11)).handle;
  const std::vector<std::pair<std::string, std::string>> mutants = {
      {"test-mutant:mode=minus-one", "Berge certificate failed"},
      {"test-mutant:mode=stats-lie", "stats report cardinality"},
      {"test-mutant:mode=invalid", "invalid matching"},
      {"test-mutant:exact=0,mode=invalid", "invalid matching"},
      {"test-mutant:mode=one-sided", "invalid matching"},
      {"test-mutant:exact=0,mode=one-sided", "invalid matching"},
      {"test-mutant:mode=throw", "thrown after solving"}};
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& [spec, error] : mutants) {
      const Response r = svc.submit(request(handle, spec)).future.get();
      EXPECT_FALSE(r.ok) << spec;
      EXPECT_FALSE(r.cached) << spec << " (pass " << pass << ")";
      EXPECT_NE(r.error.find(error), std::string::npos) << spec << ": "
                                                        << r.error;
    }
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_EQ(svc.stats().failed, 2 * mutants.size());

  // The honest control beside them verifies against the independent
  // oracle and is the only entry cached.
  const Response hk = svc.submit(request(handle, "hk")).future.get();
  EXPECT_TRUE(hk.ok) << hk.error;
  EXPECT_EQ(hk.stats.cardinality, matching::reference_maximum_cardinality(
                                      svc.instances().get(handle).graph));
  EXPECT_EQ(cache->stats().entries, 1u);
}

TEST(Service, ManyClientThreadsManyRequestsAllVerify) {
  // The concurrency smoke: 4 client threads x 8 requests over 2 instances
  // x 2 specs against 4 workers, every response checked.
  auto cache = std::make_shared<ResultCache>();
  MatchingService svc({.workers = 4, .cache = cache});
  const auto a =
      svc.add_instance("a", gen::random_uniform(300, 310, 1500, 11)).handle;
  const auto b =
      svc.add_instance("b", gen::chung_lu(250, 260, 4.0, 2.4, 7)).handle;
  const graph::index_t max_a =
      matching::reference_maximum_cardinality(svc.instances().get(a).graph);
  const graph::index_t max_b =
      matching::reference_maximum_cardinality(svc.instances().get(b).graph);

  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 8; ++i) {
        const bool use_a = (c + i) % 2 == 0;
        Submission sub = svc.submit(
            request(use_a ? a : b, i % 4 < 2 ? "hk" : "g-pr-shr"));
        if (!sub.accepted) {
          ++bad;
          continue;
        }
        const Response r = sub.future.get();
        if (!r.ok || r.stats.cardinality != (use_a ? max_a : max_b)) ++bad;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, 32u);
  EXPECT_EQ(s.failed, 0u);
  // 2 instances x 2 specs = 4 unique jobs; nearly everything else is
  // served from the shared cache.  Racing clients may first-solve one key
  // several times concurrently (at most once per in-flight request), hence
  // the slack.
  EXPECT_GE(s.cache_hits, 32u - 4u * 4u);
  EXPECT_LE(cache->stats().entries, 4u);
}

TEST(Service, ShutdownDrainsQueuedWorkAndRejectsNewSubmissions) {
  MatchingService svc({.workers = 1});
  const auto handle =
      svc.add_instance("g", gen::complete_bipartite(8, 8)).handle;
  std::vector<Submission> subs;
  for (int i = 0; i < 5; ++i) subs.push_back(svc.submit(request(handle, "hk")));
  svc.shutdown();
  for (const Submission& sub : subs) {
    ASSERT_TRUE(sub.accepted);
    EXPECT_TRUE(sub.future.get().ok);  // queued work completed, not dropped
  }
  const Submission late = svc.submit(request(handle, "hk"));
  EXPECT_FALSE(late.accepted);
  EXPECT_NE(late.reason.find("shutting down"), std::string::npos);
}

TEST(Service, DrainWaitsForIdle) {
  MatchingService svc({.workers = 2});
  const auto handle =
      svc.add_instance("g", gen::complete_bipartite(8, 8)).handle;
  for (int i = 0; i < 4; ++i)
    (void)svc.submit(request(handle, "test-sleep:ms=10"));
  svc.drain();
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(Service, CompletedTicketLedgerIsBoundedAndEvictsOldTickets) {
  MatchingService svc({.workers = 2, .completed_ticket_retention = 24});
  const auto handle =
      svc.add_instance("g", gen::complete_bipartite(6, 6)).handle;
  // A month-long-style submit loop through one service: the ledger must
  // hold below its bound the whole way, not only at the end.
  std::uint64_t first_ticket = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<Submission> subs;
    for (int i = 0; i < 20; ++i)
      subs.push_back(svc.submit(request(handle, "hk")));
    for (Submission& sub : subs) {
      ASSERT_TRUE(sub.accepted) << sub.reason;
      if (first_ticket == 0) first_ticket = sub.ticket;
      (void)sub.future.get();
    }
    const ServiceStats during = svc.stats();
    EXPECT_LE(during.tickets_retained,
              24u + during.queued + during.in_flight);
  }
  svc.drain();
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, 200u);
  EXPECT_LE(s.tickets_retained, 24u);
  EXPECT_GE(s.evicted_tickets, 200u - 24u);

  // An evicted ticket is answered with a distinct "expired" response —
  // from poll and wait alike — never a throw, never a deadlock.
  const std::optional<Response> polled = svc.poll(first_ticket);
  ASSERT_TRUE(polled.has_value());
  EXPECT_FALSE(polled->ok);
  EXPECT_TRUE(polled->evicted);
  EXPECT_NE(polled->error.find("ledger"), std::string::npos) << polled->error;
  const Response waited = svc.wait(first_ticket);
  EXPECT_TRUE(waited.evicted);
  EXPECT_EQ(waited.ticket, first_ticket);

  // Retention 0 disables the GC entirely.
  MatchingService unbounded(
      {.workers = 1, .completed_ticket_retention = 0});
  const auto h2 =
      unbounded.add_instance("g", gen::complete_bipartite(4, 4)).handle;
  for (int i = 0; i < 30; ++i)
    (void)unbounded.submit(request(h2, "hk"));
  unbounded.drain();
  EXPECT_EQ(unbounded.stats().tickets_retained, 30u);
  EXPECT_EQ(unbounded.stats().evicted_tickets, 0u);
}

TEST(Service, NeverIssuedTicketsThrowOnPollAndWait) {
  MatchingService svc({.workers = 1});
  // Nothing issued yet: both surfaces must throw — wait in particular
  // must not block forever on a ticket that will never exist.
  EXPECT_THROW((void)svc.poll(1), std::invalid_argument);
  EXPECT_THROW((void)svc.wait(1), std::invalid_argument);
  EXPECT_THROW((void)svc.poll(0), std::invalid_argument);

  const auto handle =
      svc.add_instance("g", gen::complete_bipartite(4, 4)).handle;
  const Submission sub = svc.submit(request(handle, "hk"));
  ASSERT_TRUE(sub.accepted);
  (void)sub.future.get();
  EXPECT_TRUE(svc.poll(sub.ticket).has_value());
  EXPECT_THROW((void)svc.poll(sub.ticket + 1000), std::invalid_argument);
  EXPECT_THROW((void)svc.wait(sub.ticket + 1000), std::invalid_argument);
}

TEST(Service, EngineOdometerTracksSolvedRequestsLive) {
  // One stream per solved request, retired on completion: the odometer is
  // observable while the service keeps running — no shutdown needed.
  MatchingService svc({.workers = 2});
  const auto handle =
      svc.add_instance("g", gen::random_uniform(300, 310, 1500, 11)).handle;
  (void)svc.submit(request(handle, "g-pr-shr")).future.get();
  const device::EngineStats one = svc.engine_stats();
  EXPECT_EQ(one.streams_opened, 1u);
  EXPECT_EQ(one.streams_retired, 1u);
  EXPECT_GT(one.launches, 0u);  // the device solver's kernel launches
  // Sim charges the model; the host backend measures wall time instead.
  if (device::default_backend() == device::Backend::kHost)
    EXPECT_GT(one.native_ms, 0.0);
  else
    EXPECT_GT(one.modeled_ms, 0.0);

  (void)svc.submit(request(handle, "hk")).future.get();  // CPU solver
  const device::EngineStats two = svc.engine_stats();
  EXPECT_EQ(two.streams_retired, 2u);
  EXPECT_EQ(two.launches, one.launches);  // no device work on a CPU run
}

}  // namespace
}  // namespace bpm::serve
