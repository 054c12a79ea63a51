// serve::MatchingService + serve::InstanceStore (src/serve/): async
// submit/future and ticket-polling APIs, priority ordering, bounded-queue
// backpressure, deadlines, instance dedup, the store's byte-budgeted LRU
// (pins, oversized instances, re-loads, `error code=evicted` through a
// Session, and a concurrent churn), cache accounting across
// requests (including canonical-spec identity and a snapshot-warmed
// restart), the process-wide metrics registry stream, and
// certificate-only verification rejecting (and never caching) mutants,
// before and after an instance's maximum is proven.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "serve/session.hpp"
#include "sleep_solver.hpp"
#include "valid_init.hpp"

namespace bpm::serve {
namespace {

namespace gen = graph::gen;

[[maybe_unused]] const bool kSleepRegistered =
    (test_support::register_sleep_solver(), true);

Request request(std::size_t instance, const std::string& spec,
                int priority = 0, double deadline_ms = 0.0) {
  return {.instance = instance,
          .spec = SolverSpec::parse(spec),
          .priority = priority,
          .deadline_ms = deadline_ms};
}

/// Runs `spec` on an admitted instance through the dispatch seam, no cache.
JobOutcome run_on(const PipelineInstance& inst, const std::string& spec) {
  device::Device dev({.num_threads = 1});
  const std::unique_ptr<Solver> solver = SolverSpec::parse(spec).instantiate();
  return run_admitted_job({&inst, solver.get(), {}},
                          [&]() -> device::Device& { return dev; }, nullptr, {})
      .outcome;
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
  EXPECT_EQ(inst.init.get().row_match, ks.row_match);
  EXPECT_EQ(inst.init.get().col_match, ks.col_match);
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
  inst.init = test_support::empty_init(inst.graph);
  inst.initial_cardinality = 123;  // sentinel: would be 6 if recomputed
  const auto a = store.add(inst);
  EXPECT_FALSE(a.deduplicated);
  EXPECT_EQ(store.get(a.handle).initial_cardinality, 123);
  const auto b = store.add("same-structure", gen::complete_bipartite(6, 6));
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(b.handle, a.handle);
}

TEST(InstanceStore, PrebuiltInstanceWithAnotherGraphsInitIsRejected) {
  // A prebuilt instance's init is proven against its own graph: one built
  // for another graph of the same shape pairs a non-edge, one of another
  // shape would index out of range.  Both throw and store nothing.
  const graph::BipartiteGraph g = gen::random_uniform(60, 60, 240, 3);
  const graph::BipartiteGraph same_shape = gen::random_uniform(60, 60, 240, 4);
  const graph::BipartiteGraph other_shape = gen::random_uniform(40, 50, 200, 5);
  InstanceStore store;
  for (const graph::BipartiteGraph* from : {&same_shape, &other_shape}) {
    PipelineInstance inst;
    inst.name = "foreign";
    inst.graph = g;
    inst.init = matching::cheap_matching(*from);
    test_support::expect_proof_error(g, inst.init,
                                     [&] { (void)store.add(inst); });
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.find("foreign").has_value());
  }
  PipelineInstance own;
  own.name = "own";
  own.graph = g;
  own.init = matching::cheap_matching(g);
  EXPECT_EQ(store.get(store.add(own).handle).init.get().row_match,
            own.init.get().row_match);
}

TEST(InstanceStore, PrebuiltInstanceWithAnotherGraphsFingerprintGetsItsOwnHandle) {
  // A prebuilt instance's fingerprint is recomputed from its own graph: one
  // carrying a held graph's fingerprint must not dedup onto that graph (and
  // be served its cached results).
  InstanceStore store;
  const auto held = store.add("held", gen::random_uniform(60, 60, 240, 3));
  PipelineInstance inst;
  inst.name = "impostor";
  inst.graph = gen::random_uniform(60, 60, 240, 4);
  inst.init = matching::cheap_matching(inst.graph);
  inst.fingerprint = store.get(held.handle).fingerprint;
  const auto added = store.add(inst);
  EXPECT_FALSE(added.deduplicated);
  EXPECT_NE(added.handle, held.handle);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get(added.handle).fingerprint,
            graph::structural_fingerprint(inst.graph));
  EXPECT_EQ(store.find("held"), held.handle);
}

TEST(InstanceStore, NoInstanceArrivesProven) {
  // Only a job on the stored instance proves its maximum: a copy or a move
  // of a proven instance is stored unproven.  A client loading a held
  // graph again is handed the held instance, proof and all.
  const graph::BipartiteGraph g = gen::random_uniform(300, 310, 1500, 11);
  const graph::index_t nu = matching::reference_maximum_cardinality(g);
  InstanceStore store;
  const auto held = store.add("held", g);
  EXPECT_EQ(held.instance->proven_maximum.get(), ProvenMaximum::kUnproven);
  ASSERT_TRUE(run_on(*held.instance, "hk").ok);
  EXPECT_EQ(held.instance->proven_maximum.get(), nu);
  const auto again = store.add("again", g);
  EXPECT_TRUE(again.deduplicated);
  EXPECT_EQ(again.instance->proven_maximum.get(), nu);

  InstanceStore other;
  const auto copied = other.add(*held.instance);
  EXPECT_EQ(copied.instance->proven_maximum.get(), ProvenMaximum::kUnproven);
  PipelineInstance owned = admit_instance("owned", g, {});
  ASSERT_TRUE(run_on(owned, "hk").ok);
  ASSERT_EQ(owned.proven_maximum.get(), nu);
  InstanceStore third;
  const auto moved = third.add(std::move(owned));
  EXPECT_EQ(moved.instance->proven_maximum.get(), ProvenMaximum::kUnproven);
}

TEST(InstanceStore, APrebuiltMaximumCardinalityProvesNothing) {
  // `maximum_cardinality` is a caller's field, not the proof: with it set
  // too low or too high, a mutant one pair short is rejected before and
  // after an honest solve, and `hk` is accepted at the true maximum.
  test_support::register_mutant_solver();
  const graph::BipartiteGraph g = gen::random_uniform(300, 310, 1500, 11);
  const graph::index_t nu = matching::reference_maximum_cardinality(g);
  for (const graph::index_t claimed : {nu - 1, nu + 1}) {
    PipelineInstance inst = admit_instance("prebuilt", g, {});
    inst.maximum_cardinality = claimed;
    InstanceStore store;
    const PipelineInstance& held = *store.add(std::move(inst)).instance;
    EXPECT_EQ(held.proven_maximum.get(), ProvenMaximum::kUnproven);
    for (int pass = 0; pass < 2; ++pass) {
      const JobOutcome mutant = run_on(held, "test-mutant:mode=minus-one");
      EXPECT_FALSE(mutant.ok);
      EXPECT_NE(mutant.error.find("Berge certificate failed"),
                std::string::npos)
          << mutant.error;
      const JobOutcome hk = run_on(held, "hk");
      EXPECT_TRUE(hk.ok) << hk.error;
      EXPECT_EQ(hk.stats.cardinality, nu);
      EXPECT_EQ(held.proven_maximum.get(), nu);
    }
  }
}

/// The bytes a store charges for `g` once admitted (under a short name).
std::size_t bytes_of(const graph::BipartiteGraph& g) {
  InstanceStore probe;
  (void)probe.add("probe", g);
  return probe.stats().bytes;
}

/// Distinct graphs of nearly equal size, and a budget that holds two of
/// any three of them.
std::vector<graph::BipartiteGraph> equal_graphs(int n) {
  std::vector<graph::BipartiteGraph> out;
  for (int i = 0; i < n; ++i)
    out.push_back(gen::random_uniform(300, 310, 1500,
                                      static_cast<std::uint64_t>(i + 1)));
  return out;
}
std::size_t two_of_three(const std::vector<graph::BipartiteGraph>& graphs) {
  std::size_t hi = 0, lo = SIZE_MAX;
  for (const auto& g : graphs) {
    hi = std::max(hi, bytes_of(g));
    lo = std::min(lo, bytes_of(g));
  }
  const std::size_t budget = 2 * hi + hi / 4;
  EXPECT_LT(budget, 3 * lo);  // three never fit
  return budget;
}

TEST(InstanceStore, DefaultStoreHasTheServiceDefaultBudget) {
  EXPECT_EQ(InstanceStore().stats().byte_budget, std::size_t{64} << 20);
  EXPECT_EQ(ServiceOptions{}.store_bytes, std::size_t{64} << 20);
}

TEST(InstanceStore, NamesCostBytesAndAreEvictedWithTheirInstance) {
  const auto graphs = equal_graphs(3);
  const std::size_t budget = two_of_three(graphs);
  InstanceStore store(budget);
  const auto a = store.add("A", graphs[0]).handle;
  const auto b = store.add("B", graphs[1]).handle;
  const std::size_t held = store.stats().bytes;
  EXPECT_EQ(held, bytes_of(graphs[0]) + bytes_of(graphs[1]) -
                      2 * InstanceStore::name_bytes("probe") +
                      2 * InstanceStore::name_bytes("A"));

  // An alias is charged; re-pointing a name moves its charge.
  {
    const auto alias = store.add("A2", graphs[0]);
    EXPECT_TRUE(alias.deduplicated);
    EXPECT_EQ(alias.instance.get(), &store.get(a));  // pinned until here
  }
  EXPECT_EQ(store.stats().bytes, held + InstanceStore::name_bytes("A2"));
  (void)store.add("A2", graphs[1]);
  EXPECT_EQ(store.find("A2"), b);
  EXPECT_EQ(store.stats().bytes, held + InstanceStore::name_bytes("A2"));

  // One graph under ever more long names: the aliases push B out, and
  // past the budget on its own A forgets its oldest names.
  const std::string pad(1000, 'x');
  const std::size_t aliases =
      2 * budget / InstanceStore::name_bytes(pad) + 1;
  for (std::size_t i = 0; i < aliases; ++i)
    EXPECT_EQ(store.add(pad + std::to_string(i), graphs[0]).handle, a);
  EXPECT_TRUE(store.evicted(b));
  EXPECT_EQ(store.pin(b), nullptr);
  EXPECT_LE(store.stats().bytes, budget);
  EXPECT_FALSE(store.find("A").has_value());
  EXPECT_TRUE(store.evicted_name("A"));
  const std::string last = pad + std::to_string(aliases - 1);
  EXPECT_EQ(store.find(last), a);

  // Evicting A drops every name it still had, and their bytes.
  const auto c = store.add("C", graphs[2]);
  EXPECT_EQ(c.evicted, 1u);
  EXPECT_TRUE(store.evicted(a));
  EXPECT_FALSE(store.find(last).has_value());
  EXPECT_TRUE(store.evicted_name(last));
  EXPECT_EQ(store.stats().bytes, bytes_of(graphs[2]) -
                                     InstanceStore::name_bytes("probe") +
                                     InstanceStore::name_bytes("C"));
}

TEST(InstanceStore, EvictsTheLeastRecentlyUsedInstance) {
  const auto graphs = equal_graphs(3);
  const std::size_t budget = two_of_three(graphs);
  MatchingService svc({.workers = 1, .store_bytes = budget});
  const auto a = svc.add_instance("A", graphs[0]).handle;
  const auto b = svc.add_instance("B", graphs[1]).handle;
  // A submit uses A, so B becomes the least recently used.
  ASSERT_TRUE(svc.submit(request(a, "hk")).future.get().ok);
  const auto c = svc.add_instance("C", graphs[2]);
  EXPECT_EQ(c.evicted, 1u);

  const InstanceStore& store = svc.instances();
  EXPECT_FALSE(store.find("B").has_value());
  EXPECT_TRUE(store.evicted(b));
  EXPECT_FALSE(store.evicted(a));
  EXPECT_THROW((void)store.get(b), std::out_of_range);
  EXPECT_EQ(store.find("A"), a);
  EXPECT_EQ(store.find("C"), c.handle);
  EXPECT_EQ(store.names(), (std::vector<std::string>{"A", "C"}));
  const StoreStats st = store.stats();
  EXPECT_EQ(st.instances, 2u);
  EXPECT_EQ(st.evicted, 1u);
  EXPECT_LE(st.bytes, budget);
  EXPECT_EQ(st.byte_budget, budget);

  // Handles are never reused, so an evicted one is told apart from one
  // that was never issued.
  EXPECT_EQ(c.handle, b + 1);
  EXPECT_FALSE(store.evicted(c.handle + 1));
  const Submission gone = svc.submit(request(b, "hk"));
  EXPECT_FALSE(gone.accepted);
  EXPECT_EQ(gone.reason, "evicted instance handle " + std::to_string(b));
}

TEST(InstanceStore, PinnedInstancesAreNeverEvicted) {
  const auto graphs = equal_graphs(5);
  const std::size_t budget = two_of_three(graphs);
  MatchingService svc({.workers = 1, .store_bytes = budget});
  // S's slow job holds the only worker; A's ticket queues behind it.
  const auto s = svc.add_instance("S", graphs[0]).handle;
  const Submission blocker = svc.submit(request(s, "test-sleep:ms=500"));
  const auto a = svc.add_instance("A", graphs[1]).handle;
  const Submission queued = svc.submit(request(a, "hk"));
  ASSERT_TRUE(blocker.accepted && queued.accepted);

  // Loading past the budget evicts only what no ticket pins.
  (void)svc.add_instance("B", graphs[2]);
  (void)svc.add_instance("C", graphs[3]);
  const InstanceStore& store = svc.instances();
  EXPECT_EQ(store.find("S"), s);
  EXPECT_EQ(store.find("A"), a);
  EXPECT_FALSE(store.find("B").has_value());
  EXPECT_GT(store.stats().bytes, budget);  // over budget by the pins

  const Response r = queued.future.get();
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.instance_name, "A");
  (void)blocker.future.get();
  // Both tickets are done, so the next load evicts S and A (oldest first).
  EXPECT_EQ(svc.add_instance("D", graphs[4]).evicted, 2u);
  EXPECT_TRUE(store.evicted(s));
  EXPECT_TRUE(store.evicted(a));
  EXPECT_EQ(store.names(), (std::vector<std::string>{"C", "D"}));
  EXPECT_LE(store.stats().bytes, budget);
}

TEST(InstanceStore, OversizedInstanceEvictsEveryUnpinnedOneAndStillServes) {
  const auto small1 = gen::random_uniform(100, 110, 400, 1);
  const auto small2 = gen::random_uniform(100, 110, 400, 2);
  const auto big = gen::random_uniform(2000, 2100, 12000, 3);
  const std::size_t budget = 3 * std::max(bytes_of(small1), bytes_of(small2));
  ASSERT_GT(bytes_of(big), budget);

  MatchingService svc({.workers = 1, .store_bytes = budget});
  (void)svc.add_instance("s1", small1);
  (void)svc.add_instance("s2", small2);
  const auto added = svc.add_instance("big", big);
  EXPECT_FALSE(added.deduplicated);
  EXPECT_EQ(added.evicted, 2u);
  EXPECT_EQ(svc.instances().names(), std::vector<std::string>{"big"});
  EXPECT_GT(svc.instances().stats().bytes, budget);
  const Response r = svc.submit(request(added.handle, "hk")).future.get();
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stats.cardinality, matching::reference_maximum_cardinality(big));
}

TEST(InstanceStore, ReloadingAnEvictedGraphGetsANewHandleAndHitsTheCache) {
  const auto graphs = equal_graphs(3);
  auto cache = std::make_shared<ResultCache>();
  MatchingService svc(
      {.workers = 1, .store_bytes = two_of_three(graphs), .cache = cache});
  const auto a = svc.add_instance("A", graphs[0]).handle;
  const Response first = svc.submit(request(a, "hk")).future.get();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cached);
  (void)svc.add_instance("B", graphs[1]);
  const auto c = svc.add_instance("C", graphs[2]).handle;
  ASSERT_TRUE(svc.instances().evicted(a));

  // The fingerprint entry went with the instance: no dedup, a new handle,
  // and the result cache (keyed by fingerprint) still answers.
  const auto again = svc.add_instance("A", graphs[0]);
  EXPECT_FALSE(again.deduplicated);
  EXPECT_GT(again.handle, c);
  const Response second = svc.submit(request(again.handle, "hk")).future.get();
  EXPECT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.stats.cardinality, first.stats.cardinality);
}

/// One Session line's first reply.
std::string reply(Session& session, const std::string& line) {
  const Session::Outcome out = session.execute(line);
  return out.lines.empty() ? std::string() : out.lines.front();
}

/// The integer after `key=` in a reply line.
std::size_t field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return SIZE_MAX;
  return std::stoull(line.substr(at + key.size() + 2));
}

TEST(InstanceStore, SessionAnswersEvictedNamesApartFromUnknownOnes) {
  const auto graphs = equal_graphs(3);  // what `gen <n> uniform ...` builds
  const std::size_t budget = two_of_three(graphs);
  MatchingService svc({.workers = 1, .store_bytes = budget});
  SessionContext context(svc);
  Session session(context);
  for (const char* name : {"a", "b", "c"}) {
    const std::string line = "gen " + std::string(name) +
                             " uniform 300 310 1500 " +
                             std::to_string(name[0] - 'a' + 1);
    EXPECT_TRUE(reply(session, line).starts_with("instance ")) << line;
  }
  EXPECT_TRUE(reply(session, "submit a hk").starts_with("error code=evicted"));
  EXPECT_TRUE(reply(session, "submit never-loaded hk")
                  .starts_with("error code=unknown-instance"));
  EXPECT_TRUE(reply(session, "submit b hk").starts_with("ticket "));

  const std::string stats = reply(session, "stats");
  EXPECT_EQ(field(stats, "instances"), 2u) << stats;
  EXPECT_EQ(field(stats, "evicted_instances"), 1u) << stats;
  EXPECT_EQ(field(stats, "store_budget"), budget) << stats;
  EXPECT_LE(field(stats, "store_bytes"), budget) << stats;
}

TEST(InstanceStore, ConcurrentChurnKeepsEveryAnswerAndTheBudget) {
  // Each client loads a fresh graph, submits on it and waits, under a
  // budget of about three instances.  A load's reply pins its graph, so
  // every load succeeds; between the reply and the submit it is unpinned,
  // so another client's load may evict it, and the client then loads it
  // again (counted in `reloads`).  At most one instance per client is
  // pinned or just added, which bounds the store's overshoot.
  constexpr int kClients = 4;
  constexpr int kRounds = 12;
  const auto graph_line = [](int c, int i) {
    return "uniform 200 210 800 " + std::to_string(1000 * c + i + 1);
  };
  std::size_t b = 0;
  for (int c = 0; c < kClients; ++c)
    for (int i = 0; i < kRounds; ++i)
      b = std::max(b, bytes_of(gen::random_uniform(
                          200, 210, 800,
                          static_cast<std::uint64_t>(1000 * c + i + 1))));
  const std::size_t budget = 3 * b;
  MatchingService svc({.workers = 2, .store_bytes = budget});
  SessionContext context(svc);

  std::atomic<int> bad{0}, over{0}, reloads{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session session(context);
      for (int i = 0; i < kRounds; ++i) {
        const std::string name = "c" + std::to_string(c) + "-" +
                                 std::to_string(i);
        std::string ticket;
        while (ticket.empty()) {
          const std::string load =
              reply(session, "gen " + name + " " + graph_line(c, i));
          if (!load.starts_with("instance ")) {
            ++bad;
            break;
          }
          const std::string sub = reply(session, "submit " + name + " hk");
          if (sub.starts_with("ticket ")) {
            ticket = sub.substr(7);
          } else if (sub.find("evicted") != std::string::npos) {
            ++reloads;
          } else {
            ++bad;
            break;
          }
        }
        if (ticket.empty()) continue;
        if (reply(session, "wait " + ticket).find(" ok=1 ") ==
            std::string::npos)
          ++bad;
        const std::string stats = reply(session, "stats");
        if (field(stats, "store_bytes") > budget + kClients * b) ++over;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(over.load(), 0);
  const StoreStats st = svc.instances().stats();
  EXPECT_GT(st.evicted, 0u);
  EXPECT_EQ(svc.stats().completed, std::uint64_t{kClients * kRounds});
  EXPECT_EQ(st.evicted + st.instances,
            std::uint64_t{kClients * kRounds} +
                static_cast<std::uint64_t>(reloads.load()));
}

TEST(Service, SubmitFutureDeliversVerifiedResults) {
  MatchingService svc({.workers = 2});
  const auto g = gen::random_uniform(300, 310, 1500, 11);
  const auto handle = svc.add_instance("g", g).handle;

  // The expected outcome, from a sequential pipeline on the same graph.
  MatchingPipeline pipe;
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
  // The service's own registry holds only this service's traffic, so
  // every count is exact.
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
  const ServiceStats s = svc.stats();
  ASSERT_EQ(s.completed, 3u);
  ASSERT_EQ(s.cache_hits, 1u);

  obs::Registry& reg = svc.metrics();
  const auto count = [&](const char* name) {
    return reg.counter(name).value();
  };
  const auto samples = [&](const char* name) {
    return reg.histogram(name).snapshot().count;
  };
  EXPECT_EQ(count("serve.submitted"), 4u);
  EXPECT_EQ(count("serve.accepted"), 3u);
  EXPECT_EQ(count("serve.rejected"), 1u);
  EXPECT_EQ(count("serve.completed"), 3u);
  EXPECT_EQ(count("serve.cache_hits"), 1u);
  EXPECT_EQ(count("serve.submitted"), s.submitted);
  EXPECT_EQ(count("serve.accepted"), s.accepted);
  EXPECT_EQ(count("serve.rejected"), s.rejected);
  EXPECT_EQ(samples("serve.latency_ms"), 3u);  // every completion
  EXPECT_EQ(samples("serve.queue_ms"), 3u);    // every completion
  EXPECT_EQ(samples("serve.service_ms"), 2u);  // a cache hit records none
  EXPECT_EQ(samples("serve.admit_ms"), 1u);    // the one add_instance
  // The per-solver histograms behind the solver table: solved requests
  // only, under their solvers' registry names.
  EXPECT_EQ(samples("serve.solver_ms.hk"), 1u);
  EXPECT_EQ(samples("serve.solver_ms.seq-pr"), 1u);
  const std::vector<SolverLatency> table = svc.solver_stats();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0].solver, "hk");
  EXPECT_EQ(table[0].count, 1u);
  EXPECT_DOUBLE_EQ(table[0].mean_ms,
                   reg.histogram("serve.solver_ms.hk").snapshot().sum);
  EXPECT_EQ(table[1].solver, "seq-pr");
}

TEST(Service, SolverTableIsBoundedByTheRegistry) {
  // A client that varies an option value on every request (`k=1.1`,
  // `k=1.10`, ... are distinct specs) still adds to one row per solver.
  MatchingService svc({.workers = 2});
  const auto handle =
      svc.add_instance("g", gen::random_uniform(120, 120, 500, 4)).handle;
  std::vector<Submission> subs;
  for (int i = 0; i < 50; ++i)
    subs.push_back(svc.submit(request(handle, "seq-pr:k=1." +
                                                  std::to_string(i))));
  for (const Submission& s : subs) {
    ASSERT_TRUE(s.accepted) << s.reason;
    ASSERT_TRUE(s.future.get().ok);
  }
  const std::vector<SolverLatency> table = svc.solver_stats();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].solver, "seq-pr");
  EXPECT_EQ(table[0].count, 50u);
}

TEST(Service, TwoServicesInOneProcessCountOnlyTheirOwn) {
  // Two services in one process, each with its own traffic: every read of
  // one — `stats()`, the `stats` line and the `metrics` reply — shows its
  // own counts and none of the other's.
  struct Traffic {
    const char* graph;
    std::vector<const char*> specs;  // submitted and waited for in order
    std::uint64_t cache_hits;
  };
  const Traffic traffic[] = {
      {"gen g planted 40 1.0 3", {"hk", "hk"}, 1},
      {"gen g uniform 60 60 240 5", {"seq-pr", "hk", "hk", "seq-pr", "hk"}, 3}};
  MatchingService a({.workers = 1, .cache = std::make_shared<ResultCache>()});
  MatchingService b({.workers = 2, .cache = std::make_shared<ResultCache>()});
  SessionContext ca(a);
  SessionContext cb(b);
  Session sa(ca);
  Session sb(cb);
  Session* sessions[] = {&sa, &sb};
  for (int i = 0; i < 2; ++i) {
    Session& session = *sessions[i];
    ASSERT_TRUE(reply(session, traffic[i].graph).starts_with("instance g"));
    for (const char* spec : traffic[i].specs) {
      const std::string ticket =
          reply(session, std::string("submit g ") + spec);
      ASSERT_TRUE(ticket.starts_with("ticket ")) << ticket;
      const std::string result = reply(session, "wait " + ticket.substr(7));
      EXPECT_EQ(field(result, "ok"), 1u) << result;
    }
  }

  // The integer after `"name": ` (a counter) or `"name": {"count": ` (a
  // histogram) in a `metrics` reply.
  const auto json_count = [](const std::string& json, const std::string& key) {
    const std::size_t at = json.find('"' + key + "\": ");
    if (at == std::string::npos) return SIZE_MAX;
    std::size_t from = at + key.size() + 4;
    if (json.compare(from, 10, "{\"count\": ") == 0) from += 10;
    return static_cast<std::size_t>(std::stoull(json.substr(from)));
  };
  MatchingService* services[] = {&a, &b};
  for (int i = 0; i < 2; ++i) {
    const std::size_t n = traffic[i].specs.size();
    const std::uint64_t hits = traffic[i].cache_hits;
    const ServiceStats s = services[i]->stats();
    EXPECT_EQ(s.submitted, n) << i;
    EXPECT_EQ(s.completed, n) << i;
    EXPECT_EQ(s.cache_hits, hits) << i;

    const std::string stats = reply(*sessions[i], "stats");
    ASSERT_TRUE(stats.starts_with("stats ")) << stats;
    EXPECT_EQ(field(stats, "submitted"), n) << stats;
    EXPECT_EQ(field(stats, "completed"), n) << stats;
    EXPECT_EQ(field(stats, "cache_hits"), hits) << stats;

    const std::string metrics = reply(*sessions[i], "metrics");
    EXPECT_EQ(json_count(metrics, "serve.submitted"), n) << metrics;
    EXPECT_EQ(json_count(metrics, "serve.completed"), n) << metrics;
    EXPECT_EQ(json_count(metrics, "serve.cache_hits"), hits) << metrics;
    EXPECT_EQ(json_count(metrics, "serve.latency_ms"), n) << metrics;
  }
}

TEST(Service, MetricsCountOnlyTheServicesOwnEngineLaunches) {
  // Launch counts live in each stream and in the engine odometer it
  // retires into; the `metrics` reply publishes that odometer, so a
  // second service's launches never show up in the first one's reply.
  const graph::BipartiteGraph graphs[] = {
      gen::random_uniform(300, 310, 1500, 11),
      gen::chung_lu(500, 520, 4.0, 2.4, 7)};
  MatchingService a({.workers = 1});
  MatchingService b({.workers = 1});
  // `a` solves the first graph and `b` both, so `b` launches strictly more.
  const std::pair<MatchingService*, const graph::BipartiteGraph*> solves[] = {
      {&a, &graphs[0]}, {&b, &graphs[0]}, {&b, &graphs[1]}};
  for (const auto& [svc, g] : solves) {
    const auto handle = svc->add_instance("g", *g).handle;
    const Response r = svc->submit(request(handle, "g-pr-shr")).future.get();
    ASSERT_TRUE(r.ok) << r.error;
  }
  MatchingService* services[] = {&a, &b};
  std::uint64_t launches[2] = {};
  for (int i = 0; i < 2; ++i) {
    const std::string json = services[i]->metrics_json();
    const std::string key = "\"serve.engine.0.launches\": ";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << json;
    launches[i] = std::stoull(json.substr(at + key.size()));
    EXPECT_GT(launches[i], 0u) << i;
    EXPECT_EQ(launches[i], services[i]->engine_stats().launches) << i;
  }
  EXPECT_LT(launches[0], launches[1]);
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

/// Submits every `kMutants` spec twice on `handle`: each response is
/// `ok == false` with its check's error and never a cache hit, so no
/// mutant was published.  They are the service's only failures.
void submit_every_mutant_twice(MatchingService& svc, std::size_t handle) {
  const auto& mutants = test_support::kMutants;
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& [spec, error] : mutants) {
      const Response r = svc.submit(request(handle, spec)).future.get();
      EXPECT_FALSE(r.ok) << spec;
      EXPECT_FALSE(r.cached) << spec << " (pass " << pass << ")";
      EXPECT_NE(r.error.find(error), std::string::npos) << spec << ": "
                                                        << r.error;
    }
  EXPECT_EQ(svc.stats().failed, 2 * mutants.size());
}

TEST(Service, CertificateRejectsMutantsAndNeverCachesThem) {
  // The service verifies exactly as the pipeline does: each mutant
  // response is `ok == false`, is never published to the cache,
  // and so fails again (uncached) when resubmitted.  Every mutant runs
  // before any honest solve, so each exact one meets the Berge search.
  test_support::register_mutant_solver();
  auto cache = std::make_shared<ResultCache>();
  MatchingService svc({.workers = 2, .cache = cache});
  const auto handle =
      svc.add_instance("g", gen::random_uniform(300, 310, 1500, 11)).handle;
  submit_every_mutant_twice(svc, handle);
  EXPECT_EQ(cache->stats().entries, 0u);

  // The honest control beside them verifies against the independent
  // oracle and is the only entry cached.
  const Response hk = svc.submit(request(handle, "hk")).future.get();
  EXPECT_TRUE(hk.ok) << hk.error;
  EXPECT_EQ(hk.stats.cardinality, matching::reference_maximum_cardinality(
                                      svc.instances().get(handle).graph));
  EXPECT_EQ(cache->stats().entries, 1u);
}

TEST(Service, ProvenInstanceStillRejectsMutantsAndNeverCachesThem) {
  // An honest `hk` proves the instance first, so every later exact job is
  // checked against the proven maximum: each mutant still fails with the
  // same error and is never cached.
  test_support::register_mutant_solver();
  auto cache = std::make_shared<ResultCache>();
  MatchingService svc({.workers = 2, .cache = cache});
  const auto added =
      svc.add_instance("g", gen::random_uniform(300, 310, 1500, 11));
  const Response hk = svc.submit(request(added.handle, "hk")).future.get();
  ASSERT_TRUE(hk.ok) << hk.error;
  const graph::index_t nu =
      matching::reference_maximum_cardinality(added.instance->graph);
  EXPECT_EQ(hk.stats.cardinality, nu);
  EXPECT_EQ(added.instance->proven_maximum.get(), nu);

  submit_every_mutant_twice(svc, added.handle);
  EXPECT_EQ(cache->stats().entries, 1u);
  EXPECT_EQ(added.instance->proven_maximum.get(), nu);
}

TEST(Service, FirstProofsRaceAndEveryAnswerVerifies) {
  // Workers take different exact specs on one fresh instance at once, so
  // several first proofs (and mutant checks) race on its memo; every
  // honest answer verifies at the true maximum, every mutant is rejected.
  test_support::register_mutant_solver();
  const std::vector<std::string> specs = {
      "hk",     "g-pr-shr", "seq-pr", "p-dbfs",
      "hkdw",   "pf",       "g-pr-wb", "test-mutant:mode=minus-one"};
  MatchingService svc({.workers = 4, .device_threads = 2});
  for (std::uint64_t round = 0; round < 8; ++round) {
    const auto added =
        svc.add_instance("g" + std::to_string(round),
                         gen::random_uniform(300, 310, 1500, 20 + round));
    const graph::index_t nu =
        matching::reference_maximum_cardinality(added.instance->graph);
    std::vector<Submission> subs;
    for (const std::string& spec : specs)
      subs.push_back(svc.submit(request(added.handle, spec)));
    for (std::size_t i = 0; i < subs.size(); ++i) {
      ASSERT_TRUE(subs[i].accepted) << subs[i].reason;
      const Response r = subs[i].future.get();
      if (specs[i].starts_with("test-mutant")) {
        EXPECT_FALSE(r.ok) << specs[i];
        EXPECT_NE(r.error.find("Berge certificate failed"), std::string::npos)
            << r.error;
      } else {
        EXPECT_TRUE(r.ok) << specs[i] << ": " << r.error;
        EXPECT_EQ(r.stats.cardinality, nu) << specs[i];
      }
    }
    EXPECT_EQ(added.instance->proven_maximum.get(), nu);
  }
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

  // Retention 0 is a bound too: it keeps no completed ticket.
  MatchingService none({.workers = 1, .completed_ticket_retention = 0});
  const auto h2 = none.add_instance("g", gen::complete_bipartite(4, 4)).handle;
  for (int i = 0; i < 30; ++i)
    (void)none.submit(request(h2, "hk"));
  none.drain();
  EXPECT_EQ(none.stats().tickets_retained, 0u);
  EXPECT_EQ(none.stats().evicted_tickets, 30u);
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
  // Every launch is measured and charged the model.
  EXPECT_GT(one.modeled_ms, 0.0);
  EXPECT_GT(one.native_ms, 0.0);

  (void)svc.submit(request(handle, "hk")).future.get();  // CPU solver
  const device::EngineStats two = svc.engine_stats();
  EXPECT_EQ(two.streams_retired, 2u);
  EXPECT_EQ(two.launches, one.launches);  // no device work on a CPU run
}

// Concurrent dispatches solve on per-dispatch streams of one engine: each
// ticket's launch count must equal a one-worker service's (same kernels,
// different streams), and the engine's odometer their sum — proving
// streams do not corrupt each other's counters.
TEST(Service, StreamsKeepLaunchAccountingExactUnderConcurrency) {
  // A one-thread engine: per-job launch counts are deterministic, so any
  // cross-stream corruption shows up as a count mismatch.  No cache, so
  // every ticket solves.  G-HK's phase structure is deterministic given
  // the init, so launch counts are comparable ticket for ticket.
  std::vector<graph::BipartiteGraph> graphs;
  for (int i = 0; i < 6; ++i) {
    const auto seed = static_cast<std::uint64_t>(11 * i + 3);
    graphs.push_back(i % 2 == 0
                         ? gen::random_uniform(300 + 20 * i, 310, 1500, seed)
                         : gen::chung_lu(250 + 10 * i, 260, 4.0, 2.4, seed));
  }
  const auto serve = [&](unsigned workers) {
    MatchingService svc({.workers = workers, .device_threads = 1});
    std::vector<std::size_t> handles;
    for (std::size_t i = 0; i < graphs.size(); ++i)
      handles.push_back(
          svc.add_instance("g" + std::to_string(i), graphs[i]).handle);
    std::vector<Submission> subs;
    for (int round = 0; round < 3; ++round)
      for (const std::size_t handle : handles)
        subs.push_back(svc.submit(request(handle, "g-hkdw")));
    std::vector<std::int64_t> launches;
    std::uint64_t sum = 0;
    for (const Submission& sub : subs) {
      EXPECT_TRUE(sub.accepted) << sub.reason;
      const Response r = sub.future.get();
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_FALSE(r.cached);
      EXPECT_GT(r.stats.device_launches, 0);
      launches.push_back(r.stats.device_launches);
      sum += static_cast<std::uint64_t>(r.stats.device_launches);
    }
    EXPECT_EQ(svc.engine_stats().launches, sum) << workers << " workers";
    return launches;
  };
  const std::vector<std::int64_t> one = serve(1);
  const std::vector<std::int64_t> four = serve(4);
  ASSERT_EQ(four.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    EXPECT_EQ(four[i], one[i]) << "ticket " << i;
}

}  // namespace
}  // namespace bpm::serve
