// Randomized serve conformance (src/serve/): a cached, multi-worker
// MatchingService must deliver, per ticket, exactly what a sequential
// one-worker service delivers for the same request stream — identical ok
// flags and matching cardinalities — no matter which worker's stream
// served a request or whether the cache did.  Streams mix instances,
// priorities, deadlines (generous on purpose: a fired deadline would make
// the comparison timing-dependent), and duplicate submissions.  Includes
// a deterministic duplicate-burst cache check and a TSan-targeted stress
// case (many clients, four streams on one engine pool, ledger churn);
// this suite runs in the CI TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "matching/verify.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace bpm::serve {
namespace {

namespace gen = graph::gen;

/// A registered sleeping solver: holds the worker busy for a deterministic
/// window so a burst can pile up in the queue behind it.
class ConformanceSleepSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override {
    return "conformance-test-sleep";
  }
  [[nodiscard]] SolverCaps caps() const override { return {.exact = false}; }
  bool set_option(std::string_view key, std::string_view value) override {
    if (key != "ms") return false;
    ms_ = std::stoi(std::string(value));
    return true;
  }
  [[nodiscard]] Output solve_impl(
      const SolveContext&, const graph::BipartiteGraph&,
      const matching::ValidMatching& init) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return {init};
  }

 private:
  int ms_ = 20;
};

[[maybe_unused]] const bool kRegistered = [] {
  SolverRegistry::instance().add(
      "conformance-test-sleep",
      [] { return std::make_unique<ConformanceSleepSolver>(); });
  return true;
}();

struct StreamRequest {
  std::size_t instance = 0;
  std::string spec;
  int priority = 0;
  double deadline_ms = 0.0;
};

std::vector<graph::BipartiteGraph> conformance_graphs() {
  std::vector<graph::BipartiteGraph> graphs;
  graphs.push_back(gen::random_uniform(140, 150, 620, 11));
  graphs.push_back(gen::planted_perfect(90, 2.0, 5));
  graphs.push_back(gen::chung_lu(120, 130, 4.0, 2.4, 7));
  return graphs;
}

const std::vector<std::string>& spec_pool() {
  // Exact solvers only: their cardinality is the instance maximum on
  // every run, so per-ticket equality holds even for the racy kernels
  // whose edge sets depend on interleaving.
  static const std::vector<std::string> specs = {
      "hk", "pf", "g-pr-shr", "g-pr-shr:k=1.5", "p-dbfs", "seq-pr"};
  return specs;
}

std::vector<StreamRequest> random_stream(std::uint64_t seed, std::size_t n,
                                         std::size_t instances) {
  Rng rng(seed);
  std::vector<StreamRequest> out;
  out.reserve(n);
  while (out.size() < n) {
    if (!out.empty() && rng.below(100) < 30) {
      // Duplicate submission: what the result cache serves.
      out.push_back(out[rng.below(out.size())]);
      continue;
    }
    StreamRequest r;
    r.instance = rng.below(instances);
    r.spec = spec_pool()[rng.below(spec_pool().size())];
    r.priority = static_cast<int>(rng.below(5)) - 2;
    r.deadline_ms = rng.below(4) == 0 ? 60'000.0 : 0.0;
    out.push_back(r);
  }
  return out;
}

struct Served {
  bool ok = false;
  graph::index_t cardinality = 0;
};

/// Registers the conformance graphs, submits the whole stream, waits for
/// every ticket, and returns per-ticket outcomes in submission order.
std::vector<Served> run_stream(const ServiceOptions& options,
                               const std::vector<StreamRequest>& stream) {
  MatchingService svc(options);
  std::vector<std::size_t> handles;
  std::size_t next = 0;
  for (graph::BipartiteGraph& g : conformance_graphs())
    handles.push_back(
        svc.add_instance("g" + std::to_string(next++), std::move(g)).handle);

  std::vector<Submission> subs;
  subs.reserve(stream.size());
  for (const StreamRequest& r : stream)
    subs.push_back(svc.submit({.instance = handles[r.instance],
                               .spec = SolverSpec::parse(r.spec),
                               .priority = r.priority,
                               .deadline_ms = r.deadline_ms}));

  std::vector<Served> out(stream.size());
  for (std::size_t i = 0; i < subs.size(); ++i) {
    EXPECT_TRUE(subs[i].accepted) << subs[i].reason;  // queue sized for all
    if (!subs[i].accepted) continue;
    const Response r = subs[i].future.get();
    EXPECT_TRUE(r.ok) << "request " << i << " (" << stream[i].spec
                      << "): " << r.error;
    out[i] = {r.ok, r.stats.cardinality};
  }
  return out;
}

TEST(ServeConformance, CachedMultiWorkerServiceMatchesSequentialReference) {
  const std::size_t instances = conformance_graphs().size();
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const std::vector<StreamRequest> stream =
        random_stream(seed, 48, instances);

    ServiceOptions reference;
    reference.workers = 1;
    reference.queue_depth = stream.size() + 1;  // no cache: the baseline
    const std::vector<Served> want = run_stream(reference, stream);

    ServiceOptions options;
    options.workers = 3;
    options.queue_depth = stream.size() + 1;
    options.cache = std::make_shared<ResultCache>();
    const std::vector<Served> got = run_stream(options, stream);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ok, want[i].ok)
          << "seed " << seed << " request " << i << " (" << stream[i].spec
          << ")";
      EXPECT_EQ(got[i].cardinality, want[i].cardinality)
          << "seed " << seed << " request " << i << " (" << stream[i].spec
          << ")";
    }
  }
}

TEST(ServeConformance, DuplicateBurstSolvesOnceThenHitsTheCache) {
  // One blocker pins the single worker while 32 identical requests pile
  // up behind it.  Each dispatch then serves one request: the first solves
  // and publishes its verified result, the other 31 are cache hits.
  auto cache = std::make_shared<ResultCache>();
  ServiceOptions options;
  options.workers = 1;
  options.queue_depth = 64;
  options.cache = cache;
  MatchingService svc(options);
  const auto blocker_handle =
      svc.add_instance("blocker", gen::complete_bipartite(6, 6)).handle;
  const auto burst_handle =
      svc.add_instance("burst", gen::random_uniform(140, 150, 620, 11))
          .handle;
  const graph::index_t maximum = matching::reference_maximum_cardinality(
      svc.instances().get(burst_handle).graph);

  const Submission blocker = svc.submit(
      {.instance = blocker_handle,
       .spec = SolverSpec::parse("conformance-test-sleep:ms=250")});
  ASSERT_TRUE(blocker.accepted) << blocker.reason;

  std::vector<Submission> burst;
  for (int i = 0; i < 32; ++i)
    burst.push_back(svc.submit(
        {.instance = burst_handle, .spec = SolverSpec::parse("hk")}));
  std::size_t solved = 0;
  for (const Submission& sub : burst) {
    ASSERT_TRUE(sub.accepted) << sub.reason;
    const Response r = sub.future.get();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.stats.cardinality, maximum);
    if (!r.cached) {
      ++solved;
      continue;
    }
    EXPECT_EQ(r.service_ms, 0.0);
    EXPECT_EQ(r.stats.wall_ms, 0.0);  // cost is never re-charged
  }
  (void)blocker.future.get();

  // One solve; the other 31 are ResultCache hits.  The blocker and the
  // first burst request are the two misses, and only those two dispatches
  // opened a stream on the engine.
  EXPECT_EQ(solved, 1u);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache_hits, 31u);
  EXPECT_EQ(s.dispatches, 33u);
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().hits, 31u);
  EXPECT_EQ(cache->stats().entries, 2u);
  EXPECT_EQ(svc.engine_stats().streams_opened, 2u);
}

TEST(ServeConformance, TSanStressClientsHammerTheService) {
  // The race-hunting configuration: 4 client threads submitting mixed
  // duplicate-heavy traffic against 4 workers whose streams contend on
  // one 2-thread engine pool, a shared cache, an aggressively small
  // completed-ticket ledger (GC races with polling), and concurrent
  // poll() calls.
  ServiceOptions options;
  options.workers = 4;
  options.device_threads = 2;
  options.queue_depth = 512;
  options.cache = std::make_shared<ResultCache>();
  options.completed_ticket_retention = 16;
  MatchingService svc(options);
  const auto a =
      svc.add_instance("a", gen::random_uniform(120, 130, 540, 3)).handle;
  const auto b = svc.add_instance("b", gen::planted_perfect(80, 2.0, 9)).handle;
  const graph::index_t max_a =
      matching::reference_maximum_cardinality(svc.instances().get(a).graph);
  const graph::index_t max_b =
      matching::reference_maximum_cardinality(svc.instances().get(b).graph);

  const std::vector<std::string> specs = {"hk", "pf", "g-pr-shr"};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 77);
      for (int i = 0; i < 24; ++i) {
        const bool use_a = rng.below(2) == 0;
        Submission sub = svc.submit(
            {.instance = use_a ? a : b,
             .spec = SolverSpec::parse(specs[rng.below(specs.size())]),
             .priority = static_cast<int>(rng.below(3))});
        if (!sub.accepted) {
          ++bad;
          continue;
        }
        // Hammer poll concurrently with completion and ledger GC; any
        // state is legal here (pending, done, or already evicted) — the
        // correctness check rides the future below.
        (void)svc.poll(sub.ticket);
        const Response r = sub.future.get();
        if (!r.ok || r.stats.cardinality != (use_a ? max_a : max_b)) ++bad;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  svc.drain();
  EXPECT_EQ(bad.load(), 0);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, 96u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_LE(s.tickets_retained, 16u);
  EXPECT_GE(s.evicted_tickets, 96u - 16u);
  // Every stream the workers opened on the shared engine has retired.
  const device::EngineStats e = svc.engine_stats();
  EXPECT_GT(e.streams_opened, 0u);
  EXPECT_EQ(e.streams_opened, e.streams_retired);
}

}  // namespace
}  // namespace bpm::serve
