// serve::ResultCache (src/serve/result_cache.hpp): LRU eviction under a
// byte budget, recency refresh on hits, locking correctness under
// concurrent access, and deterministic snapshot save/load round trips
// that survive hostile lengths.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/result_cache.hpp"
#include "util/rng.hpp"

namespace bpm::serve {
namespace {

JobOutcome outcome(graph::index_t cardinality, const std::string& detail = "",
                   bool ok = true, const std::string& error = "") {
  JobOutcome o;
  o.stats.cardinality = cardinality;
  o.stats.wall_ms = 1.25 * static_cast<double>(cardinality);
  o.stats.modeled_ms = 0.5;
  o.stats.device_launches = 7;
  o.stats.iterations = 3;
  o.stats.detail = detail;
  o.ok = ok;
  o.error = error;
  return o;
}

TEST(ResultCache, PutGetRoundTripsEveryField) {
  ResultCache cache;
  cache.put(42, "g-pr-shr:k=1.5", outcome(398, "loops=12 pushes=3456"));
  const auto hit = cache.get(42, "g-pr-shr:k=1.5");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->stats.cardinality, 398);
  EXPECT_DOUBLE_EQ(hit->stats.wall_ms, 1.25 * 398);
  EXPECT_EQ(hit->stats.device_launches, 7);
  EXPECT_EQ(hit->stats.iterations, 3);
  EXPECT_EQ(hit->stats.detail, "loops=12 pushes=3456");
  EXPECT_TRUE(hit->ok);

  // Distinct solver spec and distinct fingerprint are distinct entries.
  EXPECT_FALSE(cache.get(42, "hk").has_value());
  EXPECT_FALSE(cache.get(43, "g-pr-shr:k=1.5").has_value());

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ResultCache, OverwriteRefreshesInsteadOfDuplicating) {
  ResultCache cache;
  cache.put(1, "hk", outcome(10));
  cache.put(1, "hk", outcome(20));
  const auto hit = cache.get(1, "hk");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->stats.cardinality, 20);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);  // in-place update, not a new entry
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderTheByteBudget) {
  // Budget sized for ~2 entries (each entry charges a fixed overhead plus
  // its strings).
  ResultCache cache({.byte_budget = 300});
  cache.put(1, "a", outcome(1));
  cache.put(2, "b", outcome(2));
  cache.put(3, "c", outcome(3));  // evicts fingerprint 1 (oldest)
  EXPECT_FALSE(cache.get(1, "a").has_value());
  EXPECT_TRUE(cache.get(2, "b").has_value());
  EXPECT_TRUE(cache.get(3, "c").has_value());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, 300u);
}

TEST(ResultCache, GetRefreshesRecencySoHotEntriesSurvive) {
  ResultCache cache({.byte_budget = 300});
  cache.put(1, "a", outcome(1));
  cache.put(2, "b", outcome(2));
  ASSERT_TRUE(cache.get(1, "a").has_value());  // 1 is now the MRU
  cache.put(3, "c", outcome(3));               // so 2 is the victim
  EXPECT_TRUE(cache.get(1, "a").has_value());
  EXPECT_FALSE(cache.get(2, "b").has_value());
  EXPECT_TRUE(cache.get(3, "c").has_value());
}

TEST(ResultCache, OversizedEntryIsKeptAlone) {
  ResultCache cache({.byte_budget = 200});
  cache.put(1, "a", outcome(1));
  cache.put(2, "big", outcome(2, std::string(10000, 'x')));
  EXPECT_FALSE(cache.get(1, "a").has_value());
  const auto hit = cache.get(2, "big");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->stats.detail.size(), 10000u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, ConcurrentHitsStayCorrect) {
  // Hammer a small key space from many threads: every get must return
  // either nothing or the exact outcome put under that key — locking bugs
  // surface as torn/mismatched values (and under TSan, as
  // races).
  ResultCache cache({.byte_budget = std::size_t{8} << 20});
  constexpr int kKeys = 64;
  constexpr int kOpsPerThread = 2000;
  const unsigned threads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key = (i * 31 + static_cast<int>(t) * 7) % kKeys;
        const auto fp = static_cast<std::uint64_t>(key);
        const std::string solver = "s" + std::to_string(key % 5);
        if (i % 3 == 0) {
          cache.put(fp, solver, outcome(key, "detail-" + std::to_string(key)));
        } else if (const auto hit = cache.get(fp, solver)) {
          if (hit->stats.cardinality != key ||
              hit->stats.detail != "detail-" + std::to_string(key))
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats s = cache.stats();
  EXPECT_GT(s.hits, 0u);
  // Every get is accounted exactly once: per thread, the i % 3 != 0 ops.
  const std::uint64_t gets_per_thread = kOpsPerThread - (kOpsPerThread + 2) / 3;
  EXPECT_EQ(s.hits + s.misses, threads * gets_per_thread);
}

TEST(ResultCache, SnapshotRoundTripIsDeterministic) {
  ResultCache cache({.byte_budget = std::size_t{1} << 20});
  for (int i = 0; i < 20; ++i)
    cache.put(static_cast<std::uint64_t>(i * 977),
              "solver-" + std::to_string(i % 3),
              outcome(i, "detail with spaces " + std::to_string(i),
                      i % 4 != 0, i % 4 == 0 ? "some error text" : ""));
  (void)cache.get(0, "solver-0");  // perturb recency: survives the trip too

  std::ostringstream first;
  cache.save(first);

  ResultCache reloaded({.byte_budget = std::size_t{1} << 20});
  std::istringstream in(first.str());
  EXPECT_EQ(reloaded.load(in), 20u);

  // Same contents...
  for (int i = 0; i < 20; ++i) {
    const auto hit = reloaded.get(static_cast<std::uint64_t>(i * 977),
                                  "solver-" + std::to_string(i % 3));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->stats.cardinality, i);
    EXPECT_DOUBLE_EQ(hit->stats.wall_ms, 1.25 * i);
    EXPECT_EQ(hit->stats.detail, "detail with spaces " + std::to_string(i));
    EXPECT_EQ(hit->ok, i % 4 != 0);
    EXPECT_EQ(hit->error, i % 4 == 0 ? "some error text" : "");
  }
  EXPECT_EQ(reloaded.stats().entries, cache.stats().entries);
  EXPECT_EQ(reloaded.stats().bytes, cache.stats().bytes);

  // ...and save -> load -> save is byte-identical (recency order included;
  // the gets above refreshed entries, so save again from a fresh copy).
  ResultCache again({.byte_budget = std::size_t{1} << 20});
  std::istringstream in2(first.str());
  EXPECT_EQ(again.load(in2), 20u);
  std::ostringstream second;
  again.save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(ResultCache, SnapshotLoadEnforcesTheBudget) {
  ResultCache cache({.byte_budget = std::size_t{1} << 20});
  for (int i = 0; i < 50; ++i)
    cache.put(static_cast<std::uint64_t>(i), "s", outcome(i));
  std::ostringstream snap;
  cache.save(snap);

  ResultCache tiny({.byte_budget = 400});
  std::istringstream in(snap.str());
  EXPECT_EQ(tiny.load(in), 50u);  // all read, LRU-evicted down to budget
  EXPECT_LE(tiny.stats().bytes, 400u);
  EXPECT_LT(tiny.stats().entries, 50u);
  EXPECT_GT(tiny.stats().entries, 0u);
  // The survivors are the most recent records — the save order's tail.
  EXPECT_TRUE(tiny.get(49, "s").has_value());
}

TEST(ResultCache, MalformedSnapshotsAreRejected) {
  ResultCache cache;
  std::istringstream not_ours("some other file format");
  EXPECT_THROW((void)cache.load(not_ours), std::runtime_error);
  std::istringstream truncated("bpm-result-cache 1 3\n7 1 10 0.5 0 0 0 2 0 0\nhk\n");
  EXPECT_THROW((void)cache.load(truncated), std::runtime_error);
  std::istringstream bad_version("bpm-result-cache 99 0\n");
  EXPECT_THROW((void)cache.load(bad_version), std::runtime_error);
  EXPECT_EQ(cache.load_file("/no/such/file"), 0u);  // cold start, not an error
}

TEST(ResultCache, RandomizedSnapshotSaveLoadSaveIsByteIdentical) {
  // Property: for any cache state, save → load-into-empty-same-options →
  // save reproduces the first snapshot byte for byte (contents AND LRU
  // order).  Fingerprints that deliberately collide, solver keys / detail /
  // error strings with whitespace and newlines (the snapshot framing is
  // length-prefixed), failed outcomes, overwrites, and recency-shuffling
  // gets.
  Rng rng(4242);
  const std::string chars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      ":=,.-_ \n\t";
  const auto random_string = [&](std::size_t max_len) {
    std::string s;
    for (std::uint64_t c = 0, n = 1 + rng.below(max_len); c < n; ++c)
      s += chars[rng.below(chars.size())];
    return s;
  };
  for (int trial = 0; trial < 25; ++trial) {
    const CacheOptions options{.byte_budget = std::size_t{1} << 20};
    ResultCache cache(options);
    const std::uint64_t distinct_fingerprints = 1 + rng.below(12);
    for (std::uint64_t i = 0, n = 5 + rng.below(40); i < n; ++i) {
      JobOutcome o;
      o.stats.cardinality = static_cast<graph::index_t>(rng.below(100000));
      o.stats.wall_ms = static_cast<double>(rng.below(1 << 20)) / 1024.0;
      o.stats.modeled_ms = static_cast<double>(rng.below(1 << 20)) / 4096.0;
      o.stats.device_launches = static_cast<std::int64_t>(rng.below(5000));
      o.stats.iterations = static_cast<std::int64_t>(rng.below(500));
      o.stats.detail = rng.below(3) == 0 ? "" : random_string(40);
      o.ok = rng.below(5) != 0;
      o.error = o.ok ? "" : random_string(30);
      cache.put(rng.below(distinct_fingerprints), random_string(16), o);
    }
    // Shuffle recency so the LRU order differs from insertion order.
    for (int g = 0; g < 20; ++g)
      (void)cache.get(rng.below(distinct_fingerprints), random_string(16));

    std::stringstream first;
    cache.save(first);
    ResultCache reloaded(options);
    std::stringstream snapshot(first.str());
    const std::size_t read = reloaded.load(snapshot);
    EXPECT_EQ(read, cache.stats().entries);
    std::stringstream second;
    reloaded.save(second);
    EXPECT_EQ(first.str(), second.str()) << "trial " << trial;
  }
}

// One budget bounds the whole cache: the LRU entry is the victim, whatever
// its key hashes to.
TEST(ResultCache, OneBudgetEvictsTheGlobalLeastRecentlyUsed) {
  const std::vector<std::array<std::uint64_t, 3>> key_sets = {
      {1, 2, 3}, {7, 7, 7}, {0xffff'ffff'ffff'ffffull, 0, 1u << 31}};
  for (const auto& fp : key_sets) {
    ResultCache cache;
    // Three entries of a third of the default budget each: any two fit,
    // all three do not.
    const JobOutcome big =
        outcome(1, std::string(cache.byte_budget() / 3, 'x'));
    cache.put(fp[0], "a", big);
    cache.put(fp[1], "b", big);
    ASSERT_TRUE(cache.get(fp[0], "a").has_value());  // A is now the MRU
    cache.put(fp[2], "c", big);                      // so B is the victim
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_LE(s.bytes, cache.byte_budget());
    EXPECT_TRUE(cache.get(fp[0], "a").has_value());
    EXPECT_FALSE(cache.get(fp[1], "b").has_value());
    EXPECT_TRUE(cache.get(fp[2], "c").has_value());
  }
}

// A record's declared payload length is not trusted: one past the end of
// the stream fails as truncated without allocating what it declares, and
// so does a length sum that overflows.
TEST(ResultCache, SnapshotLengthsPastTheEndAreTruncatedNotAllocated) {
  const std::vector<std::string> records = {
      "7 1 10 0.5 0 0 0 1099511627776 0 0\n0123456789\n",
      "7 1 10 0.5 0 0 0 18446744073709551615 2 0\nhk\n",
      "7 1 10 0.5 0 0 0 2 18446744073709551615 18446744073709551615\nhk\n"};
  for (const std::string& record : records) {
    ResultCache cache;
    std::istringstream in("bpm-result-cache 1 1\n" + record);
    try {
      (void)cache.load(in);
      ADD_FAILURE() << "accepted: " << record;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "truncated result-cache snapshot (entry 0)");
    }
    EXPECT_EQ(cache.stats().entries, 0u);
  }
}

TEST(ResultCache, ClearDropsEntriesButKeepsCounters) {
  ResultCache cache;
  cache.put(1, "a", outcome(1));
  (void)cache.get(1, "a");
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.get(1, "a").has_value());
}

}  // namespace
}  // namespace bpm::serve
