// The omega_cache is pure memoization: every value it returns must be
// byte-identical to what the uncached computation produces for the same
// (graph, f, disputes) key — across every registry preset, repeated
// lookups, dispute variations, and concurrent access. This is the guard
// against graph-fingerprint collisions silently corrupting a sweep.

#include "core/omega_cache.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <set>
#include <string>
#include <thread>

#include "core/omega.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "obs/obs.hpp"
#include "runtime/scenario.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

/// Deterministic materialization of every distinct topology in the registry
/// (random kinds drawn from a fixed rng so the test is reproducible).
std::vector<std::pair<std::string, graph::digraph>> registry_graphs() {
  std::vector<std::pair<std::string, graph::digraph>> out;
  std::set<std::string> seen;
  rng rand(2024);
  for (const runtime::scenario& s : runtime::select_scenarios("all")) {
    const std::string key = runtime::to_string(s.topology.kind) + "/" +
                            std::to_string(runtime::topology_nodes(s.topology));
    if (!seen.insert(key).second) continue;
    out.emplace_back(key, runtime::build_topology(s.topology, rand));
  }
  return out;
}

TEST(OmegaCache, MatchesUncachedAnalysisOnEveryRegistryPreset) {
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  for (const auto& [name, g] : registry_graphs()) {
    for (int f : {0, 1}) {
      if (g.universe() < 3 * f + 1) continue;
      const dispute_record none;
      const auto cached = cache.analyze(g, f, none);
      // Uncached ground truth, recomputed from scratch.
      const auto omega = omega_subgraphs(g, f, none);
      const auto uk = compute_uk(g, f, none);
      EXPECT_EQ(cached->omega, omega) << name << " f=" << f;
      EXPECT_EQ(cached->uk, uk) << name << " f=" << f;
      EXPECT_EQ(cached->rho, compute_rho(uk)) << name << " f=" << f;
      // A second lookup must serve the identical object.
      EXPECT_EQ(cache.analyze(g, f, none).get(), cached.get()) << name;
    }
  }
}

TEST(OmegaCache, MatchesUncachedPhase1PlanOnEveryRegistryPreset) {
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  for (const auto& [name, g] : registry_graphs()) {
    // The frontier presets (n = 128, K_64) would pack and re-pack dozens of
    // arborescences here without touching any cache code path the smaller
    // presets miss; their plans are exercised by the runtime perf smoke.
    if (g.universe() > 64 || g.edges().size() > 1000) continue;
    const graph::node_id source = g.active_nodes().front();
    const auto plan = cache.plan_for(g, source);
    const auto gamma = graph::broadcast_mincut(g, source);
    EXPECT_EQ(plan->gamma, gamma) << name;
    if (gamma >= 1) {
      // pack_arborescences is deterministically seeded from (k, root), so
      // the cached packing must equal a fresh one edge for edge.
      const auto fresh =
          graph::pack_arborescences(g, source, static_cast<int>(gamma));
      ASSERT_EQ(plan->trees.size(), fresh.size()) << name;
      for (std::size_t t = 0; t < fresh.size(); ++t)
        EXPECT_EQ(plan->trees[t].edges, fresh[t].edges) << name << " tree " << t;
    }
  }
}

TEST(OmegaCache, UnreachableSinkYieldsGammaZeroTreelessPlan) {
  // A sink the source cannot reach has min-cut 0, and 0 is a genuine gamma —
  // not an "unset" sentinel. Regression: folding the per-sink cuts with a
  // 0-means-unset scheme let a later positive cut overwrite the true 0,
  // making plan_for attempt (and fail) a k>0 arborescence packing where
  // broadcast_mincut correctly reports gamma = 0 and a treeless plan.
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  graph::digraph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 0, 2);  // node 2 is active but unreachable from 0
  ASSERT_EQ(graph::broadcast_mincut(g, 0), 0);
  const auto plan = cache.plan_for(g, 0);
  EXPECT_EQ(plan->gamma, 0);
  EXPECT_TRUE(plan->trees.empty());
}

TEST(OmegaCache, DisputesArePartOfTheKey) {
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  rng rand(1);
  const graph::digraph g = runtime::build_topology(
      {.kind = runtime::topology_kind::complete, .n = 5, .cap_lo = 1}, rand);
  const dispute_record none;
  dispute_record disputed;
  disputed.add_dispute(1, 2);
  const auto clean = cache.analyze(g, 1, none);
  const auto tainted = cache.analyze(g, 1, disputed);
  EXPECT_NE(clean->omega.size(), tainted->omega.size());
  EXPECT_EQ(tainted->omega, omega_subgraphs(g, 1, disputed));
  EXPECT_EQ(tainted->uk, compute_uk(g, 1, disputed));
}

TEST(OmegaCache, NearIdenticalGraphsNeverAlias) {
  // Two graphs differing in a single capacity unit must never share an
  // entry, whatever their fingerprints do — the full-key compare is the
  // collision guard under test.
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  rng rand(99);
  for (int trial = 0; trial < 25; ++trial) {
    graph::digraph a = graph::erdos_renyi(6, 0.6, 1, 3, rand);
    graph::digraph b = a;
    const auto edges = b.edges();
    const graph::edge& e = edges[rand.below(edges.size())];
    b.remove_edge(e.from, e.to);
    if (e.cap > 1) b.add_edge(e.from, e.to, e.cap - 1);
    const dispute_record none;
    const auto ua = cache.analyze(a, 1, none)->uk;
    const auto ub = cache.analyze(b, 1, none)->uk;
    EXPECT_EQ(ua, compute_uk(a, 1, none)) << "trial " << trial;
    EXPECT_EQ(ub, compute_uk(b, 1, none)) << "trial " << trial;
  }
}

TEST(OmegaCache, ConnectivityThresholdMatchesExactConnectivity) {
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  rng rand(7);
  for (int trial = 0; trial < 20; ++trial) {
    const graph::digraph g = graph::erdos_renyi(7, 0.45, 1, 2, rand);
    const int exact = graph::global_vertex_connectivity(g);
    for (int k = 1; k <= exact + 1; ++k)
      EXPECT_EQ(cache.connectivity_at_least(g, k), exact >= k)
          << "trial " << trial << " k=" << k << " exact=" << exact;
  }
}

TEST(OmegaCache, ChannelRoutesMatchFreshBuild) {
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  rng rand(5);
  const graph::digraph g = graph::random_regular(8, 4, 1, 2, rand);
  if (graph::global_vertex_connectivity(g) >= 3) {
    const auto cached = cache.channel_routes_for(g, 1);
    EXPECT_EQ(*cached, bb::channel_plan::build_routes(g, 1));
    EXPECT_EQ(cache.channel_routes_for(g, 1).get(), cached.get());
  }
}

TEST(OmegaCache, ConcurrentLookupsAgree) {
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  const graph::digraph g = graph::hypercube(4, 2);
  const dispute_record none;
  const auto expected_uk = compute_uk(g, 1, none);
  std::vector<graph::capacity_t> uks(32, -1);
  std::vector<obs::collector> collectors(uks.size());
  parallel_for_each_index(8, uks.size(), [&](std::size_t i) {
    obs::scoped_collector ambient(&collectors[i]);
    uks[i] = cache.analyze(g, 1, none)->uk;
  });
  for (graph::capacity_t uk : uks) EXPECT_EQ(uk, expected_uk);
  // Every lookup counts exactly once; single-flight elects one filling
  // thread per key, so exactly one lookup is a miss.
  std::uint64_t lookups = 0, hits = 0, misses = 0;
  for (const obs::collector& c : collectors) {
    lookups += c.value(obs::counter::cache_lookups);
    hits += c.value(obs::counter::cache_hits);
    misses += c.value(obs::counter::cache_misses);
  }
  EXPECT_EQ(lookups, 32u);
  EXPECT_EQ(hits + misses, 32u);
  EXPECT_EQ(misses, 1u);
}

TEST(OmegaCache, ConcurrentMissesAreSingleFlight) {
  // N threads miss the same plan key at once: the first lookup inserts the
  // key's future and is the one filling thread. Everyone shares the one
  // value, exactly one fill span exists across all collectors, and the
  // waiters count as hits. (This test is part of the TSan concurrency gate.)
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  const graph::digraph g = graph::hypercube(5, 2);
  constexpr int kThreads = 8;
  std::vector<obs::collector> collectors(kThreads);
  std::vector<std::shared_ptr<const phase1_plan>> plans(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&cache, &collectors, &plans, &g, t] {
      obs::scoped_collector ambient(&collectors[static_cast<std::size_t>(t)]);
      plans[static_cast<std::size_t>(t)] = cache.plan_for(g, 0);
    });
  for (std::thread& th : pool) th.join();

  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(plans[static_cast<std::size_t>(t)].get(), plans[0].get())
        << "thread " << t << " must share the filler's value";
  std::size_t fill_spans = 0;
  std::uint64_t hits = 0, misses = 0;
  for (const obs::collector& c : collectors) {
    for (const obs::span_record& s : c.spans())
      if (s.name == "omega_cache/fill_plan") ++fill_spans;
    hits += c.value(obs::counter::cache_hits);
    misses += c.value(obs::counter::cache_misses);
  }
  EXPECT_EQ(fill_spans, 1u) << "exactly one thread may pay the fill";
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, static_cast<std::uint64_t>(kThreads - 1));
  // The planning counters are charged per lookup (hit or miss), so every
  // thread observed the same deterministic work numbers.
  for (const obs::collector& c : collectors) {
    EXPECT_EQ(c.value(obs::counter::plan_safety_checks),
              collectors[0].value(obs::counter::plan_safety_checks));
    EXPECT_GT(c.value(obs::counter::plan_safety_checks), 0u);
  }
}

TEST(OmegaCache, FailedFillReachesEveryCallerAndIsNotCached) {
  // A ring is only 2-connected: a non-adjacent pair has two node-disjoint
  // paths, short of the 2f+1 = 3 that f = 1 needs, so the route fill throws.
  // Every concurrent caller must get that error, none may count a hit or a
  // miss, and the failure must not be cached. (Part of the TSan gate.)
  omega_cache& cache = omega_cache::instance();
  cache.clear();
  const graph::digraph g = graph::ring(6, 1);
  constexpr std::size_t kThreads = 8;
  std::vector<obs::collector> collectors(kThreads);
  // Waiters rethrow the filler's exception object itself, so each thread
  // keeps a handle and the messages are read after the join: the reference
  // count that orders the last owner's free after every other thread's read
  // lives in the uninstrumented C++ runtime, where TSan cannot see it.
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&cache, &collectors, &errors, &g, t] {
      obs::scoped_collector ambient(&collectors[t]);
      try {
        cache.channel_routes_for(g, 1);
      } catch (const nab::error&) {
        errors[t] = std::current_exception();
      }
    });
  for (std::thread& th : pool) th.join();

  const auto message = [](const std::exception_ptr& e) -> std::string {
    try {
      if (e) std::rethrow_exception(e);
    } catch (const nab::error& err) {
      return err.what();
    }
    return "";  // the call did not throw
  };
  const std::string first = message(errors[0]);
  EXPECT_NE(first.find("lacks 2f+1 disjoint paths"), std::string::npos)
      << first;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const obs::collector& c = collectors[t];
    EXPECT_EQ(message(errors[t]), first) << "thread " << t;
    EXPECT_EQ(c.value(obs::counter::cache_lookups), 1u) << "thread " << t;
    EXPECT_EQ(c.value(obs::counter::cache_hits), 0u) << "thread " << t;
    EXPECT_EQ(c.value(obs::counter::cache_misses), 0u) << "thread " << t;
  }
  // Nothing was cached: a later lookup fills again and throws again.
  EXPECT_THROW(cache.channel_routes_for(g, 1), nab::error);
}

TEST(OmegaCache, FillParallelismIsByteIdentical) {
  // Parallel per-sink / per-source fills write into preallocated slots, so
  // plans and route tables must be byte-identical for every worker count.
  omega_cache& cache = omega_cache::instance();
  const graph::digraph g = graph::hypercube(5, 2);  // 32 nodes: parallel fills on
  cache.clear();
  cache.set_fill_parallelism(1);
  const auto plan1 = cache.plan_for(g, 0);
  const auto routes1 = cache.channel_routes_for(g, 1);
  cache.clear();
  cache.set_fill_parallelism(4);
  const auto plan4 = cache.plan_for(g, 0);
  const auto routes4 = cache.channel_routes_for(g, 1);
  cache.set_fill_parallelism(1);

  EXPECT_EQ(plan1->gamma, plan4->gamma);
  ASSERT_EQ(plan1->trees.size(), plan4->trees.size());
  for (std::size_t t = 0; t < plan1->trees.size(); ++t)
    EXPECT_EQ(plan1->trees[t].edges, plan4->trees[t].edges);
  EXPECT_EQ(plan1->stats.safety_checks, plan4->stats.safety_checks);
  EXPECT_EQ(plan1->stats.flow_augmentations, plan4->stats.flow_augmentations);
  EXPECT_EQ(*routes1, *routes4);
}

}  // namespace
}  // namespace nab::core
