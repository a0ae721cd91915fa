#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

TEST(Pipeline, DeliversEveryInstanceCorrectly) {
  pipeline_config cfg{.g = graph::path_of_cliques(3, 3, 1), .f = 1, .source = 0};
  rng rand(1);
  const auto stats = run_pipelined(cfg, 8, 64, rand);
  EXPECT_EQ(stats.instances, 8);
  EXPECT_TRUE(stats.all_agreed);
  EXPECT_TRUE(stats.all_valid);
  EXPECT_GT(stats.elapsed, 0.0);
}

TEST(Pipeline, DepthMatchesTopology) {
  pipeline_config cfg{.g = graph::path_of_cliques(4, 3, 1), .f = 1, .source = 0};
  rng rand(2);
  const auto stats = run_pipelined(cfg, 4, 32, rand);
  // The value must traverse at least hops-1 = 3 inter-cluster boundaries.
  EXPECT_GE(stats.depth, 3);
}

TEST(Pipeline, BeatsSequentialOnDeepNetworks) {
  pipeline_config cfg{.g = graph::path_of_cliques(5, 3, 1), .f = 1, .source = 0};
  rng rand(3);
  const auto stats = run_pipelined(cfg, 16, 256, rand);
  EXPECT_GT(stats.speedup(), 1.5);
  EXPECT_GT(stats.throughput(), stats.sequential_throughput());
}

TEST(Pipeline, SpeedupGrowsWithDepth) {
  // Figure 3 at L = 64 Kbit: back-to-back instances pay every hop, so their
  // throughput decays with depth, while the pipeline overlaps the hops.
  double sequential = std::numeric_limits<double>::infinity();
  double speedup = 1.0;
  for (int hops : {2, 4, 6}) {
    pipeline_config cfg{.g = graph::path_of_cliques(hops, 3, 1), .f = 1, .source = 0};
    rng rand(6);
    const auto stats = run_pipelined(cfg, 8, 4096, rand);
    EXPECT_TRUE(stats.all_valid);
    EXPECT_LT(stats.sequential_throughput(), sequential) << hops << " hops";
    EXPECT_GT(stats.speedup(), speedup) << hops << " hops";
    sequential = stats.sequential_throughput();
    speedup = stats.speedup();
  }
}

TEST(Pipeline, ShallowNetworksGainLittle) {
  // Bidirectional star with f=0: gamma = 1, the single arborescence is the
  // star itself (depth 1) — pipelining cannot help.
  graph::digraph g(4);
  g.add_bidirectional(0, 1, 1);
  g.add_bidirectional(0, 2, 1);
  g.add_bidirectional(0, 3, 1);
  pipeline_config cfg{.g = g, .f = 0, .source = 0};
  rng rand(4);
  const auto stats = run_pipelined(cfg, 8, 64, rand);
  EXPECT_EQ(stats.depth, 1);
  EXPECT_NEAR(stats.speedup(), 1.0, 0.35);
}

TEST(Pipeline, SpeedupGrowsWithPayload) {
  // On a fixed deep topology the flag term O(n^alpha) is constant in L, so
  // larger payloads amortize it and the speedup climbs toward the pipe
  // depth (Appendix D's large-L regime).
  pipeline_config cfg{.g = graph::path_of_cliques(5, 3, 1), .f = 1, .source = 0};
  rng rand(5);
  const auto small = run_pipelined(cfg, 12, 64, rand);
  const auto large = run_pipelined(cfg, 12, 2048, rand);
  EXPECT_GT(large.speedup(), small.speedup());
  EXPECT_LE(large.speedup(), static_cast<double>(large.depth) + 1e-9);
}

}  // namespace
}  // namespace nab::core
