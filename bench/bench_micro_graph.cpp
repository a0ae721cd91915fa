// M2/M3: graph-algorithm micro-benchmarks (google-benchmark) — the
// per-instance costs NAB pays when G_k changes: max-flow (gamma_k), global
// min cut (U_k via Stoer-Wagner), Gomory-Hu construction, and arborescence
// packing.

#include <benchmark/benchmark.h>

#include "bb/channels.hpp"
#include "graph/generators.hpp"
#include "graph/gomory_hu.hpp"
#include "graph/maxflow.hpp"
#include "graph/mincut.hpp"
#include "graph/tree_packing.hpp"
#include "util/rng.hpp"

namespace {

nab::graph::digraph make_er(int n, std::uint64_t seed) {
  nab::rng rand(seed);
  return nab::graph::erdos_renyi(n, 0.4, 1, 8, rand);
}

void bm_maxflow(benchmark::State& state) {
  const auto g = make_er(static_cast<int>(state.range(0)), 11);
  for (auto _ : state)
    benchmark::DoNotOptimize(nab::graph::min_cut_value(g, 0, g.universe() - 1));
}
BENCHMARK(bm_maxflow)->Name("dinic_mincut")->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void bm_broadcast_mincut(benchmark::State& state) {
  const auto g = make_er(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) benchmark::DoNotOptimize(nab::graph::broadcast_mincut(g, 0));
}
BENCHMARK(bm_broadcast_mincut)->Name("gamma_k")->Arg(8)->Arg(16)->Arg(32);

void bm_stoer_wagner(benchmark::State& state) {
  const auto u = nab::graph::to_undirected(make_er(static_cast<int>(state.range(0)), 13));
  for (auto _ : state) benchmark::DoNotOptimize(nab::graph::global_min_cut(u));
}
BENCHMARK(bm_stoer_wagner)->Name("stoer_wagner")->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void bm_gomory_hu(benchmark::State& state) {
  const auto u = nab::graph::to_undirected(make_er(static_cast<int>(state.range(0)), 14));
  for (auto _ : state) benchmark::DoNotOptimize(nab::graph::gomory_hu_tree(u));
}
BENCHMARK(bm_gomory_hu)->Name("gomory_hu")->Arg(8)->Arg(16)->Arg(32);

void bm_pack(benchmark::State& state) {
  const auto g = nab::graph::complete(static_cast<int>(state.range(0)));
  const auto gamma = nab::graph::broadcast_mincut(g, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        nab::graph::pack_arborescences(g, 0, static_cast<int>(gamma)));
}
BENCHMARK(bm_pack)->Name("edmonds_packing_Kn")->Arg(4)->Arg(5)->Arg(6)->Arg(7);

// The plan/route frontier shapes: hypercubes force real flow work (no
// closed-form packing, emulated pairs in the route table) and K_64 pins the
// closed-form + all-direct fast paths.
nab::graph::digraph frontier_graph(int shape) {
  switch (shape) {
    case 6: return nab::graph::hypercube(6, 2);
    case 7: return nab::graph::hypercube(7, 2);
    default: return nab::graph::complete(64, 1);
  }
}

void bm_pack_frontier(benchmark::State& state) {
  const auto g = frontier_graph(static_cast<int>(state.range(0)));
  const auto gamma = nab::graph::broadcast_mincut(g, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        nab::graph::pack_arborescences(g, 0, static_cast<int>(gamma)));
}
BENCHMARK(bm_pack_frontier)
    ->Name("pack_arborescences_frontier")
    ->Arg(6)
    ->Arg(7)
    ->Arg(64);

void bm_build_routes(benchmark::State& state) {
  const auto g = frontier_graph(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(nab::bb::channel_plan::build_routes(g, 1));
}
BENCHMARK(bm_build_routes)->Name("build_routes_frontier")->Arg(6)->Arg(7)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
