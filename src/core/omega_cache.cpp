#include "core/omega_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>

#include "graph/connectivity.hpp"
#include "graph/maxflow.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace nab::core {

namespace {

/// Canonical serialization of a digraph: universe, active flags, then the
/// capacity of every ordered active pair. Two graphs serialize identically
/// iff they are operator==-equal on every field the analyses depend on.
void serialize_graph(const graph::digraph& g, std::vector<std::int64_t>& out) {
  const int n = g.universe();
  out.push_back(n);
  for (graph::node_id v = 0; v < n; ++v) out.push_back(g.is_active(v) ? 1 : 0);
  for (graph::node_id u = 0; u < n; ++u)
    for (graph::node_id v = 0; v < n; ++v)
      if (u != v) out.push_back(g.cap(u, v));
}

}  // namespace

omega_cache& omega_cache::instance() {
  static omega_cache cache;
  return cache;
}

std::size_t omega_cache::key_hash::operator()(const canonical_key& key) const {
  std::uint64_t h = 0x6f6d6567615f6bULL;  // "omega_k"
  for (std::int64_t w : key) h = splitmix64(h ^ static_cast<std::uint64_t>(w));
  return static_cast<std::size_t>(h);
}

template <class V, class Compute>
std::shared_ptr<const V> omega_cache::get_or_compute(
    table<V>& tbl, const canonical_key& key, const char* fill_span,
    const Compute& compute) {
  obs::count(obs::counter::cache_lookups);
  std::promise<std::shared_ptr<const V>> fill;
  std::shared_future<std::shared_ptr<const V>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = tbl.try_emplace(key);
    if (inserted)
      it->second = fill.get_future().share();
    else
      pending = it->second;
  }
  if (pending.valid()) {  // a hit: wait for the filling thread's value
    std::shared_ptr<const V> hit = pending.get();
    obs::count(obs::counter::cache_hits);
    return hit;
  }

  std::shared_ptr<const V> value;
  try {
    obs::scoped_span span(fill_span);
    value = compute();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tbl.erase(key);
    }
    fill.set_exception(std::current_exception());
    throw;
  }
  fill.set_value(value);
  obs::count(obs::counter::cache_misses);
  return value;
}

int omega_cache::fill_jobs(const graph::digraph& g) const {
  return g.universe() >= 32 ? fill_jobs_.load(std::memory_order_relaxed) : 1;
}

void omega_cache::set_fill_parallelism(int jobs) {
  fill_jobs_.store(jobs < 1 ? 1 : jobs, std::memory_order_relaxed);
}

std::shared_ptr<const omega_analysis> omega_cache::analyze(
    const graph::digraph& g, int f, const dispute_record& disputes) {
  canonical_key key;
  serialize_graph(g, key);
  key.push_back(f);
  // Convicted nodes are already inactive in g; only the pairs affect Omega_k.
  for (const auto& [a, b] : disputes.pairs()) {
    key.push_back(a);
    key.push_back(b);
  }
  return get_or_compute(analyses_, key,
                        "omega_cache/fill_analysis", [&] {
                          auto value = std::make_shared<omega_analysis>();
                          value->omega = omega_subgraphs(g, f, disputes);
                          value->uk = compute_uk(g, value->omega);
                          value->rho = compute_rho(value->uk);
                          return value;
                        });
}

std::shared_ptr<const phase1_plan> omega_cache::plan_for(const graph::digraph& g,
                                                         graph::node_id source) {
  canonical_key key;
  serialize_graph(g, key);
  key.push_back(source);
  auto plan = get_or_compute(plans_, key,
                             "omega_cache/fill_plan", [&] {
    auto value = std::make_shared<phase1_plan>();
    // gamma = min over sinks of MINCUT(source, w): independent per-sink
    // flows into preallocated slots, so the filling thread may fan them out
    // (the min is order-independent; byte-identical for any worker count).
    const auto nodes = g.active_nodes();
    std::vector<graph::capacity_t> cuts(
        nodes.size(), std::numeric_limits<graph::capacity_t>::max());
    parallel_for_each_index(fill_jobs(g), nodes.size(), [&](std::size_t i) {
      if (nodes[i] != source) cuts[i] = graph::min_cut_value(g, source, nodes[i]);
    });
    // Fold like broadcast_mincut: 0 is a genuine min-cut (unreachable sink),
    // not an "unset" sentinel, so track whether any sink was seen explicitly.
    graph::capacity_t best = std::numeric_limits<graph::capacity_t>::max();
    bool any_sink = false;
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (nodes[i] != source) {
        best = std::min(best, cuts[i]);
        any_sink = true;
      }
    value->gamma = any_sink ? best : 0;
    if (value->gamma >= 1)
      value->trees = graph::pack_arborescences(
          g, source, static_cast<int>(value->gamma), &value->stats);
    return value;
  });
  // Charged on every lookup (hit or miss), so the planning counters are a
  // deterministic property of the run, not of cross-shard fill scheduling.
  obs::count(obs::counter::plan_safety_checks, plan->stats.safety_checks);
  obs::count(obs::counter::plan_flow_augmentations, plan->stats.flow_augmentations);
  return plan;
}

bool omega_cache::connectivity_at_least(const graph::digraph& g, int k) {
  canonical_key key;
  serialize_graph(g, key);
  key.push_back(k);
  return *get_or_compute(connectivity_, key,
                         "omega_cache/fill_connectivity", [&] {
                           return std::make_shared<int>(
                               graph::global_vertex_connectivity_at_least(g, k) ? 1
                                                                                : 0);
                         }) != 0;
}

std::shared_ptr<const bb::channel_plan::route_table> omega_cache::channel_routes_for(
    const graph::digraph& g, int f) {
  canonical_key key;
  serialize_graph(g, key);
  key.push_back(f);
  auto routes = get_or_compute(routes_, key,
                               "omega_cache/fill_routes", [&] {
    // Per-source blocks into preallocated slots: each source's row is built
    // on its own warm-started residual network, so the filling thread may
    // fan the sources out. Block errors are captured, not thrown, and
    // assemble() surfaces the smallest-source failure — identical to the
    // serial builder's first-failing-pair error for every worker count.
    const int n = g.universe();
    std::vector<bb::channel_plan::source_block> blocks(static_cast<std::size_t>(n));
    parallel_for_each_index(fill_jobs(g), blocks.size(), [&](std::size_t u) {
      blocks[u] = bb::channel_plan::build_routes_for_source(
          g, f, static_cast<graph::node_id>(u));
    });
    return std::make_shared<const bb::channel_plan::route_table>(
        bb::channel_plan::assemble(g, std::move(blocks)));
  });
  obs::count(obs::counter::route_pairs, routes->stats().pairs);
  obs::count(obs::counter::route_flow_augmentations,
             routes->stats().flow_augmentations);
  return routes;
}

void omega_cache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  analyses_.clear();
  plans_.clear();
  connectivity_.clear();
  routes_.clear();
}

}  // namespace nab::core
