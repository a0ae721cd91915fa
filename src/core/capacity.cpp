#include "core/capacity.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/dispute.hpp"
#include "core/omega.hpp"
#include "graph/maxflow.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::core {
namespace {

using pair_list = std::vector<std::pair<graph::node_id, graph::node_id>>;

/// All unordered node pairs with at least one directed edge between them.
pair_list adjacent_pairs(const graph::digraph& g) {
  pair_list out;
  for (graph::node_id u = 0; u < g.universe(); ++u)
    for (graph::node_id v = u + 1; v < g.universe(); ++v)
      if (g.has_edge(u, v) || g.has_edge(v, u)) out.push_back({u, v});
  return out;
}

/// gamma of Psi_W for an explainable pair set W: remove W's edges and the
/// nodes forced into every explaining set; skip (return nullopt-like -1)
/// when the source is removed or becomes isolated from every other node.
graph::capacity_t gamma_of_psi(const graph::digraph& g, graph::node_id source, int f,
                               const pair_list& w) {
  // Forced removals: nodes contained in every explaining set.
  const std::optional<std::vector<graph::node_id>> removed = necessarily_faulty(w, f);
  if (!removed) return -1;  // not explainable
  for (graph::node_id x : *removed)
    if (x == source) return -1;  // Psi_W without the source is not in Gamma

  graph::digraph psi = g;
  for (const auto& [a, b] : w) psi.remove_edge_pair(a, b);
  for (graph::node_id x : *removed) psi.remove_node(x);
  if (psi.active_count() < 2) return -1;
  return graph::broadcast_mincut(psi, source);
}

}  // namespace

graph::capacity_t gamma_k(const graph::digraph& gk, graph::node_id source) {
  return graph::broadcast_mincut(gk, source);
}

graph::capacity_t gamma_star_exhaustive(const graph::digraph& g, graph::node_id source,
                                        int f) {
  const pair_list pairs = adjacent_pairs(g);
  if (pairs.size() > 20)
    throw error("gamma_star_exhaustive: " + std::to_string(pairs.size()) +
                " adjacent pairs exceed the 2^20 enumeration budget");
  graph::capacity_t best = std::numeric_limits<graph::capacity_t>::max();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << pairs.size()); ++mask) {
    pair_list w;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      if (mask & (std::uint64_t{1} << i)) w.push_back(pairs[i]);
    const graph::capacity_t gamma = gamma_of_psi(g, source, f, w);
    if (gamma >= 0) best = std::min(best, gamma);
  }
  NAB_ASSERT(best != std::numeric_limits<graph::capacity_t>::max(),
             "Gamma is empty — graph has no valid instance graphs");
  return best;
}

graph::capacity_t gamma_star_incident(const graph::digraph& g, graph::node_id source,
                                      int f) {
  const std::vector<graph::node_id> nodes = g.active_nodes();
  graph::capacity_t best = graph::broadcast_mincut(g, source);  // W = empty set

  // Enumerate candidate fault sets F (|F| <= f, source excluded as a blamed
  // set is allowed but then Psi often loses the source; try all), take all
  // pairs incident to F as the removed set.
  std::vector<graph::node_id> subset;
  const std::size_t n = nodes.size();
  auto recurse = [&](auto&& self, std::size_t start) -> void {
    if (!subset.empty()) {
      pair_list w;
      for (graph::node_id x : subset)
        for (graph::node_id y : nodes) {
          if (x == y) continue;
          if (g.has_edge(x, y) || g.has_edge(y, x))
            w.push_back({std::min(x, y), std::max(x, y)});
        }
      std::sort(w.begin(), w.end());
      w.erase(std::unique(w.begin(), w.end()), w.end());
      const graph::capacity_t gamma = gamma_of_psi(g, source, f, w);
      if (gamma >= 0) best = std::min(best, gamma);
    }
    if (subset.size() == static_cast<std::size_t>(f)) return;
    for (std::size_t i = start; i < n; ++i) {
      subset.push_back(nodes[i]);
      self(self, i + 1);
      subset.pop_back();
    }
  };
  recurse(recurse, 0);
  return best;
}

graph::capacity_t u1_exact(const graph::digraph& g, int f) {
  return compute_uk(g, f, dispute_record{});
}

capacity_bounds compute_bounds(const graph::digraph& g, graph::node_id source, int f) {
  capacity_bounds out;
  out.gamma_exact = adjacent_pairs(g).size() <= 16;
  out.gamma_star = out.gamma_exact ? gamma_star_exhaustive(g, source, f)
                                   : gamma_star_incident(g, source, f);

  out.u1 = u1_exact(g, f);
  out.rho_star = static_cast<double>(out.u1) / 2.0;

  const double gs = static_cast<double>(out.gamma_star);
  out.capacity_upper_bound = std::min(gs, 2.0 * out.rho_star);
  out.nab_throughput_bound =
      (gs + out.rho_star) > 0 ? gs * out.rho_star / (gs + out.rho_star) : 0.0;
  out.guaranteed_fraction = gs <= out.rho_star ? 0.5 : 1.0 / 3.0;
  return out;
}

}  // namespace nab::core
