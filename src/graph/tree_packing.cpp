#include "graph/tree_packing.hpp"

#include <algorithm>
#include <string>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::graph {

std::vector<node_id> spanning_tree::parents(int n) const {
  std::vector<node_id> p(static_cast<std::size_t>(n), -1);
  for (const edge& e : edges) p[static_cast<std::size_t>(e.to)] = e.from;
  return p;
}

namespace {

/// Per-sink flow certificates over a shared residual capacity matrix: for
/// every sink w the packer maintains a feasible root->w flow whose value
/// never drops below the current safety requirement. The Lovász safe-edge
/// test then costs O(1) per sink in the common case (the certificate does
/// not use the removed unit); when it does, exactly one unit of flow is
/// canceled along its path and at most one BFS augmentation repairs the
/// certificate. When the repair fails the flow is maximum (no augmenting
/// path), so MINCUT(root, w) < need exactly — the predicate is exact and the
/// construction emits the same trees as a from-scratch one that re-runs a
/// max-flow per sink for every candidate edge.
class flow_certifier {
 public:
  flow_certifier(const digraph& g, node_id root, pack_stats* stats)
      : n_(g.universe()),
        root_(root),
        nodes_(g.active_nodes()),
        rem_(static_cast<std::size_t>(n_) * n_, 0),
        out_adj_(static_cast<std::size_t>(n_)),
        in_adj_(static_cast<std::size_t>(n_)),
        flow_(static_cast<std::size_t>(n_)),
        value_(static_cast<std::size_t>(n_), 0),
        prev_node_(static_cast<std::size_t>(n_), -2),
        prev_fwd_(static_cast<std::size_t>(n_), 0),
        stats_(stats) {
    // g.edges() is row-major, so the adjacency lists come out ascending —
    // all walk/augment tie-breaks below are "smallest index first".
    for (const edge& e : g.edges()) {
      rem_[idx(e.from, e.to)] = e.cap;
      out_adj_[static_cast<std::size_t>(e.from)].push_back(e.to);
      in_adj_[static_cast<std::size_t>(e.to)].push_back(e.from);
    }
  }

  capacity_t& rem_at(node_id u, node_id v) { return rem_[idx(u, v)]; }
  const std::vector<node_id>& nodes() const { return nodes_; }
  int universe() const { return n_; }

#ifdef NAB_PACK_DEBUG
  /// Debug-only invariant probe: conservation + capacity feasibility of
  /// every certificate. O(n^3); compiled out of real builds.
  void check_all(const char* where) const {
    for (node_id w : nodes_) {
      if (w == root_) continue;
      const auto& f = flow_[static_cast<std::size_t>(w)];
      for (node_id v : nodes_) {
        capacity_t in = 0, out = 0;
        for (node_id x : nodes_) {
          if (x == v) continue;
          in += f[static_cast<std::size_t>(x) * n_ + v];
          out += f[static_cast<std::size_t>(v) * n_ + x];
          NAB_ASSERT(f[static_cast<std::size_t>(x) * n_ + v] >= 0, where);
        }
        if (v == root_) continue;
        if (v == w) {
          NAB_ASSERT(in - out == value_[static_cast<std::size_t>(w)], where);
        } else {
          NAB_ASSERT(in == out, where);
        }
      }
    }
  }
#endif

  /// Feasibility check doubling as certificate construction: caps every
  /// sink's flow at k. Returns false iff some sink's max flow is below k.
  bool certify_all(int k) {
    for (node_id w : nodes_) {
      if (w == root_) continue;
      flow_[static_cast<std::size_t>(w)].assign(static_cast<std::size_t>(n_) * n_, 0);
      if (stats_) ++stats_->safety_checks;
      while (value_[static_cast<std::size_t>(w)] < k && augment(w)) {
      }
      if (value_[static_cast<std::size_t>(w)] < k) return false;
    }
    return true;
  }

  /// Called after the caller decremented rem(u, v) by one: true iff every
  /// sink keeps MINCUT(root, w) >= need. On false, every certificate is back
  /// in a valid state and the caller restores rem(u, v).
  bool safe_after_removal(node_id u, node_id v, int need) {
    for (node_id w : nodes_) {
      if (w == root_) continue;
      if (stats_) ++stats_->safety_checks;
      auto& f = flow_[static_cast<std::size_t>(w)];
      if (f[idx(u, v)] <= rem_at(u, v)) continue;  // certificate unaffected
#ifdef NAB_PACK_DEBUG
      check_all("pre-cancel");
#endif
      cancel_unit(w, u, v);
#ifdef NAB_PACK_DEBUG
      check_all("post-cancel");
#endif
      if (value_[static_cast<std::size_t>(w)] >= need) continue;
      if (augment(w)) continue;
      // The flow is maximum and below need: (u, v) is unsafe. Reinstate the
      // canceled unit so the certificate matches the restored rem.
      undo_cancel(w);
      return false;
    }
    return true;
  }

 private:
  std::size_t idx(node_id u, node_id v) const {
    return static_cast<std::size_t>(u) * n_ + v;
  }

  /// One unit-value BFS augmentation root->w in the residual of (rem, f).
  bool augment(node_id w) {
    auto& f = flow_[static_cast<std::size_t>(w)];
    std::fill(prev_node_.begin(), prev_node_.end(), -2);
    queue_.clear();
    prev_node_[static_cast<std::size_t>(root_)] = -1;
    queue_.push_back(root_);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const node_id a = queue_[head];
      if (a == w) break;
      for (node_id b : out_adj_[static_cast<std::size_t>(a)]) {
        if (prev_node_[static_cast<std::size_t>(b)] != -2) continue;
        if (rem_[idx(a, b)] - f[idx(a, b)] <= 0) continue;
        prev_node_[static_cast<std::size_t>(b)] = a;
        prev_fwd_[static_cast<std::size_t>(b)] = 1;
        queue_.push_back(b);
      }
      for (node_id p : in_adj_[static_cast<std::size_t>(a)]) {
        if (prev_node_[static_cast<std::size_t>(p)] != -2) continue;
        if (f[idx(p, a)] <= 0) continue;
        prev_node_[static_cast<std::size_t>(p)] = a;
        prev_fwd_[static_cast<std::size_t>(p)] = 0;
        queue_.push_back(p);
      }
    }
    if (prev_node_[static_cast<std::size_t>(w)] == -2) return false;
    for (node_id x = w; x != root_;) {
      const node_id p = prev_node_[static_cast<std::size_t>(x)];
      if (prev_fwd_[static_cast<std::size_t>(x)])
        f[idx(p, x)] += 1;  // push along forward arc (p, x)
      else
        f[idx(x, p)] -= 1;  // cancel flow on arc (x, p)
      x = p;
    }
    ++value_[static_cast<std::size_t>(w)];
    if (stats_) ++stats_->flow_augmentations;
    return true;
  }

  /// Removes one unit of w's flow through arc (u, v): decrement, then chase
  /// the resulting excess at u backward along smallest-index flow-carrying
  /// arcs. The chase ends at the root (a root->w path was removed; the
  /// deficit at v is then chased forward to w and the value drops by one) or
  /// back at v (the unit sat on a flow cycle through (u, v); canceling the
  /// cycle rebalances everything and the value is untouched). Terminates
  /// because each step strictly decreases total flow mass.
  void cancel_unit(node_id w, node_id u, node_id v) {
    auto& f = flow_[static_cast<std::size_t>(w)];
    record_.clear();
    record_value_ = value_[static_cast<std::size_t>(w)];
    dec(f, u, v);
    for (node_id cur = u; cur != root_;) {
      node_id pick = -1;
      for (node_id p : in_adj_[static_cast<std::size_t>(cur)])
        if (f[idx(p, cur)] > 0) {
          pick = p;
          break;
        }
      NAB_ASSERT(pick >= 0, "tree_packing: flow conservation violated (backward)");
      dec(f, pick, cur);
      cur = pick;
      if (cur == v) return;  // cycle through (u, v) canceled; excess annihilated
    }
    for (node_id cur = v; cur != w;) {
      node_id pick = -1;
      for (node_id b : out_adj_[static_cast<std::size_t>(cur)])
        if (f[idx(cur, b)] > 0) {
          pick = b;
          break;
        }
      NAB_ASSERT(pick >= 0, "tree_packing: flow conservation violated (forward)");
      dec(f, cur, pick);
      cur = pick;
    }
    --value_[static_cast<std::size_t>(w)];
  }

  void undo_cancel(node_id w) {
    auto& f = flow_[static_cast<std::size_t>(w)];
    for (const auto& [a, b] : record_) f[idx(a, b)] += 1;
    value_[static_cast<std::size_t>(w)] = record_value_;
  }

  void dec(std::vector<capacity_t>& f, node_id a, node_id b) {
    f[idx(a, b)] -= 1;
    record_.emplace_back(a, b);
  }

  int n_;
  node_id root_;
  std::vector<node_id> nodes_;
  std::vector<capacity_t> rem_;
  std::vector<std::vector<node_id>> out_adj_, in_adj_;
  std::vector<std::vector<capacity_t>> flow_;  // per sink, dense n*n
  std::vector<capacity_t> value_;              // per sink, current flow value
  std::vector<node_id> prev_node_;             // BFS labels (-2 unvisited, -1 root)
  std::vector<char> prev_fwd_;
  std::vector<node_id> queue_;
  std::vector<std::pair<node_id, node_id>> record_;  // last cancel's decrements
  capacity_t record_value_ = 0;                      // value before last cancel
  pack_stats* stats_;
};

/// The Lovász construction driven by retained certificates: tails u in the
/// tree, then heads v outside it, both in ascending id order; the first safe
/// (u, v) joins the tree. Same scan order as the from-scratch construction,
/// exact predicate => identical trees.
std::vector<spanning_tree> lovasz_incremental(node_id root, int k, flow_certifier& certs) {
  const std::vector<node_id>& nodes = certs.nodes();
  std::vector<spanning_tree> trees;
  for (int t = 0; t < k; ++t) {
    const int remaining_after = k - t - 1;  // trees still to pack after this one
    spanning_tree tree;
    std::vector<bool> in_tree(static_cast<std::size_t>(certs.universe()), false);
    in_tree[static_cast<std::size_t>(root)] = true;
    std::size_t tree_size = 1;

    while (tree_size < nodes.size()) {
      bool extended = false;
      for (node_id u : nodes) {
        if (!in_tree[static_cast<std::size_t>(u)]) continue;
        for (node_id v : nodes) {
          if (in_tree[static_cast<std::size_t>(v)] || certs.rem_at(u, v) <= 0) continue;
          // Tentatively take (u, v); keep it iff MINCUT(root, w) >=
          // remaining_after holds for every w in the residual graph after
          // removing (u, v) — checked against the certificates.
          certs.rem_at(u, v) -= 1;
          if (certs.safe_after_removal(u, v, remaining_after)) {
            tree.edges.push_back({u, v, 1});
            in_tree[static_cast<std::size_t>(v)] = true;
            ++tree_size;
            extended = true;
            break;
          }
          certs.rem_at(u, v) += 1;  // unsafe; restore
        }
        if (extended) break;
      }
      // Edmonds/Lovász guarantee a safe edge exists; failing here means the
      // feasibility precondition was violated.
      NAB_ASSERT(extended, "pack_arborescences: no safe edge found");
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

/// Cheap randomized packing: grows each tree Prim-style over residual
/// capacities without safety checks. Fails (returns empty) when a greedy
/// choice strands a later tree; the caller falls back to the exact Lovász
/// construction. Head selection is scarcest-first: among out-of-tree nodes
/// with a crossing arc, attach the one with the least total remaining
/// in-capacity — each tree consumes exactly one in-unit per node, so the
/// node closest to being stranded is the one to attach now. This is what
/// lets regular sparse graphs (hypercubes) succeed on the first attempt
/// instead of falling through all attempts into the Lovász path. The tail is
/// then the max-residual crossing arc into that head (random among ties).
std::vector<spanning_tree> greedy_pack(const digraph& g, node_id root, int k,
                                       rng& rand) {
  const std::vector<node_id> nodes = g.active_nodes();
  const int n = g.universe();
  std::vector<capacity_t> rem(static_cast<std::size_t>(n) * n, 0);
  std::vector<std::vector<node_id>> in_adj(static_cast<std::size_t>(n));
  std::vector<capacity_t> in_cap(static_cast<std::size_t>(n), 0);
  for (const edge& e : g.edges()) {
    rem[static_cast<std::size_t>(e.from) * n + e.to] = e.cap;
    in_adj[static_cast<std::size_t>(e.to)].push_back(e.from);
    in_cap[static_cast<std::size_t>(e.to)] += e.cap;
  }
  auto rem_at = [&](node_id u, node_id v) -> capacity_t& {
    return rem[static_cast<std::size_t>(u) * n + v];
  };

  std::vector<spanning_tree> trees;
  std::vector<edge> crossing;
  for (int t = 0; t < k; ++t) {
    spanning_tree tree;
    std::vector<bool> in_tree(static_cast<std::size_t>(n), false);
    in_tree[static_cast<std::size_t>(root)] = true;
    for (std::size_t grown = 1; grown < nodes.size(); ++grown) {
      // Scarcest head with at least one crossing arc (smallest id on ties).
      node_id head = -1;
      capacity_t head_cap = 0;
      for (node_id v : nodes) {
        if (in_tree[static_cast<std::size_t>(v)]) continue;
        bool crossed = false;
        for (node_id u : in_adj[static_cast<std::size_t>(v)])
          if (in_tree[static_cast<std::size_t>(u)] && rem_at(u, v) > 0) {
            crossed = true;
            break;
          }
        if (!crossed) continue;
        if (head < 0 || in_cap[static_cast<std::size_t>(v)] < head_cap) {
          head = v;
          head_cap = in_cap[static_cast<std::size_t>(v)];
        }
      }
      if (head < 0) return {};
      // Max-residual crossing arc into the head, random among ties.
      crossing.clear();
      capacity_t best_rem = 0;
      for (node_id u : in_adj[static_cast<std::size_t>(head)]) {
        if (!in_tree[static_cast<std::size_t>(u)]) continue;
        const capacity_t r = rem_at(u, head);
        if (r <= 0 || r < best_rem) continue;
        if (r > best_rem) {
          best_rem = r;
          crossing.clear();
        }
        crossing.push_back({u, head, 1});
      }
      const edge pick = crossing[rand.below(crossing.size())];
      rem_at(pick.from, pick.to) -= 1;
      in_cap[static_cast<std::size_t>(pick.to)] -= 1;
      tree.edges.push_back(pick);
      in_tree[static_cast<std::size_t>(pick.to)] = true;
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

/// Exact packing for complete graphs with uniform capacity c: the classic
/// construction uses arborescences T_j = {root -> j} + {j -> w : w != root, j}
/// (depth 2). Distinct T_j are edge-disjoint, and c copies of each respect
/// every capacity, giving the full gamma = c * (n - 1) packing in O(n^2) —
/// no flows at all. Returns empty when g is not complete-uniform.
std::vector<spanning_tree> complete_uniform_pack(const digraph& g, node_id root,
                                                 int k) {
  const std::vector<node_id> nodes = g.active_nodes();
  if (nodes.size() < 2) return {};
  const capacity_t c = g.cap(nodes[0], nodes[1]);
  if (c <= 0) return {};
  for (node_id u : nodes)
    for (node_id v : nodes)
      if (u != v && g.cap(u, v) != c) return {};
  if (k > c * static_cast<capacity_t>(nodes.size() - 1)) return {};

  std::vector<node_id> hubs;
  for (node_id v : nodes)
    if (v != root) hubs.push_back(v);

  std::vector<spanning_tree> trees;
  trees.reserve(static_cast<std::size_t>(k));
  for (int t = 0; t < k; ++t) {
    // Cycle through the hubs; copy number t / (n - 1) of each stays <= c.
    const node_id j = hubs[static_cast<std::size_t>(t) % hubs.size()];
    spanning_tree tree;
    tree.edges.push_back({root, j, 1});
    for (node_id w : nodes)
      if (w != root && w != j) tree.edges.push_back({j, w, 1});
    trees.push_back(std::move(tree));
  }
  return trees;
}

[[noreturn]] void throw_infeasible(int k) {
  throw error("pack_arborescences: mincut from root is below k=" + std::to_string(k));
}

}  // namespace

std::vector<spanning_tree> pack_arborescences(const digraph& g, node_id root, int k,
                                              pack_stats* stats) {
  NAB_ASSERT(g.is_active(root), "pack_arborescences root must be active");
  NAB_ASSERT(k > 0, "pack_arborescences requires k > 0");
  if (g.active_nodes().size() < 2) throw_infeasible(k);

  // Closed-form packing for complete-uniform graphs (K_n presets and most
  // pre-dispute instance graphs): mincut from the root is c * (n - 1), so
  // both feasibility and the packing itself need no flows at all. An
  // infeasible complete-uniform request falls through and throws below.
  if (auto trees = complete_uniform_pack(g, root, k); !trees.empty()) return trees;

  // Feasibility check = certificate construction: one capped max-flow per
  // sink, retained for the Lovász fallback's incremental safe-edge test.
  flow_certifier certs(g, root, stats);
  if (!certs.certify_all(k)) throw_infeasible(k);

  // Fast path: a few randomized greedy attempts (deterministically seeded).
  rng rand(0x9ACC + static_cast<std::uint64_t>(k) * 131 + static_cast<std::uint64_t>(root));
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto trees = greedy_pack(g, root, k, rand);
    if (!trees.empty()) return trees;
  }
  return lovasz_incremental(root, k, certs);
}

std::vector<spanning_tree> pack_arborescences_lovasz(const digraph& g, node_id root,
                                                     int k, pack_stats* stats) {
  NAB_ASSERT(g.is_active(root), "pack_arborescences root must be active");
  NAB_ASSERT(k > 0, "pack_arborescences requires k > 0");
  if (g.active_nodes().size() < 2) throw_infeasible(k);
  flow_certifier certs(g, root, stats);
  if (!certs.certify_all(k)) throw_infeasible(k);
  return lovasz_incremental(root, k, certs);
}

}  // namespace nab::graph
