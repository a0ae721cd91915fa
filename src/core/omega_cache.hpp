#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bb/channels.hpp"
#include "core/omega.hpp"
#include "graph/digraph.hpp"
#include "graph/tree_packing.hpp"

namespace nab::core {

/// Everything the paper derives from (G_k, f, disputes) alone — i.e. from
/// quantities that do NOT depend on a run's seed. Immutable once built;
/// shared read-only across sweep workers via shared_ptr.
struct omega_analysis {
  std::vector<std::vector<graph::node_id>> omega;  ///< Omega_k enumeration
  graph::capacity_t uk = 0;                        ///< U_k over Omega_k
  graph::capacity_t rho = 0;                       ///< rho_k = max(U_k/2, 1)
};

/// The per-(G_k, source) half of Phase-1 state: gamma_k and the Edmonds
/// arborescence packing. Both are pure functions of the graph and root
/// (pack_arborescences seeds its greedy attempts from (k, root) only).
struct phase1_plan {
  graph::capacity_t gamma = 0;
  std::vector<graph::spanning_tree> trees;
  /// Deterministic packing work (charged to every run that uses this plan,
  /// hit or miss, so the counters sit inside the jobs-1-vs-N contract).
  graph::pack_stats stats;
};

/// Process-wide memo for topology analysis: Omega_k / U_k / rho_k keyed on
/// (graph fingerprint, f, dispute pairs) and Phase-1 plans keyed on
/// (graph fingerprint, source).
///
/// A fleet sweep re-derives the same answers for every run of a family
/// (deterministic presets expand to byte-identical graphs, and random ones
/// revisit the same instance graphs across adversary axes), so these
/// quantities are computed once per sweep instead of once per run.
///
/// Concurrency and determinism: each table maps a key to the shared future
/// of its immutable value, under one mutex held only to find or insert the
/// entry. The first lookup of a key inserts the future and fills it outside
/// the lock; concurrent lookups of the same key wait on it. Values are pure
/// functions of their keys, so a sweep's output is byte-identical for every
/// --jobs value regardless of hit/miss interleaving.
///
/// Collision safety: the 64-bit fingerprint only picks the hash bucket;
/// every entry stores the full canonical key (universe, active set,
/// capacity matrix, f, dispute pairs) and is compared exactly on lookup, so
/// a fingerprint collision costs a compare, never a wrong answer.
class omega_cache {
 public:
  /// The process-wide instance used by core::session.
  static omega_cache& instance();

  /// Omega_k / U_k / rho_k of (g, f, disputes); computed on miss.
  std::shared_ptr<const omega_analysis> analyze(const graph::digraph& g, int f,
                                                const dispute_record& disputes);

  /// gamma_k and the arborescence packing of (g, source); computed on miss.
  /// Precondition: every active node reachable from `source` (throws
  /// nab::error via pack_arborescences otherwise).
  std::shared_ptr<const phase1_plan> plan_for(const graph::digraph& g,
                                              graph::node_id source);

  /// Memoized graph::global_vertex_connectivity_at_least(g, k) — the 2f+1
  /// precondition is re-validated by the runner and the session for every
  /// run of a sweep. The capped decision form keeps freshly drawn random
  /// topologies (which can never hit the cache) cheap too.
  bool connectivity_at_least(const graph::digraph& g, int k);

  /// Memoized bb::channel_plan::build_routes(g, f): the 2f+1 node-disjoint
  /// emulation routes of the step-2.2/Phase-3 classical-BB channels. Routes
  /// run over the ORIGINAL network G, so every session of a preset shares
  /// one table. Throws nab::error when some pair lacks 2f+1 disjoint paths.
  std::shared_ptr<const bb::channel_plan::route_table> channel_routes_for(
      const graph::digraph& g, int f);

  /// Worker count a filling thread may use for the per-pair/per-tree inner
  /// loops of plan/route fills (<= 1 disables). Results are order-independent
  /// writes into preallocated slots, so fills are byte-identical for every
  /// value; the sweep runner wires its --jobs here. Fills on universes below
  /// 32 nodes always run inline (thread spawns would dominate, and the clean
  /// K_7 allocation budget stays untouched).
  void set_fill_parallelism(int jobs);

  /// Drops every entry (tests, sweep boundaries).
  void clear();

 private:
  using canonical_key = std::vector<std::int64_t>;

  /// The splitmix fingerprint of the whole key.
  struct key_hash {
    std::size_t operator()(const canonical_key& key) const;
  };
  template <class V>
  using table = std::unordered_map<canonical_key,
                                   std::shared_future<std::shared_ptr<const V>>,
                                   key_hash>;

  /// The shared lookup/fill sequence behind every public method. The first
  /// lookup of a key is its one miss: it inserts the future, fills it outside
  /// the lock inside the obs span `fill_span`, and counts cache_misses once
  /// the value exists. Every later lookup waits on the future and counts
  /// cache_hits once it gets the value. A fill that throws erases its entry,
  /// and the filler and every waiter rethrow its error (the value is a pure
  /// function of the key, so a retry would only recompute the same error);
  /// such lookups count neither. Every call counts one cache_lookups. Which
  /// run pays a fill is scheduling-dependent, so fill spans and the per-run
  /// hit/miss counters belong to the machine set; the lookup count is the
  /// deterministic companion.
  template <class V, class Compute>
  std::shared_ptr<const V> get_or_compute(table<V>& tbl,
                                          const canonical_key& key,
                                          const char* fill_span,
                                          const Compute& compute);

  /// Inner-loop worker count for the current fill (see set_fill_parallelism).
  int fill_jobs(const graph::digraph& g) const;

  std::atomic<int> fill_jobs_{1};
  std::mutex mu_;  ///< guards the four tables (not the values they hold)
  table<omega_analysis> analyses_;
  table<phase1_plan> plans_;
  table<int> connectivity_;
  table<bb::channel_plan::route_table> routes_;
};

}  // namespace nab::core
