#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bb/broadcast.hpp"
#include "bb/claim_bcast.hpp"
#include "core/adversary.hpp"
#include "core/phase1.hpp"
#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace nab::runtime {

/// Which generator builds a scenario's topology.
enum class topology_kind {
  complete,
  fig1a,            ///< the paper's Figure 1(a)
  fig1b,            ///< Figure 1(b) (post-dispute)
  fig2,             ///< Figure 2(a)
  ring,
  random_regular,
  hypercube,        ///< 2^dim nodes, dim = param_a
  clustered_wan,    ///< param_a clusters of param_b nodes
  dumbbell,         ///< two fat clusters, thin bridges (capacity skew)
  weak_link,        ///< complete graph with one capacity-1 link (skew)
  path_of_cliques,  ///< param_a hops of param_b-cliques (pipelining regime)
  file,             ///< topology_spec::text in graph/topology_io's format
};

/// Declarative topology description, expanded to a digraph per run. The
/// params are generator-specific (documented per kind above); random
/// generators draw from the run's derived rng so every shard is
/// reproducible in isolation.
struct topology_spec {
  topology_kind kind = topology_kind::complete;
  int n = 4;                      ///< node count (kinds with a free n)
  int param_a = 0;                ///< dim / clusters / hops / degree
  int param_b = 0;                ///< cluster size
  graph::capacity_t cap_lo = 1;   ///< uniform capacity, or fat side of a skew
  graph::capacity_t cap_hi = 1;   ///< upper capacity for random draws
  std::string text = {};          ///< `file` kind: the topology file's text

  bool operator==(const topology_spec&) const = default;
};

/// Materializes the spec. Random kinds consume `rand`; deterministic kinds
/// ignore it. The result is NOT guaranteed to satisfy NAB's f-dependent
/// preconditions — the runner validates and (for random kinds) retries with
/// a reseeded generator.
graph::digraph build_topology(const topology_spec& spec, rng& rand);

/// How many nodes the spec expands to (without building it; a `file` spec
/// parses its text).
int topology_nodes(const topology_spec& spec);

/// Adversary strategies the registry can name (factories over
/// core/strategies.hpp).
enum class adversary_kind {
  honest,        ///< no attack (corrupt set may still be non-empty)
  p1_garble,     ///< phase1_corruptor
  equivocate,    ///< equivocating_source (source must be corrupt)
  p2_lie,        ///< phase2_liar
  false_flag,    ///< false_flagger
  stealth,       ///< stealth_disputer (realizes the f(f+1) dispute bound)
  dispute_farm,  ///< dispute_farmer
  chaos,         ///< chaos_adversary (seeded fuzzing across all hooks)
  hunted,        ///< genome_adversary replayed from scenario::genome (hunt.hpp)
};

/// Instantiates the strategy (nullptr for honest). `seed` feeds the seeded
/// strategies; `minority` parameterizes the equivocating source; `genome` is
/// the serialized hunt_genome a `hunted` scenario replays (required there,
/// ignored everywhere else — see runtime/hunt.hpp).
std::unique_ptr<core::nab_adversary> make_adversary(adversary_kind kind,
                                                    std::uint64_t seed,
                                                    graph::node_id minority_victim,
                                                    std::string_view genome = {});

/// One fully concrete, runnable configuration — the unit of fleet work.
struct scenario {
  std::string name;     ///< unique within a sweep (family + axis values)
  std::string family;   ///< registry preset it expanded from
  topology_spec topology;
  int f = 1;
  adversary_kind adversary = adversary_kind::honest;
  core::propagation_mode propagation = core::propagation_mode::cut_through;
  bb::bb_protocol flag_protocol = bb::bb_protocol::eig;
  /// Phase-3 DC1 claim-dissemination backend (bb/claim_bcast.hpp).
  bb::claim_backend claim_backend = bb::claim_backend::eig;
  int instances = 4;              ///< NAB instances per run (amortization)
  std::uint64_t words = 64;       ///< 16-bit words per input (L = 16*words)
  bool rotate_sources = false;
  /// Serialized hunt_genome (hunt_genome::to_params form) when `adversary`
  /// is `hunted`; empty otherwise. The registry's hunted_* presets pin the
  /// worst-case genomes `fleet --hunt` found, so tier-1 replays them as
  /// regression tests forever.
  std::string genome;
  /// Arena-pool the per-instance allocations (core::session_config). Both
  /// settings must produce byte-identical records — the determinism tests
  /// sweep this axis; presets leave it on.
  bool pool_memory = true;
  /// Link-fault process (sim::link_faults): "none" = perfect links (no model
  /// attached), otherwise a spec sim::parse_loss_spec accepts — a preset
  /// name ("zero", "light", "bursty", "heavy") or a custom
  /// "p_good,p_bad,p_g2b,p_b2g" tuple. Stored as the verbatim spec string,
  /// which run records echo.
  std::string loss = "none";
  /// Explicit corrupt set (`fleet --topology ... --corrupt A,B`). Empty =
  /// the runner's seeded draw; the registry presets leave it empty.
  std::vector<graph::node_id> corrupt;

  bool operator==(const scenario&) const = default;
};

/// A registry preset: named axes whose cartesian product expands into
/// concrete scenarios. Axes left at size 1 contribute nothing to the
/// product, so a family can be anything from a single pinned configuration
/// to a hundreds-strong sweep.
struct scenario_family {
  std::string name;
  std::string description;
  std::vector<topology_spec> topologies;
  std::vector<int> fault_budgets = {1};
  std::vector<adversary_kind> adversaries = {adversary_kind::honest};
  std::vector<std::uint64_t> word_counts = {64};
  std::vector<core::propagation_mode> propagations = {
      core::propagation_mode::cut_through};
  std::vector<bb::bb_protocol> flag_protocols = {bb::bb_protocol::eig};
  /// The claim-backends axis: which DC1 engines the family sweeps.
  std::vector<bb::claim_backend> claim_backends = {bb::claim_backend::eig};
  /// The loss axis: link-fault specs the family sweeps ("none" = clean).
  std::vector<std::string> losses = {"none"};
  int instances = 4;
  bool rotate_sources = false;
  /// Serialized hunt_genome for families whose adversary axis includes
  /// `hunted` (the promoted hunted_* presets); copied into every expanded
  /// scenario.
  std::string genome;

  /// Cartesian product over all axes, deterministic order (topology-major).
  std::vector<scenario> expand() const;
};

/// The built-in preset catalog: every Fig-1/Fig-2/ablation configuration
/// plus the scaling topologies (random regular, hypercube, clustered WAN,
/// capacity skews). Stable order; names unique.
const std::vector<scenario_family>& registry();

/// Lookup by family name (nullptr when absent).
const scenario_family* find_family(std::string_view name);

/// Expands a comma-separated family list ("all" = whole registry) into the
/// concrete sweep. Throws nab::error naming the input on an unknown family,
/// a family named twice, or a list that names no family.
std::vector<scenario> select_scenarios(std::string_view names);

/// The one-run sweep of `fleet --topology FILE`: the topology `text` read
/// from `path` (which names the run and its errors), fault budget `f`,
/// strategy `adversary`, and an explicit corrupt set (empty = the runner's
/// seeded draw). The flag protocol and claim backend are auto_select; the
/// rest keeps scenario's defaults. Throws nab::error naming the input when
/// the text does not parse or has fewer than 2 nodes, node 0 cannot reach
/// every node, `adversary` is hunted (it needs a genome), a corrupt id
/// repeats, lies outside the graph or exceeds the budget f, or the graph
/// cannot carry f (n < 3f+1, or vertex connectivity < 2f+1 when f > 0).
scenario topology_file_scenario(const std::string& path, const std::string& text,
                                int f, adversary_kind adversary,
                                std::vector<graph::node_id> corrupt);

// --- enum names (JSON fields; fleet --adversary parses the adversary's) ---

std::string to_string(topology_kind k);
std::string to_string(adversary_kind k);
std::string to_string(core::propagation_mode m);
std::string to_string(bb::bb_protocol p);
std::string to_string(bb::claim_backend b);
adversary_kind adversary_kind_from_string(std::string_view s);

}  // namespace nab::runtime
