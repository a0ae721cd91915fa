#include "runtime/scenario.hpp"

#include <algorithm>
#include <set>

#include "core/strategies.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/topology_io.hpp"
#include "runtime/hunt.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::runtime {

graph::digraph build_topology(const topology_spec& spec, rng& rand) {
  switch (spec.kind) {
    case topology_kind::complete:
      return graph::complete(spec.n, spec.cap_lo);
    case topology_kind::fig1a:
      return graph::paper_fig1a();
    case topology_kind::fig1b:
      return graph::paper_fig1b();
    case topology_kind::fig2:
      return graph::paper_fig2();
    case topology_kind::ring:
      return graph::ring(spec.n, spec.cap_lo);
    case topology_kind::random_regular:
      return graph::random_regular(spec.n, spec.param_a, spec.cap_lo, spec.cap_hi,
                                   rand);
    case topology_kind::hypercube:
      return graph::hypercube(spec.param_a, spec.cap_lo);
    case topology_kind::clustered_wan:
      return graph::clustered_wan(spec.param_a, spec.param_b, spec.cap_lo,
                                  spec.cap_hi);
    case topology_kind::dumbbell:
      return graph::dumbbell(spec.n, spec.cap_lo, spec.cap_hi);
    case topology_kind::weak_link:
      return graph::complete_with_weak_link(spec.n, spec.cap_lo);
    case topology_kind::path_of_cliques:
      return graph::path_of_cliques(spec.param_a, spec.param_b, spec.cap_lo);
    case topology_kind::file:
      return graph::parse_topology_text(spec.text);
  }
  throw error("build_topology: unhandled topology kind");
}

int topology_nodes(const topology_spec& spec) {
  switch (spec.kind) {
    case topology_kind::fig1a:
    case topology_kind::fig1b:
    case topology_kind::fig2:
      return 4;
    case topology_kind::hypercube:
      return 1 << spec.param_a;
    case topology_kind::clustered_wan:
    case topology_kind::path_of_cliques:
      return spec.param_a * spec.param_b;
    case topology_kind::file:
      return graph::parse_topology_text(spec.text).universe();
    default:
      return spec.n;
  }
}

std::unique_ptr<core::nab_adversary> make_adversary(adversary_kind kind,
                                                    std::uint64_t seed,
                                                    graph::node_id minority_victim,
                                                    std::string_view genome) {
  using namespace core;
  switch (kind) {
    case adversary_kind::honest:
      return nullptr;
    case adversary_kind::p1_garble:
      return std::make_unique<phase1_corruptor>();
    case adversary_kind::equivocate:
      return std::make_unique<equivocating_source>(
          std::set<graph::node_id>{minority_victim});
    case adversary_kind::p2_lie:
      return std::make_unique<phase2_liar>(seed);
    case adversary_kind::false_flag:
      return std::make_unique<false_flagger>();
    case adversary_kind::stealth:
      return std::make_unique<stealth_disputer>();
    case adversary_kind::dispute_farm:
      return std::make_unique<dispute_farmer>();
    case adversary_kind::chaos:
      return std::make_unique<chaos_adversary>(seed);
    case adversary_kind::hunted:
      if (genome.empty())
        throw error("make_adversary: a hunted scenario needs a genome");
      return std::make_unique<genome_adversary>(hunt_genome::from_params(genome),
                                                seed);
  }
  throw error("make_adversary: unhandled adversary kind");
}

namespace {

std::string axis_suffix(const scenario_family& fam, const scenario& s) {
  // Only axes with more than one value appear in the name, so single-config
  // families keep their bare preset name.
  std::string out;
  if (fam.topologies.size() > 1)
    out += "/" + to_string(s.topology.kind) + "-n" + std::to_string(topology_nodes(s.topology));
  if (fam.fault_budgets.size() > 1) out += "/f" + std::to_string(s.f);
  if (fam.adversaries.size() > 1) out += "/" + to_string(s.adversary);
  if (fam.word_counts.size() > 1) out += "/w" + std::to_string(s.words);
  if (fam.propagations.size() > 1) out += "/" + to_string(s.propagation);
  if (fam.flag_protocols.size() > 1) out += "/" + to_string(s.flag_protocol);
  // "cb-" disambiguates from the flag-protocol suffix (both axes share the
  // "auto"/"eig" value names).
  if (fam.claim_backends.size() > 1) out += "/cb-" + to_string(s.claim_backend);
  if (fam.losses.size() > 1) out += "/loss-" + s.loss;
  return out;
}

}  // namespace

std::vector<scenario> scenario_family::expand() const {
  NAB_ASSERT(!topologies.empty() && !fault_budgets.empty() && !adversaries.empty() &&
                 !word_counts.empty() && !propagations.empty() &&
                 !flag_protocols.empty() && !claim_backends.empty() && !losses.empty(),
             "scenario_family with an empty axis");
  std::vector<scenario> out;
  for (const topology_spec& topo : topologies)
    for (int f : fault_budgets)
      for (adversary_kind adv : adversaries)
        for (std::uint64_t w : word_counts)
          for (core::propagation_mode prop : propagations)
            for (bb::bb_protocol proto : flag_protocols)
              for (bb::claim_backend backend : claim_backends)
                for (const std::string& loss : losses) {
                  scenario s;
                  s.family = name;
                  s.topology = topo;
                  s.f = f;
                  s.adversary = adv;
                  s.words = w;
                  s.propagation = prop;
                  s.flag_protocol = proto;
                  s.claim_backend = backend;
                  s.loss = loss;
                  s.instances = instances;
                  s.rotate_sources = rotate_sources;
                  if (adv == adversary_kind::hunted) s.genome = genome;
                  s.name = name + axis_suffix(*this, s);
                  out.push_back(std::move(s));
                }
  return out;
}

namespace {

std::vector<scenario_family> build_registry() {
  using tk = topology_kind;
  using ak = adversary_kind;
  std::vector<scenario_family> reg;

  // --- The paper's worked figures, under every single-strategy attack. ---
  {
    scenario_family fam;
    fam.name = "fig1";
    fam.description =
        "Figure 1(a)/(b): the paper's hand-traced 4-node example. Vertex "
        "connectivity is 2, so full sessions run fault-free (f = 0) — the "
        "figure's dispute trajectory is covered by the capacity tests.";
    fam.topologies = {{.kind = tk::fig1a}, {.kind = tk::fig1b}};
    fam.fault_budgets = {0};
    fam.instances = 6;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "fig2";
    fam.description =
        "Figure 2(a): the asymmetric-capacity example whose two-tree packing "
        "shares link (1,2); gamma = 2 must be achieved (fault-free — the "
        "graph is directed-sparse and supports no positive f).";
    fam.topologies = {{.kind = tk::fig2}};
    fam.fault_budgets = {0};
    fam.instances = 6;
    reg.push_back(std::move(fam));
  }

  // --- Dense complete-graph sweep across fault budgets and adversaries. ---
  {
    scenario_family fam;
    fam.name = "complete";
    fam.description =
        "Complete graphs K_n under every built-in adversary strategy — the "
        "core correctness x throughput sweep (n - 1 trees, gamma = n - 1).";
    fam.topologies = {{.kind = tk::complete, .n = 4, .cap_lo = 1, .cap_hi = 1},
                      {.kind = tk::complete, .n = 7, .cap_lo = 2, .cap_hi = 2}};
    fam.adversaries = {ak::honest, ak::p1_garble, ak::equivocate, ak::p2_lie,
                       ak::false_flag, ak::stealth, ak::chaos};
    fam.instances = 6;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "complete-f2";
    fam.description =
        "K_7 with a two-node coalition (f = 2): dispute control must stay "
        "within the f(f+1) = 6 execution bound against the stealth strategy.";
    fam.topologies = {{.kind = tk::complete, .n = 7, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {2};
    fam.adversaries = {ak::honest, ak::stealth, ak::dispute_farm, ak::chaos};
    fam.instances = 10;
    reg.push_back(std::move(fam));
  }

  // --- Scaling topologies (beyond the paper's figures). ---
  {
    scenario_family fam;
    fam.name = "ring";
    fam.description =
        "Fault-free rings (vertex connectivity 2 only supports f = 0): "
        "gamma = 2 regardless of n, the anti-scaling throughput baseline.";
    fam.topologies = {{.kind = tk::ring, .n = 5, .cap_lo = 2, .cap_hi = 2},
                      {.kind = tk::ring, .n = 8, .cap_lo = 2, .cap_hi = 2}};
    fam.fault_budgets = {0};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "random-regular";
    fam.description =
        "Random d-regular graphs with random capacities in [1, 3]: the "
        "generic 'deployed overlay' case (d >= 2f + 1 for feasibility).";
    fam.topologies = {
        {.kind = tk::random_regular, .n = 8, .param_a = 4, .cap_lo = 1, .cap_hi = 3},
        {.kind = tk::random_regular, .n = 10, .param_a = 5, .cap_lo = 1, .cap_hi = 3}};
    fam.adversaries = {ak::honest, ak::p1_garble, ak::chaos};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "hypercube";
    fam.description =
        "Binary hypercubes (dim 3): sparse, vertex connectivity = dim, "
        "f <= (dim-1)/2 — the structured-sparse scaling point.";
    fam.topologies = {{.kind = tk::hypercube, .param_a = 3, .cap_lo = 2}};
    fam.adversaries = {ak::honest, ak::p1_garble, ak::p2_lie};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "clustered-wan";
    fam.description =
        "Geo-clustered WAN: complete clusters with fat local links joined by "
        "thin trunks; NAB's capacity-awareness is the whole point here.";
    fam.topologies = {{.kind = tk::clustered_wan, .param_a = 3, .param_b = 3,
                       .cap_lo = 4, .cap_hi = 1}};
    fam.adversaries = {ak::honest, ak::p1_garble, ak::stealth};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }

  // --- K_16-class scaling presets (unlocked by the omega_cache layer and
  // --- the certifier's batched GF kernels; see docs/RUNTIME.md). ---
  {
    scenario_family fam;
    fam.name = "k16_dense";
    fam.description =
        "K_16 at f in {1,2}: the dense scaling point. Omega_k holds up to "
        "C(16,2) = 120 subgraphs and certification is a 169x182 GF(2^16) "
        "rank question per subgraph — the workload the analysis cache and "
        "the batched GF kernels exist for.";
    fam.topologies = {{.kind = tk::complete, .n = 16, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {1, 2};
    fam.adversaries = {ak::honest, ak::stealth};
    fam.flag_protocols = {bb::bb_protocol::auto_select};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "hypercube_d5";
    fam.description =
        "Binary hypercube dim 5 (32 nodes, connectivity 5, f <= 2): the "
        "structured-sparse scaling point where the column-limited batched "
        "certifier wins. Flags run phase-king via auto_select, and the "
        "claim backend auto-collapses at f = 2 (EIG's Theta(n^f)*L DC1 was "
        "the documented n=32 bottleneck: 12.7 GiB of claim traffic per "
        "dispute phase, now 23 MiB).";
    fam.topologies = {{.kind = tk::hypercube, .param_a = 5, .cap_lo = 2}};
    fam.fault_budgets = {1, 2};
    fam.adversaries = {ak::honest, ak::p1_garble};
    fam.flag_protocols = {bb::bb_protocol::auto_select};
    fam.claim_backends = {bb::claim_backend::auto_select};
    fam.instances = 3;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "wan_5cluster";
    fam.description =
        "Five complete 4-node clusters with fat local links and thin WAN "
        "trunks (20 nodes): the geo-replication scaling point — NAB must "
        "price the trunks, and Omega_1 has 20 nineteen-node subgraphs.";
    fam.topologies = {{.kind = tk::clustered_wan, .param_a = 5, .param_b = 4,
                       .cap_lo = 4, .cap_hi = 1}};
    fam.adversaries = {ak::honest, ak::p1_garble, ak::stealth};
    fam.flag_protocols = {bb::bb_protocol::auto_select};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }

  // --- n = 64 presets (unlocked by the collapsed claim backend: EIG's
  // --- Theta(n^f)*L DC1 made any dispute phase at this scale infeasible). ---
  {
    scenario_family fam;
    fam.name = "k64_dense";
    fam.description =
        "64-node dense random-regular overlay (d = 10): the K_64-class "
        "scaling point. DC1 under EIG would relay ~65 full-transcript "
        "labels to 64 receivers for each of 65 claimants; the collapsed "
        "backend pays n^2 digests + one transcript copy per pair. f = 1 "
        "certification runs the leave-one-out downdate path: one all-blocks "
        "Gauss-Jordan answers all 64 rank questions (~1e8 GF words).";
    fam.topologies = {{.kind = tk::random_regular, .n = 64, .param_a = 10,
                       .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {1};
    fam.adversaries = {ak::honest, ak::p1_garble};
    fam.flag_protocols = {bb::bb_protocol::auto_select};
    fam.claim_backends = {bb::claim_backend::collapsed};
    fam.instances = 2;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "hypercube_d6";
    fam.description =
        "Binary hypercube dim 6 (64 nodes, connectivity 6, f <= 2): the "
        "structured-sparse n = 64 point. Omega_2 holds C(64,2) = 2016 "
        "subgraphs, each rank-checked by the prefix walk, and the collapsed "
        "claim backend keeps dispute phases polynomial where EIG's n^f "
        "label tree could not run at all.";
    fam.topologies = {{.kind = tk::hypercube, .param_a = 6, .cap_lo = 1}};
    fam.fault_budgets = {1, 2};
    fam.adversaries = {ak::honest, ak::p1_garble};
    fam.flag_protocols = {bb::bb_protocol::auto_select};
    fam.claim_backends = {bb::claim_backend::collapsed};
    fam.instances = 2;
    reg.push_back(std::move(fam));
  }

  // --- Frontier presets (unlocked by the leave-one-out certifier and the
  // --- SIMD row kernels: one all-blocks Gauss-Jordan answers every f = 1
  // --- rank question, so complete density and n = 128 certify in-sweep). ---
  {
    scenario_family fam;
    fam.name = "k64_complete";
    fam.description =
        "Complete K_64 (f = 1): the complete-density frontier. Omega_1 "
        "holds 64 subgraphs of 63 nodes at rho = 62, so each check matrix "
        "is a 3906-rank question over 4032 columns — feasible only because "
        "the leave-one-out certifier answers all 64 from ONE Gauss-Jordan "
        "of the all-blocks matrix plus a ~126-column corner per member "
        "(~3.2e10 GF words, ~10 s on the AVX2 row kernels; per-subgraph "
        "elimination would be 64x that).";
    fam.topologies = {{.kind = tk::complete, .n = 64, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {1};
    fam.adversaries = {ak::honest};
    fam.flag_protocols = {bb::bb_protocol::auto_select};
    fam.claim_backends = {bb::claim_backend::collapsed};
    fam.instances = 2;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "hypercube_d7";
    fam.description =
        "Binary hypercube dim 7 (128 nodes, connectivity 7, f = 1): the "
        "n = 128 frontier. Omega_1 holds 128 subgraphs of 127 nodes; the "
        "leave-one-out certifier answers them in ~3e8 GF words (~0.1 s on "
        "AVX2) where the per-prefix DFS walk took minutes, and the "
        "collapsed claim backend keeps dispute phases polynomial at this "
        "scale.";
    fam.topologies = {{.kind = tk::hypercube, .param_a = 7, .cap_lo = 1}};
    fam.fault_budgets = {1};
    fam.adversaries = {ak::honest, ak::p1_garble};
    fam.flag_protocols = {bb::bb_protocol::auto_select};
    fam.claim_backends = {bb::claim_backend::collapsed};
    fam.instances = 2;
    reg.push_back(std::move(fam));
  }

  // --- Adversarial capacity skews (the intro's unbounded-gap workloads). ---
  {
    scenario_family fam;
    fam.name = "capacity-skew";
    fam.description =
        "Dumbbell and weak-link skews: one thin link must not throttle "
        "throughput (capacity-oblivious protocols stall here, NAB must not).";
    fam.topologies = {{.kind = tk::dumbbell, .n = 6, .cap_lo = 4, .cap_hi = 1},
                      {.kind = tk::weak_link, .n = 5, .cap_lo = 4}};
    fam.adversaries = {ak::honest, ak::p1_garble};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }

  // --- Ablations: payload size, propagation model, flag-BB engine. ---
  {
    scenario_family fam;
    fam.name = "ablation-length";
    fam.description =
        "Amortization in L: throughput must rise toward the bound as the "
        "per-instance payload grows (Eq. 24 regime).";
    fam.topologies = {{.kind = tk::complete, .n = 5, .cap_lo = 1, .cap_hi = 1}};
    fam.word_counts = {16, 256, 2048};
    fam.instances = 3;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "ablation-propagation";
    fam.description =
        "cut-through vs store-and-forward vs Appendix-D pipelined Phase 1 "
        "(the regime Figure 3's pipelining repairs) on a 3-hop path of "
        "cliques; pipelined runs execute core::run_pipelined fault-free.";
    fam.topologies = {{.kind = tk::path_of_cliques, .param_a = 3, .param_b = 3,
                       .cap_lo = 1}};
    fam.propagations = {core::propagation_mode::cut_through,
                        core::propagation_mode::store_and_forward,
                        core::propagation_mode::pipelined};
    fam.instances = 3;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "ablation-claims";
    fam.description =
        "EIG vs collapsed for the Phase-3 claim broadcast on K_9 with an "
        "f = 2 coalition (false flags force a dispute phase every instance; "
        "stealth farms real disputes): dispute sets, convictions, and agreed "
        "values must be byte-identical across backends — only the DC1 claim "
        "bytes move.";
    fam.topologies = {{.kind = tk::complete, .n = 9, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {2};
    fam.adversaries = {ak::false_flag, ak::stealth};
    fam.claim_backends = {bb::claim_backend::eig, bb::claim_backend::collapsed};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "ablation-flags";
    fam.description =
        "EIG vs phase-king for the step-2.2 flag broadcast (the choice must "
        "not affect correctness, only constant-factor overhead).";
    fam.topologies = {{.kind = tk::complete, .n = 6, .cap_lo = 1, .cap_hi = 1}};
    fam.adversaries = {ak::p1_garble, ak::false_flag};
    fam.flag_protocols = {bb::bb_protocol::eig, bb::bb_protocol::phase_king};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }

  // --- Promoted hunt champions (fleet --hunt; see docs/HUNT.md). ---
  // Each genome below was found by the coverage-guided adversary search and
  // drives one invariant-margin gauge strictly below every hand-written
  // strategy on the same topology. They replay through the ordinary sweep
  // machinery, so tier-1 keeps re-checking that the tightest known squeezes
  // still satisfy the paper's invariants. Hand-written baselines at the time
  // of promotion: no K_7 preset records the quorum gauges at all, and the
  // K_9 ablation-claims minima are quorum_slack = 4, hold_surplus = 4.
  {
    scenario_family fam;
    fam.name = "hunted_k7_quorum";
    fam.description =
        "Promoted hunt champion: garbled forwards force the dispute path, "
        "then both corrupt nodes withhold READY so the collapsed claim "
        "broadcast accepts at the exact 2f+1 quorum (quorum_slack = 0; the "
        "honest-behavior slack on K_7 f=2 is 2).";
    fam.topologies = {{.kind = tk::complete, .n = 7, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {2};
    fam.adversaries = {ak::hunted};
    fam.word_counts = {16};
    fam.claim_backends = {bb::claim_backend::collapsed};
    fam.instances = 4;
    fam.genome =
        "p1_source=0,p1_forward=255,p2_lie=0,flag_flip=0,claim_tamper=0,"
        "input_lie=0,digest_equivocate=0,digest_garble=0,echo_suppress=0,"
        "ready_suppress=255,retrieval_forge=0,xor_mask=65535,victim_mode=0,"
        "corrupt_source=0,corrupt_salt=0,noise_salt=0";
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "hunted_k7_hold";
    fam.description =
        "Promoted hunt champion: garbled digests plus selective echo "
        "suppression shrink the echo set until accepted claims are held by "
        "the bare f+1 honest nodes needed for retrieval (hold_surplus = 0 "
        "on K_7 f=2; the honest-behavior surplus is 2).";
    fam.topologies = {{.kind = tk::complete, .n = 7, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {2};
    fam.adversaries = {ak::hunted};
    fam.word_counts = {16};
    fam.claim_backends = {bb::claim_backend::collapsed};
    fam.instances = 4;
    fam.genome =
        "p1_source=128,p1_forward=255,p2_lie=0,flag_flip=0,claim_tamper=128,"
        "input_lie=0,digest_equivocate=0,digest_garble=128,echo_suppress=128,"
        "ready_suppress=0,retrieval_forge=0,xor_mask=1,victim_mode=0,"
        "corrupt_source=0,corrupt_salt=238,noise_salt=76";
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "hunted_k9_quorum";
    fam.description =
        "Promoted hunt champion: the K_9 analogue of hunted_k7_quorum — "
        "READY suppression pins quorum_slack to 2, strictly below the "
        "hand-written ablation-claims minimum of 4.";
    fam.topologies = {{.kind = tk::complete, .n = 9, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {2};
    fam.adversaries = {ak::hunted};
    fam.word_counts = {16};
    fam.claim_backends = {bb::claim_backend::collapsed};
    fam.instances = 4;
    fam.genome =
        "p1_source=0,p1_forward=255,p2_lie=0,flag_flip=0,claim_tamper=0,"
        "input_lie=0,digest_equivocate=0,digest_garble=0,echo_suppress=0,"
        "ready_suppress=255,retrieval_forge=0,xor_mask=65535,victim_mode=0,"
        "corrupt_source=0,corrupt_salt=0,noise_salt=0";
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "hunted_k9_hold";
    fam.description =
        "Promoted hunt champion: a corrupt source pairing phase-2 lies and "
        "equivocation with echo suppression on K_9 f=2 drives hold_surplus "
        "to 1 (and quorum_slack to 2), strictly below the hand-written "
        "ablation-claims minima of 4.";
    fam.topologies = {{.kind = tk::complete, .n = 9, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {2};
    fam.adversaries = {ak::hunted};
    fam.word_counts = {16};
    fam.claim_backends = {bb::claim_backend::collapsed};
    fam.instances = 4;
    fam.genome =
        "p1_source=0,p1_forward=0,p2_lie=255,flag_flip=255,claim_tamper=128,"
        "input_lie=64,digest_equivocate=64,digest_garble=0,echo_suppress=192,"
        "ready_suppress=128,retrieval_forge=0,xor_mask=65535,victim_mode=1,"
        "corrupt_source=1,corrupt_salt=199,noise_salt=0";
    reg.push_back(std::move(fam));
  }

  // --- Lossy links: Gilbert-Elliott erasures + ARQ (sim/link_faults). ---
  // The loss axis composes with topology and adversary: honest runs must
  // survive bursts with zero disputes (erasure is never Byzantine evidence),
  // and tampering adversaries must still be convicted under the same loss
  // process. CI's lossy asserts on tier1's determinism sweep and
  // tests/runtime/test_lossy.cpp pin both.
  {
    scenario_family fam;
    fam.name = "lossy_k7";
    fam.description =
        "K_7 f=2 under the bursty Gilbert-Elliott preset: honest runs agree "
        "with zero disputes despite drops; a phase-1 garbler under the same "
        "loss process is still convicted (erasure vs tamper discrimination).";
    fam.topologies = {{.kind = tk::complete, .n = 7, .cap_lo = 1, .cap_hi = 1}};
    fam.fault_budgets = {2};
    fam.adversaries = {ak::honest, ak::p1_garble};
    fam.word_counts = {32};
    fam.losses = {"bursty"};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "lossy_hypercube";
    fam.description =
        "Hypercube d=3 sweeping light vs heavy loss (heavy adds per-link "
        "time jitter): multi-hop channel routes where every hop runs its own "
        "link-layer ARQ loop.";
    fam.topologies = {{.kind = tk::hypercube, .param_a = 3, .cap_lo = 2, .cap_hi = 2}};
    fam.fault_budgets = {1};
    fam.adversaries = {ak::honest};
    fam.word_counts = {32};
    fam.losses = {"light", "heavy"};
    fam.instances = 3;
    reg.push_back(std::move(fam));
  }
  {
    scenario_family fam;
    fam.name = "lossy_wan";
    fam.description =
        "Clustered WAN (3x3) f=1 under bursty loss with a stealth disputer: "
        "tamper disputes are still discovered and bounded while erasure-"
        "driven retransmissions ride the same links.";
    fam.topologies = {{.kind = tk::clustered_wan, .param_a = 3, .param_b = 3,
                       .cap_lo = 4, .cap_hi = 1}};
    fam.fault_budgets = {1};
    fam.adversaries = {ak::honest, ak::stealth};
    fam.word_counts = {32};
    fam.losses = {"bursty"};
    fam.instances = 4;
    reg.push_back(std::move(fam));
  }

  // --- Replicated-log style rotation: every replica proposes in turn. ---
  {
    scenario_family fam;
    fam.name = "rotating-sources";
    fam.description =
        "Source rotation over K_5 (replicated state machine usage): dispute "
        "evidence and the instance graph are shared across broadcasters.";
    fam.topologies = {{.kind = tk::complete, .n = 5, .cap_lo = 2, .cap_hi = 2}};
    fam.adversaries = {ak::honest, ak::p1_garble};
    fam.instances = 10;
    fam.rotate_sources = true;
    reg.push_back(std::move(fam));
  }

  return reg;
}

}  // namespace

const std::vector<scenario_family>& registry() {
  static const std::vector<scenario_family> reg = build_registry();
  return reg;
}

const scenario_family* find_family(std::string_view name) {
  for (const scenario_family& fam : registry())
    if (fam.name == name) return &fam;
  return nullptr;
}

std::vector<scenario> select_scenarios(std::string_view names) {
  std::vector<scenario> out;
  if (names == "all") {
    for (const scenario_family& fam : registry()) {
      auto expanded = fam.expand();
      out.insert(out.end(), expanded.begin(), expanded.end());
    }
    return out;
  }
  std::string csv(names);
  csv.push_back(',');
  std::string cur;
  std::set<std::string> seen;
  for (char c : csv) {
    if (c != ',') {
      cur.push_back(c);
      continue;
    }
    if (cur.empty()) continue;
    const scenario_family* fam = find_family(cur);
    if (fam == nullptr) throw error("unknown scenario family '" + cur + "'");
    if (!seen.insert(cur).second)
      throw error("scenario family '" + cur + "' is named twice in '" +
                  std::string(names) + "'");
    auto expanded = fam->expand();
    out.insert(out.end(), expanded.begin(), expanded.end());
    cur.clear();
  }
  // Only "all" asks for everything: an empty list must not widen the sweep.
  if (seen.empty())
    throw error("scenario list '" + std::string(names) + "' names no family");
  return out;
}

scenario topology_file_scenario(const std::string& path, const std::string& text,
                                int f, adversary_kind adversary,
                                std::vector<graph::node_id> corrupt) {
  if (adversary == adversary_kind::hunted)
    throw error("--adversary hunted replays a genome, which --topology runs "
                "cannot carry");
  graph::digraph g;
  try {
    g = graph::parse_topology_text(text);
  } catch (const error& e) {
    throw error(path + ": " + e.what());
  }
  // A broadcast needs a receiver, and Phase 1 needs a tree from node 0 to
  // every node; otherwise the session aborts, or certifies seed after seed.
  const int n = g.universe();
  if (n < 2)
    throw error(path + " has " + std::to_string(n) +
                " node(s); a broadcast needs at least 2");
  if (graph::broadcast_mincut(g, 0) == 0)
    throw error(path + ": node 0, the source, cannot reach every node");
  // The checks fault_set would otherwise assert on, reported by value.
  std::sort(corrupt.begin(), corrupt.end());
  for (std::size_t i = 0; i < corrupt.size(); ++i) {
    if (corrupt[i] < 0 || corrupt[i] >= n)
      throw error("--corrupt node " + std::to_string(corrupt[i]) + " is not one of " +
                  path + "'s " + std::to_string(n) + " nodes");
    if (i > 0 && corrupt[i] == corrupt[i - 1])
      throw error("--corrupt names node " + std::to_string(corrupt[i]) + " twice");
  }
  if (corrupt.size() > static_cast<std::size_t>(f))
    throw error("--corrupt names " + std::to_string(corrupt.size()) +
                " nodes, more than the fault budget --f " + std::to_string(f));
  // The runner would reject the budget too, but only once the run started.
  const std::string budget = "--f " + std::to_string(f);
  if (n < 3 * f + 1)
    throw error(path + " has " + std::to_string(n) + " nodes; " + budget +
                " needs at least 3f+1 = " + std::to_string(3 * f + 1));
  if (f > 0 && !graph::global_vertex_connectivity_at_least(g, 2 * f + 1))
    throw error(path + ": vertex connectivity is below 2f+1 = " +
                std::to_string(2 * f + 1) + ", which " + budget + " needs");
  // The runner pins the source into a drawn set for this strategy; an
  // explicit set without it would run an equivocator that never acts.
  if (adversary == adversary_kind::equivocate && !corrupt.empty() &&
      !std::binary_search(corrupt.begin(), corrupt.end(), 0))
    throw error("--adversary equivocate needs the source, node 0, in --corrupt");
  scenario s;
  s.name = path;
  s.family = "topology";
  s.topology = {.kind = topology_kind::file, .text = text};
  s.f = f;
  s.adversary = adversary;
  s.flag_protocol = bb::bb_protocol::auto_select;
  s.claim_backend = bb::claim_backend::auto_select;
  s.corrupt = std::move(corrupt);
  return s;
}

// --- string round-trip ---

std::string to_string(topology_kind k) {
  switch (k) {
    case topology_kind::complete: return "complete";
    case topology_kind::fig1a: return "fig1a";
    case topology_kind::fig1b: return "fig1b";
    case topology_kind::fig2: return "fig2";
    case topology_kind::ring: return "ring";
    case topology_kind::random_regular: return "random_regular";
    case topology_kind::hypercube: return "hypercube";
    case topology_kind::clustered_wan: return "clustered_wan";
    case topology_kind::dumbbell: return "dumbbell";
    case topology_kind::weak_link: return "weak_link";
    case topology_kind::path_of_cliques: return "path_of_cliques";
    case topology_kind::file: return "file";
  }
  return "?";
}

std::string to_string(adversary_kind k) {
  switch (k) {
    case adversary_kind::honest: return "honest";
    case adversary_kind::p1_garble: return "p1_garble";
    case adversary_kind::equivocate: return "equivocate";
    case adversary_kind::p2_lie: return "p2_lie";
    case adversary_kind::false_flag: return "false_flag";
    case adversary_kind::stealth: return "stealth";
    case adversary_kind::dispute_farm: return "dispute_farm";
    case adversary_kind::chaos: return "chaos";
    case adversary_kind::hunted: return "hunted";
  }
  return "?";
}

std::string to_string(core::propagation_mode m) {
  switch (m) {
    case core::propagation_mode::cut_through: return "cut_through";
    case core::propagation_mode::store_and_forward: return "store_and_forward";
    case core::propagation_mode::pipelined: return "pipelined";
  }
  return "?";
}

std::string to_string(bb::bb_protocol p) {
  switch (p) {
    case bb::bb_protocol::auto_select: return "auto";
    case bb::bb_protocol::eig: return "eig";
    case bb::bb_protocol::phase_king: return "phase_king";
  }
  return "?";
}

std::string to_string(bb::claim_backend b) {
  switch (b) {
    case bb::claim_backend::auto_select: return "auto";
    case bb::claim_backend::eig: return "eig";
    case bb::claim_backend::collapsed: return "collapsed";
  }
  return "?";
}

adversary_kind adversary_kind_from_string(std::string_view s) {
  for (adversary_kind k :
       {adversary_kind::honest, adversary_kind::p1_garble, adversary_kind::equivocate,
        adversary_kind::p2_lie, adversary_kind::false_flag, adversary_kind::stealth,
        adversary_kind::dispute_farm, adversary_kind::chaos, adversary_kind::hunted})
    if (to_string(k) == s) return k;
  throw error("unknown adversary kind '" + std::string(s) + "'");
}

}  // namespace nab::runtime
