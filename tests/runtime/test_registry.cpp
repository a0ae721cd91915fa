#include "runtime/scenario.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "graph/connectivity.hpp"
#include "graph/topology_io.hpp"
#include "runtime/runner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::runtime {
namespace {

std::vector<scenario> all_scenarios() { return select_scenarios("all"); }

TEST(Registry, CatalogIsLargeEnoughForTheSweepContract) {
  // The acceptance bar: a sweep of >= 20 distinct scenario configurations.
  EXPECT_GE(all_scenarios().size(), 20u);
  EXPECT_GE(registry().size(), 10u);
}

TEST(Registry, FamilyNamesAndScenarioNamesAreUnique) {
  std::set<std::string> family_names;
  for (const scenario_family& fam : registry())
    EXPECT_TRUE(family_names.insert(fam.name).second) << fam.name;
  std::set<std::string> names;
  for (const scenario& s : all_scenarios())
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario " << s.name;
}

TEST(Registry, SelectByNameMatchesExpandAndRejectsUnknown) {
  const scenario_family* fam = find_family("complete");
  ASSERT_NE(fam, nullptr);
  EXPECT_EQ(select_scenarios("complete"), fam->expand());
  // Comma lists concatenate in order.
  const auto both = select_scenarios("fig1,fig2");
  EXPECT_EQ(both.size(),
            find_family("fig1")->expand().size() + find_family("fig2")->expand().size());
  EXPECT_THROW(select_scenarios("no-such-family"), nab::error);
  EXPECT_EQ(find_family("no-such-family"), nullptr);
}

TEST(Registry, SelectRejectsEmptyAndRepeatedFamilies) {
  // Only "all" selects the whole registry: a list naming no family must not
  // widen the sweep to everything (or run nothing and pass), and a family
  // named twice would repeat scenario names that must be unique in a sweep.
  for (const char* names : {"", ",", ",,", "fig1,fig1", "fig1,fig2,fig1"}) {
    try {
      select_scenarios(names);
      ADD_FAILURE() << "'" << names << "' selected a sweep";
    } catch (const nab::error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + names + "'"),
                std::string::npos)
          << "error must name the input: " << e.what();
    }
  }
  // Empty items around real names are still tolerated.
  EXPECT_EQ(select_scenarios("fig1,"), select_scenarios("fig1"));
}

TEST(Registry, EnumStringsRoundTrip) {
  // Topology kinds are only ever printed (the record's "topology" key), so
  // what must hold is that no two kinds print the same name.
  std::set<std::string> topology_names;
  for (auto k : {topology_kind::complete, topology_kind::fig1a, topology_kind::fig1b,
                 topology_kind::fig2, topology_kind::ring,
                 topology_kind::random_regular, topology_kind::hypercube,
                 topology_kind::clustered_wan, topology_kind::dumbbell,
                 topology_kind::weak_link, topology_kind::path_of_cliques,
                 topology_kind::file})
    EXPECT_TRUE(topology_names.insert(to_string(k)).second) << to_string(k);
  EXPECT_EQ(topology_names.count("?"), 0u);
  for (auto k : {adversary_kind::honest, adversary_kind::p1_garble,
                 adversary_kind::equivocate, adversary_kind::p2_lie,
                 adversary_kind::false_flag, adversary_kind::stealth,
                 adversary_kind::dispute_farm, adversary_kind::chaos,
                 adversary_kind::hunted})
    EXPECT_EQ(adversary_kind_from_string(to_string(k)), k);
  // Unknown names fail loudly rather than map onto a default.
  EXPECT_THROW(adversary_kind_from_string("quantum"), nab::error);
}

TEST(Registry, TopologyNodesMatchesBuiltGraph) {
  rng rand(7);
  for (const scenario& s : all_scenarios()) {
    const graph::digraph g = build_topology(s.topology, rand);
    EXPECT_EQ(g.universe(), topology_nodes(s.topology)) << s.name;
  }
}

TEST(Registry, PresetTopologiesSupportTheirFaultBudgets) {
  // Deterministic presets must satisfy n >= 3f+1 and connectivity >= 2f+1
  // outright; random presets get the runner's reseed loop, so they are only
  // required to declare feasible parameters (d >= 2f+1 etc.). Each distinct
  // (topology, f) pair is checked once — the adversary/word axes multiply
  // scenarios without changing the graph — and the 2f+1 bound uses the
  // capped decision check so the frontier presets (K_64, n = 128) don't pay
  // for exact connectivity they never rely on.
  rng rand(11);
  std::set<std::string> seen;
  for (const scenario& s : all_scenarios()) {
    if (s.topology.kind == topology_kind::random_regular) continue;
    const auto& t = s.topology;
    const std::string key = to_string(t.kind) + ":" + std::to_string(t.n) + ":" +
                            std::to_string(t.param_a) + ":" +
                            std::to_string(t.param_b) + ":" +
                            std::to_string(t.cap_lo) + ":" +
                            std::to_string(t.cap_hi) + ":" + std::to_string(s.f);
    if (!seen.insert(key).second) continue;
    const graph::digraph g = build_topology(s.topology, rand);
    EXPECT_GE(g.universe(), 3 * s.f + 1) << s.name;
    if (s.f > 0) {
      EXPECT_TRUE(graph::global_vertex_connectivity_at_least(g, 2 * s.f + 1))
          << s.name;
    }
  }
}

TEST(Registry, ScalingPresetsExist) {
  // The K_16-class presets this PR unlocks must stay in the catalog.
  for (const char* name : {"k16_dense", "hypercube_d5", "wan_5cluster"})
    EXPECT_NE(find_family(name), nullptr) << name;
  EXPECT_EQ(find_family("k16_dense")->expand().front().topology.n, 16);
  EXPECT_EQ(topology_nodes(find_family("hypercube_d5")->expand().front().topology), 32);
  EXPECT_EQ(topology_nodes(find_family("wan_5cluster")->expand().front().topology), 20);
}

TEST(Registry, N64PresetsPinTheCollapsedClaimBackend) {
  // The n = 64 families exist because the collapsed backend makes their
  // dispute phases polynomial; they must stay pinned to it.
  for (const char* name : {"k64_dense", "hypercube_d6"}) {
    const scenario_family* fam = find_family(name);
    ASSERT_NE(fam, nullptr) << name;
    for (const scenario& s : fam->expand()) {
      EXPECT_EQ(topology_nodes(s.topology), 64) << s.name;
      EXPECT_EQ(s.claim_backend, bb::claim_backend::collapsed) << s.name;
    }
  }
  // The claim ablation sweeps both engines on one topology.
  const scenario_family* ablation = find_family("ablation-claims");
  ASSERT_NE(ablation, nullptr);
  std::set<bb::claim_backend> seen;
  for (const scenario& s : ablation->expand()) seen.insert(s.claim_backend);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Registry, FrontierPresetsPinTheLeaveOneOutScale) {
  // K_64-complete and the 128-node hypercube exist because the f = 1
  // leave-one-out certifier and the SIMD row kernels make their rank checks
  // affordable; they must keep the shape that guarantees that path (f = 1,
  // collapsed claims).
  const scenario_family* k64c = find_family("k64_complete");
  ASSERT_NE(k64c, nullptr);
  for (const scenario& s : k64c->expand()) {
    EXPECT_EQ(s.topology.kind, topology_kind::complete) << s.name;
    EXPECT_EQ(topology_nodes(s.topology), 64) << s.name;
    EXPECT_EQ(s.f, 1) << s.name;
    EXPECT_EQ(s.claim_backend, bb::claim_backend::collapsed) << s.name;
  }
  const scenario_family* d7 = find_family("hypercube_d7");
  ASSERT_NE(d7, nullptr);
  for (const scenario& s : d7->expand()) {
    EXPECT_EQ(topology_nodes(s.topology), 128) << s.name;
    EXPECT_EQ(s.f, 1) << s.name;
    EXPECT_EQ(s.claim_backend, bb::claim_backend::collapsed) << s.name;
  }
}

TEST(Registry, PhaseKingEnginesAreOnlyConfiguredAboveFourF) {
  // The > 4f precondition of the phase-king flag engine is a registry-time
  // feasibility rule: an undersized preset would be rejected at session
  // construction, so none may exist. Checked against the topology's node
  // count (every preset runs BB over the whole original network).
  for (const scenario& s : all_scenarios()) {
    const int n = topology_nodes(s.topology);
    if (s.flag_protocol == bb::bb_protocol::phase_king) {
      EXPECT_TRUE(bb::phase_king_admissible(static_cast<std::size_t>(n), s.f))
          << s.name;
    }
  }
}

TEST(Registry, ClaimBackendNamesAreDistinct) {
  // Claim backends are only ever printed (the record's "claim_backend" key).
  std::set<std::string> names;
  for (auto b : {bb::claim_backend::auto_select, bb::claim_backend::eig,
                 bb::claim_backend::collapsed})
    EXPECT_TRUE(names.insert(to_string(b)).second) << to_string(b);
  EXPECT_EQ(names.count("?"), 0u);
}

TEST(Registry, TopologyFileScenarioMatchesGenerator) {
  // A generator's graph written out and read back as a `file` topology, with
  // the corrupt set the seeded draw picked passed explicitly, must replay
  // the registry run exactly: only the topology echo differs.
  const std::vector<scenario> sweep = all_scenarios();
  int checked = 0;
  for (int i = 0; i < static_cast<int>(sweep.size()); ++i) {
    const scenario& s = sweep[static_cast<std::size_t>(i)];
    if (s.name != "complete-f2/stealth" && s.name != "hypercube/p1_garble" &&
        s.name != "lossy_k7/p1_garble")
      continue;
    ++checked;
    const run_record rec = execute_scenario(s, i, 1);
    ASSERT_TRUE(rec.ok()) << s.name;
    ASSERT_GT(rec.disputes, 0) << s.name;

    rng unused(0);
    const graph::digraph g = build_topology(s.topology, unused);
    scenario from_file = s;
    from_file.topology = {.kind = topology_kind::file,
                          .text = graph::format_topology(g)};
    from_file.corrupt.assign(rec.corrupt.begin(), rec.corrupt.end());
    EXPECT_EQ(topology_nodes(from_file.topology), g.universe()) << s.name;
    run_record replay = execute_scenario(from_file, i, 1);
    EXPECT_EQ(replay.topology, "file");
    replay.topology = rec.topology;
    EXPECT_EQ(replay, rec) << s.name;
  }
  EXPECT_EQ(checked, 3);
}

TEST(Registry, TopologyFileScenarioValidatesItsInput) {
  std::ifstream in(NAB_TEST_DATA_DIR "/k5.txt");
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string k5 = buf.str();

  const scenario s = topology_file_scenario("k5.txt", k5, 1,
                                            adversary_kind::p1_garble, {2});
  EXPECT_EQ(s.name, "k5.txt");
  EXPECT_EQ(s.topology.kind, topology_kind::file);
  EXPECT_EQ(topology_nodes(s.topology), 5);
  EXPECT_EQ(s.f, 1);
  EXPECT_EQ(s.adversary, adversary_kind::p1_garble);
  EXPECT_EQ(s.corrupt, std::vector<graph::node_id>{2});
  EXPECT_EQ(s.flag_protocol, bb::bb_protocol::auto_select);
  EXPECT_EQ(s.claim_backend, bb::claim_backend::auto_select);
  EXPECT_EQ(s.instances, scenario{}.instances);
  EXPECT_EQ(s.words, scenario{}.words);
  // The explicit set is what runs (no seeded draw matches all four), and
  // the garbler is caught.
  for (graph::node_id v = 1; v < 5; ++v) {
    scenario with_v = s;
    with_v.corrupt = {v};
    const run_record rec = execute_scenario(with_v, 0, 1);
    EXPECT_TRUE(rec.ok()) << v;
    EXPECT_EQ(rec.corrupt, std::vector<int>{v});
    EXPECT_GT(rec.disputes, 0) << v;
    EXPECT_EQ(rec.convictions, 1) << v;
  }

  // Each rejection names the offending value instead of tripping the
  // fault_set assertion (or running a vacuous session).
  const auto rejects = [&](const std::string& text, int f, adversary_kind adv,
                           std::vector<graph::node_id> corrupt,
                           const std::string& needle) {
    try {
      topology_file_scenario("k5.txt", text, f, adv, std::move(corrupt));
      ADD_FAILURE() << "accepted; expected an error naming " << needle;
    } catch (const nab::error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "error must name " << needle << ": " << e.what();
    }
  };
  rejects(k5, 1, adversary_kind::honest, {9}, "node 9");
  rejects(k5, 1, adversary_kind::honest, {5}, "node 5");
  rejects(k5, 2, adversary_kind::honest, {1, 1}, "node 1 twice");
  rejects(k5, 1, adversary_kind::honest, {1, 2}, "names 2 nodes");
  rejects(k5, 0, adversary_kind::p1_garble, {3}, "--f 0");
  rejects(k5, 1, adversary_kind::hunted, {}, "hunted");
  rejects(k5, 1, adversary_kind::equivocate, {2}, "node 0");
  EXPECT_NO_THROW(
      topology_file_scenario("k5.txt", k5, 1, adversary_kind::equivocate, {0}));
  rejects("nodes 5\nedge 0 7 1\n", 1, adversary_kind::honest, {}, "line 2");
  rejects("nodes 1\n", 0, adversary_kind::honest, {}, "at least 2");
  rejects("nodes 3\nbiedge 0 1 1\n", 0, adversary_kind::honest, {}, "cannot reach");
  // A budget the graph cannot carry fails here, before the run starts.
  rejects(k5, 2, adversary_kind::honest, {}, "--f 2");
  rejects(k5, 2, adversary_kind::honest, {}, "3f+1 = 7");
  const std::string ring4 =
      "nodes 4\nbiedge 0 1 1\nbiedge 1 2 1\nbiedge 2 3 1\nbiedge 3 0 1\n";
  rejects(ring4, 1, adversary_kind::honest, {}, "--f 1");
  rejects(ring4, 1, adversary_kind::honest, {}, "2f+1 = 3");
  EXPECT_NO_THROW(
      topology_file_scenario("ring4.txt", ring4, 0, adversary_kind::honest, {}));
  rejects("", 1, adversary_kind::honest, {}, "k5.txt");
}

TEST(Registry, TraceCaptureFillsDeterministicTrafficMatrices) {
  // fleet --trace rides on execute_scenario's capture flag: the traffic
  // matrix must be filled, workload-determined (identical across repeats),
  // and absent without the flag so BENCH_runtime.json stays byte-stable.
  const scenario s = select_scenarios("complete").front();
  const run_record traced = execute_scenario(s, 0, 11, /*capture_trace=*/true);
  ASSERT_EQ(traced.traffic.size(),
            static_cast<std::size_t>(traced.nodes) * traced.nodes);
  std::uint64_t total = 0;
  for (std::uint64_t bits : traced.traffic) total += bits;
  EXPECT_GT(total, 0u);

  const run_record again = execute_scenario(s, 0, 11, /*capture_trace=*/true);
  EXPECT_EQ(traced, again);

  run_record untraced = execute_scenario(s, 0, 11);
  EXPECT_TRUE(untraced.traffic.empty());
  // Everything but the trace matrix matches the traced run.
  untraced.traffic = traced.traffic;
  EXPECT_EQ(untraced, traced);
}

TEST(Registry, PipelinedPropagationIsARunnableAxis) {
  // ablation-propagation now carries the Appendix-D pipelined mode; the
  // runner must execute it via core::run_pipelined, fill the pipeline
  // fields, and stay deterministic.
  const auto sweep = select_scenarios("ablation-propagation");
  const scenario* pipelined = nullptr;
  for (const scenario& s : sweep)
    if (s.propagation == core::propagation_mode::pipelined) pipelined = &s;
  ASSERT_NE(pipelined, nullptr);

  const run_record rec = execute_scenario(*pipelined, 2, 11);
  EXPECT_TRUE(rec.ok()) << rec.scenario;
  EXPECT_GT(rec.pipeline_depth, 1);
  EXPECT_GT(rec.pipeline_speedup, 1.0);  // pipelining must beat sequential
  EXPECT_GT(rec.throughput, 0.0);
  EXPECT_TRUE(rec.corrupt.empty());  // Appendix-D regime is fault-free
  EXPECT_EQ(rec, execute_scenario(*pipelined, 2, 11));

  // The non-pipelined siblings keep pipeline fields zeroed.
  for (const scenario& s : sweep) {
    if (s.propagation == core::propagation_mode::pipelined) continue;
    const run_record other = execute_scenario(s, 0, 11);
    EXPECT_EQ(other.pipeline_depth, 0) << other.scenario;
    EXPECT_EQ(other.pipeline_speedup, 0.0) << other.scenario;
  }

  // Pipelined runs are fault-free by construction; pairing the axis with a
  // non-honest adversary must be rejected, not silently ignored.
  scenario bad = *pipelined;
  bad.adversary = adversary_kind::stealth;
  EXPECT_THROW(execute_scenario(bad, 0, 11), nab::error);
}

}  // namespace
}  // namespace nab::runtime
