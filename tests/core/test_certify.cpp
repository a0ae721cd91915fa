#include "core/certify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "gf/linalg.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

/// Rank over GF(2^16) by plain Gaussian elimination, one scalar field op at
/// a time (no row kernels).
std::size_t scalar_rank(std::vector<std::vector<gf::gf2_16::value_type>> m) {
  using F = gf::gf2_16;
  const std::size_t cols = m.empty() ? 0 : m[0].size();
  std::size_t rank = 0;
  for (std::size_t c = 0; c < cols && rank < m.size(); ++c) {
    std::size_t p = rank;
    while (p < m.size() && m[p][c] == 0) ++p;
    if (p == m.size()) continue;
    std::swap(m[p], m[rank]);
    const F::value_type inv = F::inv(m[rank][c]);
    for (std::size_t r = rank + 1; r < m.size(); ++r) {
      const F::value_type factor = F::mul(m[r][c], inv);
      for (std::size_t k = c; k < cols; ++k)
        m[r][k] = F::add(m[r][k], F::mul(factor, m[rank][k]));
    }
    ++rank;
  }
  return rank;
}

/// Test-local C_H, assembled straight from coding.matrix_for: rho rows per
/// node of H but its last, one column per capacity unit of each directed
/// edge inside H, C_e in both endpoint blocks — independent of libnab's
/// layout builder.
std::vector<std::vector<gf::gf2_16::value_type>> oracle_check_matrix(
    const graph::digraph& g, const std::vector<graph::node_id>& h,
    const coding_scheme& coding) {
  const auto rho = static_cast<std::size_t>(coding.rho());
  // Node h[i] owns rows [i * rho, (i + 1) * rho), except the reference
  // h.back(), which owns none (-1).
  std::vector<bool> in_h(static_cast<std::size_t>(g.universe()), false);
  std::vector<std::ptrdiff_t> block(static_cast<std::size_t>(g.universe()), -1);
  for (std::size_t i = 0; i < h.size(); ++i) {
    in_h[static_cast<std::size_t>(h[i])] = true;
    if (i + 1 < h.size()) block[static_cast<std::size_t>(h[i])] = static_cast<std::ptrdiff_t>(i);
  }
  std::vector<std::vector<gf::gf2_16::value_type>> ch((h.size() - 1) * rho);
  for (const graph::edge& e : g.edges()) {
    if (!in_h[static_cast<std::size_t>(e.from)] || !in_h[static_cast<std::size_t>(e.to)])
      continue;
    const std::ptrdiff_t bu = block[static_cast<std::size_t>(e.from)];
    const std::ptrdiff_t bv = block[static_cast<std::size_t>(e.to)];
    const auto& ce = coding.matrix_for(e.from, e.to);
    for (std::size_t k = 0; k < ce.cols(); ++k) {
      for (auto& row : ch) row.push_back(0);
      for (std::size_t s = 0; s < rho; ++s) {
        if (bu >= 0) ch[static_cast<std::size_t>(bu) * rho + s].back() = ce.at(s, k);
        if (bv >= 0) ch[static_cast<std::size_t>(bv) * rho + s].back() = ce.at(s, k);
      }
    }
  }
  return ch;
}

/// Test-local certifier: every H in Omega_k's oracle_check_matrix ranked by
/// scalar_rank — independent of every elimination libnab runs.
certification oracle_certify(const graph::digraph& g, int f,
                             const dispute_record& disputes,
                             const coding_scheme& coding) {
  certification out;
  out.ok = true;
  for (const auto& h : omega_subgraphs(g, f, disputes)) {
    if (h.size() <= 1) continue;
    const auto ch = oracle_check_matrix(g, h, coding);
    if (scalar_rank(ch) != ch.size()) {
      out.ok = false;
      out.failing.push_back(h);
    }
  }
  return out;
}

/// certify_coding's three paths (see certify.hpp).
enum class cert_path { leave_one_out, dense, prefix_walk };

/// Runs certify_coding, expects its verdict and failing list (in order) to
/// equal oracle_certify's, and returns the path that ran, read off the
/// path-specific counters (left in `counters` when given).
cert_path expect_matches_oracle(const graph::digraph& g, int f,
                                const dispute_record& disputes,
                                const coding_scheme& coding, const std::string& label,
                                obs::collector* counters = nullptr) {
  obs::collector local;
  obs::collector& col = counters != nullptr ? *counters : local;
  certification c;
  {
    obs::scoped_collector scope(&col);
    c = certify_coding(g, f, disputes, coding);
  }
  const certification oracle = oracle_certify(g, f, disputes, coding);
  EXPECT_EQ(c.ok, oracle.ok) << label;
  EXPECT_EQ(c.failing, oracle.failing) << label;
  if (col.value(obs::counter::cert_loo_downdates) > 0) return cert_path::leave_one_out;
  return col.value(obs::counter::cert_prefix_pushes) > 0 ? cert_path::prefix_walk
                                                         : cert_path::dense;
}

TEST(Certify, RandomMatricesCertifyOnPaperGraphs) {
  // Theorem 1: random coding matrices are correct with overwhelming
  // probability over GF(2^16).
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 1, 1234);  // rho = U1/2 = 1
  const certification c = certify_coding(g, 1, dispute_record{}, cs);
  EXPECT_TRUE(c.ok);
  EXPECT_TRUE(c.failing.empty());
}

TEST(Certify, CompleteGraphHigherRho) {
  const graph::digraph g = graph::complete(7, 2);
  // U1 = min pairwise cut over 5-subsets = 4*4=16 -> rho = 8.
  const graph::capacity_t uk = compute_uk(g, 2, dispute_record{});
  const coding_scheme cs =
      coding_scheme::generate(g, static_cast<int>(compute_rho(uk)), 99);
  EXPECT_TRUE(certify_coding(g, 2, dispute_record{}, cs).ok);
}

TEST(Certify, OverlargeRhoFailsCertification) {
  // rho above U_k/2 violates Theorem 1's premise: C_H cannot reach full row
  // rank because some H has too little capacity. Use the paper's Fig 1(a)
  // with rho = 3 (U_1 = 2 means rho must be 1).
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 3, 5);
  const certification c = certify_coding(g, 1, dispute_record{}, cs);
  EXPECT_FALSE(c.ok);
  EXPECT_FALSE(c.failing.empty());
}

TEST(Certify, CheckMatrixShape) {
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 1, 7);
  // H = {0,1,2}: edges inside are (0,1),(1,0),(0,2),(2,0),(1,2),(2,1), all
  // capacity 1 -> 6 columns; rows = (|H|-1)*rho = 2.
  const auto ch = build_check_matrix(g, {0, 1, 2}, cs);
  EXPECT_EQ(ch.rows(), 2u);
  EXPECT_EQ(ch.cols(), 6u);
}

TEST(Certify, CheckMatrixKernelIsExactlyEqualValues) {
  // D_H C_H = 0 iff all nodes in H hold equal values (the EC property, in
  // matrix form): for certified schemes the kernel must be trivial.
  const graph::digraph g = graph::complete(4);
  const coding_scheme cs = coding_scheme::generate(g, 2, 21);
  const std::vector<graph::node_id> h{0, 1, 2};
  auto ch = build_check_matrix(g, h, cs);
  EXPECT_EQ(gf::rank(ch), (h.size() - 1) * 2);
}

TEST(Certify, CheckMatrixEqualsTheOracleLayout) {
  // Entry for entry, with mixed capacities and a reference node that is
  // neither the smallest nor the largest id.
  rng rand(8);
  const graph::digraph g = graph::random_regular(7, 4, 1, 3, rand);
  const coding_scheme cs = coding_scheme::generate(g, 2, 5);
  for (const std::vector<graph::node_id>& h :
       {std::vector<graph::node_id>{0, 1, 2, 3, 4, 5, 6}, {1, 3, 4, 6, 2}, {5, 0}}) {
    const auto want = oracle_check_matrix(g, h, cs);
    const auto ch = build_check_matrix(g, h, cs);
    ASSERT_EQ(ch.rows(), want.size());
    for (std::size_t r = 0; r < ch.rows(); ++r) {
      ASSERT_EQ(ch.cols(), want[r].size());
      for (std::size_t c = 0; c < ch.cols(); ++c) EXPECT_EQ(ch.at(r, c), want[r][c]);
    }
  }
}

TEST(Certify, DisputesShrinkOmegaAndCertificationFollows) {
  const graph::digraph g = graph::paper_fig1b();
  dispute_record r;
  r.add_dispute(1, 2);
  const coding_scheme cs = coding_scheme::generate(g, 1, 31);
  EXPECT_TRUE(certify_coding(g, 1, r, cs).ok);
}

TEST(Certify, Theorem1BoundValues) {
  // n=4, f=1, rho=1: C(4,3)*(4-1-1)*1 = 8 bad events; field 2^16.
  EXPECT_DOUBLE_EQ(theorem1_failure_bound(4, 1, 1, 16), 8.0 / 65536.0);
  // Tiny fields clamp to 1.
  EXPECT_DOUBLE_EQ(theorem1_failure_bound(10, 3, 8, 2), 1.0);
  // f = 0: single subgraph.
  EXPECT_DOUBLE_EQ(theorem1_failure_bound(4, 0, 2, 16), 1.0 * 3 * 2 / 65536.0);
}

TEST(Certify, RepeatedRandomSchemesVirtuallyAlwaysPass) {
  const graph::digraph g = graph::complete(5);
  rng seeds(2);
  int pass = 0;
  for (int i = 0; i < 20; ++i) {
    const coding_scheme cs = coding_scheme::generate(g, 2, seeds.next_u64());
    if (certify_coding(g, 1, dispute_record{}, cs).ok) ++pass;
  }
  EXPECT_EQ(pass, 20);
}

TEST(CertifyPaths, AgreeWithOracleOnRegistryClassTopologies) {
  // Every path must produce the oracle's verdict AND its failing-subgraph
  // list (same enumeration order), on dense and sparse topologies alike.
  rng rand(31);
  std::vector<std::pair<graph::digraph, int>> cases;
  cases.emplace_back(graph::complete(7, 2), 1);
  cases.emplace_back(graph::complete(7, 1), 2);
  cases.emplace_back(graph::hypercube(3, 2), 1);
  cases.emplace_back(graph::hypercube(4, 1), 2);
  cases.emplace_back(graph::clustered_wan(3, 3, 4, 1), 1);
  cases.emplace_back(graph::paper_fig1a(), 1);
  cases.emplace_back(graph::random_regular(8, 4, 1, 3, rand), 1);
  std::set<cert_path> paths;
  for (const auto& [g, f] : cases) {
    const graph::capacity_t uk = compute_uk(g, f, dispute_record{});
    for (int rho : {static_cast<int>(compute_rho(uk)),
                    static_cast<int>(compute_rho(uk)) + 4}) {
      const coding_scheme cs = coding_scheme::generate(g, rho, 0xabc);
      paths.insert(expect_matches_oracle(
          g, f, dispute_record{}, cs,
          "n=" + std::to_string(g.universe()) + " rho=" + std::to_string(rho)));
    }
  }
  EXPECT_EQ(paths.size(), 3u);
}

TEST(CertifyPaths, SquareCheckMatricesSeeALostColumnOnEveryPath) {
  // A lost column only shows when some H has no spare rank: a square,
  // full-rank C_H. With spare columns (rho at U_k/2) one lost column still
  // leaves full rank, and with too few (an over-large rho) every H fails
  // either way. One such input per path, so a layout fault on any path
  // flips a verdict the oracle does not.
  rng rand(30);
  struct square_case {
    const char* name;
    graph::digraph g;
    int f;
    int rho;
    cert_path path;
  };
  const std::vector<square_case> cases = {
      // All 21 H are 20 x 20.
      {"complete7/f2/rho5", graph::complete(7, 1), 2, 5, cert_path::dense},
      // All 4 H are 6 x 6.
      {"complete4/f1/rho3", graph::complete(4, 1), 1, 3, cert_path::leave_one_out},
      // Density 0.36: 9 of the 36 H are 36 x 36 (6 of full rank), the rest
      // short of columns.
      {"regular9d3/f2/rho6", graph::random_regular(9, 3, 1, 3, rand), 2, 6,
       cert_path::prefix_walk},
  };
  for (const square_case& c : cases) {
    const coding_scheme cs = coding_scheme::generate(c.g, c.rho, 0xabc);
    std::size_t square_full = 0;
    for (const auto& h : omega_subgraphs(c.g, c.f, dispute_record{})) {
      const auto ch = oracle_check_matrix(c.g, h, cs);
      if (ch[0].size() == ch.size() && scalar_rank(ch) == ch.size()) ++square_full;
    }
    EXPECT_GT(square_full, 0u) << c.name;
    EXPECT_EQ(expect_matches_oracle(c.g, c.f, dispute_record{}, cs, c.name), c.path)
        << c.name;
  }
}

TEST(CertifyPaths, AgreeWithOracleUnderDisputes) {
  // Link probability 0.5 reaches the leave-one-out and dense paths; 0.1
  // (the generator's ring plus a few chords) the prefix walk at f = 2.
  rng rand(57);
  std::set<cert_path> paths;
  for (double p : {0.5, 0.1}) {
    for (int trial = 0; trial < 40; ++trial) {
      graph::digraph g = graph::erdos_renyi(6 + static_cast<int>(rand.below(3)), p,
                                            1, 3, rand);
      dispute_record disputes;
      const auto nodes = g.active_nodes();
      const graph::node_id a = nodes[rand.below(nodes.size())];
      const graph::node_id b = nodes[rand.below(nodes.size())];
      if (a != b) {
        disputes.add_dispute(a, b);
        g.remove_edge_pair(a, b);
      }
      const int f = 1 + static_cast<int>(rand.below(2));
      if (g.universe() < 3 * f + 1) continue;
      const auto uk = compute_uk(g, f, disputes);
      const coding_scheme cs =
          coding_scheme::generate(g, static_cast<int>(compute_rho(uk)) + 2, trial);
      paths.insert(expect_matches_oracle(
          g, f, disputes, cs, "p " + std::to_string(p) + " trial " + std::to_string(trial)));
    }
  }
  EXPECT_EQ(paths.size(), 3u);
}

TEST(CertifyPaths, LeaveOneOutAgreesWithOracleWithInactiveNodesAndDisputes) {
  // The leave-one-out shape (active == target + 1) is reached both by f = 1
  // on a fully active graph and by larger f after convictions shrank the
  // active set. Verdicts, failing lists, AND their order must match the
  // oracle in every combination of disputes / inactive nodes / over-large
  // rho.
  rng rand(91);
  for (int trial = 0; trial < 30; ++trial) {
    graph::digraph g =
        graph::erdos_renyi(7 + static_cast<int>(rand.below(2)), 0.6, 1, 2, rand);
    int f = 1;
    if (trial % 3 == 1) {
      // Convict one node: active = n - 1 == (n - 2) + 1, the f = 2 shape.
      g.remove_node(g.active_nodes()[rand.below(g.active_nodes().size())]);
      f = 2;
    }
    dispute_record disputes;
    if (trial % 2 == 1) {
      const auto nodes = g.active_nodes();
      const graph::node_id a = nodes[rand.below(nodes.size())];
      const graph::node_id b = nodes[rand.below(nodes.size())];
      if (a != b) {
        disputes.add_dispute(a, b);
        g.remove_edge_pair(a, b);
      }
    }
    const auto uk = compute_uk(g, f, disputes);
    if (uk < 2) continue;
    const int rho = static_cast<int>(compute_rho(uk)) + (trial % 5 == 0 ? 4 : 0);
    const coding_scheme cs = coding_scheme::generate(g, rho, 1000 + trial);
    ASSERT_EQ(g.active_count(), g.universe() - f + 1);  // the LOO shape
    obs::collector col;
    expect_matches_oracle(g, f, disputes, cs, "trial " + std::to_string(trial), &col);
    // One downdate per Omega_k member.
    EXPECT_EQ(col.value(obs::counter::cert_loo_downdates),
              col.value(obs::counter::cert_subgraphs))
        << "trial " << trial;
    EXPECT_EQ(col.value(obs::counter::cert_subgraphs),
              omega_subgraphs(g, f, disputes).size())
        << "trial " << trial;
  }
}

TEST(CertifyPaths, LeaveOneOutDisjointDisputesEmptyOmegaShortCircuits) {
  // Two disjoint disputed pairs leave no leave-one-out member (no single
  // node covers both pairs): Omega_k is empty, certification is vacuously
  // ok, and the downdate path must notice BEFORE paying for an elimination.
  const graph::digraph g = graph::complete(6);
  dispute_record disputes;
  disputes.add_dispute(0, 1);
  disputes.add_dispute(2, 3);
  const coding_scheme cs = coding_scheme::generate(g, 2, 17);
  EXPECT_TRUE(omega_subgraphs(g, 1, disputes).empty());
  obs::collector col;
  certification c;
  {
    obs::scoped_collector scope(&col);
    c = certify_coding(g, 1, disputes, cs);
  }
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(col.value(obs::counter::cert_subgraphs), 0u);
  EXPECT_EQ(col.value(obs::counter::cert_loo_downdates), 0u);
  EXPECT_EQ(col.value(obs::counter::gf_rows_eliminated), 0u);
}

TEST(Certify, CodingCertifiedForOmegaKStaysCertifiedWhileRhoHolds) {
  // The subset lemma core::session relies on to keep its coding across
  // dispute phases. G_{k+1} drops only convicted nodes and the edges between
  // disputed pairs, so Omega_{k+1} is a subset of Omega_k, each of its H
  // induces the same subgraph (hence the same C_H) as before, and
  // U_{k+1} >= U_k: whenever rho holds, the coding certified for Omega_k
  // certifies Omega_{k+1}. G_k evolves by random sound
  // sequences — every dispute touches a hidden corrupt node, and only
  // corrupt nodes are convicted.
  struct lemma_case {
    const char* name;
    graph::digraph g;
    int f;
  };
  const std::vector<lemma_case> cases = {
      {"K7/f2", graph::complete(7), 2},
      {"K13/f3", graph::complete(13), 3},
      {"Q4/f1", graph::hypercube(4, 1), 1},
      {"wan3x3/f1", graph::clustered_wan(3, 3, 4, 1), 1},  // registry clustered-wan
  };
  rng rand(2012);
  for (const lemma_case& c : cases) {
    int kept = 0;
    for (int trial = 0; trial < 4; ++trial) {
      graph::digraph g = c.g;
      dispute_record record;
      std::vector<graph::node_id> corrupt;
      while (static_cast<int>(corrupt.size()) < c.f) {
        const auto v = static_cast<graph::node_id>(rand.below(g.universe()));
        if (std::find(corrupt.begin(), corrupt.end(), v) == corrupt.end())
          corrupt.push_back(v);
      }
      auto omega = omega_subgraphs(g, c.f, record);
      graph::capacity_t uk = compute_uk(g, c.f, record);
      graph::capacity_t rho = compute_rho(uk);
      coding_scheme coding =
          coding_scheme::generate(g, static_cast<int>(rho), rand.next_u64());
      ASSERT_TRUE(certify_coding(g, c.f, record, coding).ok) << c.name;
      for (int step = 0; step < 8; ++step) {
        const graph::node_id bad = corrupt[rand.below(corrupt.size())];
        if (!g.is_active(bad)) continue;
        if (rand.below(4) == 0) {
          record.convict(bad);
        } else {
          const auto active = g.active_nodes();
          const graph::node_id other = active[rand.below(active.size())];
          if (other == bad || record.in_dispute(bad, other)) continue;
          record.add_dispute(bad, other);
        }
        for (graph::node_id v : record.convicted()) g.remove_node(v);
        for (const auto& [a, b] : record.pairs()) g.remove_edge_pair(a, b);

        const auto next_omega = omega_subgraphs(g, c.f, record);
        if (next_omega.empty()) break;
        const std::set<std::vector<graph::node_id>> before(omega.begin(), omega.end());
        for (const auto& h : next_omega)
          EXPECT_TRUE(before.count(h) > 0) << c.name << ": Omega_{k+1} grew";
        const graph::capacity_t next_uk = compute_uk(g, c.f, record);
        EXPECT_GE(next_uk, uk) << c.name;
        const graph::capacity_t next_rho = compute_rho(next_uk);
        if (next_rho == rho) {
          ++kept;
          EXPECT_TRUE(certify_coding(g, c.f, record, coding).ok) << c.name;
        } else {
          coding =
              coding_scheme::generate(g, static_cast<int>(next_rho), rand.next_u64());
          ASSERT_TRUE(certify_coding(g, c.f, record, coding).ok) << c.name;
        }
        omega = next_omega;
        uk = next_uk;
        rho = next_rho;
      }
    }
    EXPECT_GT(kept, 0) << c.name << ": no step kept rho";
  }
}

TEST(CertifyPaths, DetectDisconnectedSubgraphs) {
  // A cut vertex makes some H in Omega_1 disconnected; its C_H cannot have
  // full row rank (nothing links the components), and the certifier must
  // name exactly the oracle's failing subgraphs.
  graph::digraph g(5);
  for (graph::node_id v : {0, 1}) {
    g.add_bidirectional(v, 2, 1);
    g.add_bidirectional(v, (v + 1) % 2, 1);
  }
  for (graph::node_id v : {3, 4}) {
    g.add_bidirectional(v, 2, 1);
    g.add_bidirectional(v, v == 3 ? 4 : 3, 1);
  }
  const coding_scheme cs = coding_scheme::generate(g, 1, 77);
  EXPECT_FALSE(certify_coding(g, 1, dispute_record{}, cs).ok);
  expect_matches_oracle(g, 1, dispute_record{}, cs, "cut vertex");
}

}  // namespace
}  // namespace nab::core
