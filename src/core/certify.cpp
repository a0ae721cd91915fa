#include "core/certify.hpp"

#include <cmath>

#include "gf/linalg.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace nab::core {
namespace {

using gfw = gf::gf2_16::value_type;

/// An all-blocks check matrix and the column layout it was built with.
struct block_layout {
  gf::matrix<gf::gf2_16> m;
  std::vector<graph::edge> edges;      ///< edges owning columns, in column order
  std::vector<std::size_t> first_col;  ///< edges[i] owns [first_col[i], + cap)
};

/// C_H's block layout (Appendix C.1), the one place coding matrices enter a
/// check matrix: rho rows for each of the first `blocks` nodes of `nodes`
/// (node-major), one column per capacity unit of every edge of g with both
/// endpoints in `nodes`, in g.edges() order. C_e lands in both endpoint
/// blocks — the tail's +C_e and the head's -C_e coincide over GF(2^16).
/// Nodes past the first `blocks` (a reference) own columns but no rows.
block_layout all_blocks(const graph::digraph& g, const std::vector<graph::node_id>& nodes,
                        std::size_t blocks, const coding_scheme& coding) {
  const auto rho = static_cast<std::size_t>(coding.rho());
  constexpr std::ptrdiff_t outside = -2, no_block = -1;
  std::vector<std::ptrdiff_t> block(static_cast<std::size_t>(g.universe()), outside);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    block[static_cast<std::size_t>(nodes[i])] =
        i < blocks ? static_cast<std::ptrdiff_t>(i) : no_block;
  block_layout out;
  std::size_t cols = 0;
  for (const graph::edge& e : g.edges())
    if (block[static_cast<std::size_t>(e.from)] != outside &&
        block[static_cast<std::size_t>(e.to)] != outside) {
      out.edges.push_back(e);
      out.first_col.push_back(cols);
      cols += static_cast<std::size_t>(e.cap);
    }

  out.m = gf::matrix<gf::gf2_16>(blocks * rho, cols);
  for (std::size_t i = 0; i < out.edges.size(); ++i) {
    const graph::edge& e = out.edges[i];
    const auto& ce = coding.matrix_for(e.from, e.to);
    NAB_ASSERT(static_cast<graph::capacity_t>(ce.cols()) == e.cap,
               "coding matrix width must equal edge capacity");
    const std::ptrdiff_t bu = block[static_cast<std::size_t>(e.from)];
    const std::ptrdiff_t bv = block[static_cast<std::size_t>(e.to)];
    for (std::size_t k = 0; k < ce.cols(); ++k) {
      const std::size_t col = out.first_col[i] + k;
      for (std::size_t s = 0; s < rho; ++s) {
        if (bu >= 0) out.m.at(static_cast<std::size_t>(bu) * rho + s, col) = ce.at(s, k);
        if (bv >= 0) out.m.at(static_cast<std::size_t>(bv) * rho + s, col) = ce.at(s, k);
      }
    }
  }
  return out;
}

/// Dense path: one independent elimination of C_H per member.
certification certify_dense(const graph::digraph& g, int f,
                            const dispute_record& disputes,
                            const coding_scheme& coding) {
  certification out;
  out.ok = true;
  for (const auto& h : omega_subgraphs(g, f, disputes)) {
    if (h.size() <= 1) continue;  // nothing to distinguish
    obs::count(obs::counter::cert_subgraphs);
    const std::size_t need = (h.size() - 1) * static_cast<std::size_t>(coding.rho());
    if (gf::rank(build_check_matrix(g, h, coding)) != need) {
      out.ok = false;
      out.failing.push_back(h);
    }
  }
  return out;
}

/// Prefix-walk path: the incremental Omega_k walker (see the header
/// comment for the linear-algebra argument).
///
/// State invariants across the DFS:
///  - `active_cols_` lists the columns of edges whose BOTH endpoints are in
///    the current prefix, in activation (push) order; a column activates at
///    most once per DFS path, so basis pivots are triangular by activation
///    order and basis rows stay independent without back-elimination.
///  - `basis_` is append-only along a path: pushing a node may append rows,
///    popping truncates to the recorded size. A candidate row is only ever
///    reduced against rows that exist at its own depth, so truncation can
///    never invalidate a surviving row.
///  - Rows that reduce to zero on every active column ("ghosts") are kept
///    reduced IN PLACE: at each push they are zero on every previously
///    active column, so only the columns this push activates need scanning,
///    and only this push's pivots can touch them. The frame saves each
///    ghost's pre-push contents so popping restores them exactly. For a
///    certified prefix there are exactly rho ghosts — the constant null
///    direction.
///
/// Cost: one node-extension is ~(2 rho rows) x (window pivots) x row-width
/// field ops, and the lexicographic DFS shares every prefix extension
/// across the C(n, f) subgraphs — versus a from-scratch rank elimination
/// per H on the dense path.
class prefix_walk {
 public:
  prefix_walk(const graph::digraph& g, std::size_t target,
              const dispute_record& disputes, const coding_scheme& coding)
      : disputes_(disputes), rho_(static_cast<std::size_t>(coding.rho())),
        nodes_(g.active_nodes()), target_(target),
        layout_(all_blocks(g, nodes_, nodes_.size(), coding)),
        total_cols_(layout_.m.cols()) {
    edges_with_.assign(static_cast<std::size_t>(g.universe()), {});
    for (std::size_t i = 0; i < layout_.edges.size(); ++i) {
      edges_with_[static_cast<std::size_t>(layout_.edges[i].from)].push_back(i);
      edges_with_[static_cast<std::size_t>(layout_.edges[i].to)].push_back(i);
    }
    pivot_of_col_.assign(total_cols_, -1);
    in_prefix_.assign(static_cast<std::size_t>(g.universe()), false);
  }

  certification run() {
    certification out;
    out.ok = true;
    if (target_ >= 2 && nodes_.size() >= target_) dfs(0, out);
    return out;
  }

 private:
  struct frame {
    std::size_t cols_before = 0;
    std::size_t basis_before = 0;
    std::size_t arena_before = 0;
    std::vector<std::size_t> ghosts_before;
    /// Pre-push contents of every live ghost (reduced in place this push).
    std::vector<std::vector<gfw>> ghost_rows_before;
  };

  /// Reduce `row` against the basis, scanning active positions from
  /// `start_pos` on — the caller guarantees the row is zero on every active
  /// column before it (new rows touch only this push's columns; ghosts are
  /// kept reduced). Returns the position of the new pivot, or npos when the
  /// row reduced to zero on every active column.
  std::size_t reduce_row(std::vector<gfw>& row, std::size_t start_pos) {
    std::size_t pos = start_pos;
    for (;;) {
      while (pos < active_cols_.size() && row[active_cols_[pos]] == 0) ++pos;
      if (pos == active_cols_.size()) return npos;
      const std::size_t lead = active_cols_[pos];
      const int p = pivot_of_col_[lead];
      if (p < 0) {
        gf::gf2_16::scale(row.data(), gf::gf2_16::inv(row[lead]), total_cols_);
        return pos;
      }
      // Characteristic 2: subtracting coeff * pivot row == adding it. The
      // pivot row is zero on active positions before `pos`, so the scan
      // resumes where it stopped.
      gf::gf2_16::axpy(row.data(), basis_[static_cast<std::size_t>(p)].data(),
                       row[lead], total_cols_);
    }
  }

  void insert_basis(std::vector<gfw>&& row, std::size_t pivot_pos) {
    obs::count(obs::counter::gf_rows_eliminated);
    const std::size_t lead = active_cols_[pivot_pos];
    pivot_of_col_[lead] = static_cast<int>(basis_.size());
    basis_pivot_.push_back(lead);
    basis_.push_back(std::move(row));
  }

  /// Pushes nodes_[i], whose raw rows are layout_.m's block i.
  frame push_node(std::size_t i) {
    obs::count(obs::counter::cert_prefix_pushes);
    const graph::node_id x = nodes_[i];
    frame fr;
    fr.cols_before = active_cols_.size();
    fr.basis_before = basis_.size();
    fr.arena_before = ghost_arena_.size();
    fr.ghosts_before = ghosts_;
    fr.ghost_rows_before.reserve(ghosts_.size());
    for (std::size_t idx : ghosts_) fr.ghost_rows_before.push_back(ghost_arena_[idx]);

    // 1. Activate the columns of every edge between x and the prefix.
    for (std::size_t e : edges_with_[static_cast<std::size_t>(x)]) {
      const graph::edge& ed = layout_.edges[e];
      const graph::node_id other = ed.from == x ? ed.to : ed.from;
      if (!in_prefix_[static_cast<std::size_t>(other)]) continue;
      for (std::size_t k = 0; k < static_cast<std::size_t>(ed.cap); ++k)
        active_cols_.push_back(layout_.first_col[e] + k);
    }
    in_prefix_[static_cast<std::size_t>(x)] = true;

    // 2. Reduce every ghost in place over the new window — the new columns
    //    may give it a pivot (the frame holds its pre-push contents).
    obs::count(obs::counter::cert_ghost_repushes, fr.ghosts_before.size());
    std::size_t kept = 0;
    for (std::size_t idx : fr.ghosts_before) {
      const std::size_t pos = reduce_row(ghost_arena_[idx], fr.cols_before);
      if (pos != npos)
        insert_basis(std::vector<gfw>(ghost_arena_[idx]), pos);
      else
        ghosts_[kept++] = idx;  // still a ghost
    }
    ghosts_.resize(kept);

    // 3. Insert x's rho raw rows; the ones with no pivot in the window join
    //    the ghost arena at this depth.
    for (std::size_t s = 0; s < rho_; ++s) {
      const gfw* raw = layout_.m.row_ptr(i * rho_ + s);
      std::vector<gfw> row(raw, raw + total_cols_);
      const std::size_t pos = reduce_row(row, fr.cols_before);
      if (pos != npos) {
        insert_basis(std::move(row), pos);
      } else {
        ghosts_.push_back(ghost_arena_.size());
        ghost_arena_.push_back(std::move(row));
      }
    }
    return fr;
  }

  void pop_node(graph::node_id x, frame&& fr) {
    obs::count(obs::counter::cert_prefix_pops);
    in_prefix_[static_cast<std::size_t>(x)] = false;
    while (basis_.size() > fr.basis_before) {
      pivot_of_col_[basis_pivot_.back()] = -1;
      basis_pivot_.pop_back();
      basis_.pop_back();
    }
    active_cols_.resize(fr.cols_before);
    ghost_arena_.resize(fr.arena_before);
    for (std::size_t i = 0; i < fr.ghosts_before.size(); ++i)
      ghost_arena_[fr.ghosts_before[i]] = std::move(fr.ghost_rows_before[i]);
    ghosts_ = std::move(fr.ghosts_before);
  }

  void dfs(std::size_t start, certification& out) {
    if (current_.size() == target_) {
      obs::count(obs::counter::cert_subgraphs);
      if (basis_.size() != (target_ - 1) * rho_) {
        out.ok = false;
        out.failing.push_back(current_);
      }
      return;
    }
    if (nodes_.size() - start < target_ - current_.size()) return;
    for (std::size_t i = start; i < nodes_.size(); ++i) {
      const graph::node_id x = nodes_[i];
      bool clean = true;
      for (graph::node_id chosen : current_)
        if (disputes_.in_dispute(chosen, x)) {
          clean = false;
          break;
        }
      if (!clean) continue;
      frame fr = push_node(i);
      current_.push_back(x);
      dfs(i + 1, out);
      current_.pop_back();
      pop_node(x, std::move(fr));
    }
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  const dispute_record& disputes_;
  const std::size_t rho_;
  const std::vector<graph::node_id> nodes_;
  const std::size_t target_;

  const block_layout layout_;  // every active node's block, over every edge
  const std::size_t total_cols_;
  std::vector<std::vector<std::size_t>> edges_with_;

  std::vector<std::size_t> active_cols_;   // activation order
  std::vector<int> pivot_of_col_;
  std::vector<std::vector<gfw>> basis_;    // append-only along a DFS path
  std::vector<std::size_t> basis_pivot_;
  std::vector<std::size_t> ghosts_;        // live ghost indices into the arena
  std::vector<std::vector<gfw>> ghost_arena_;
  std::vector<bool> in_prefix_;
  std::vector<graph::node_id> current_;
};

/// Leave-one-out path: when exactly one more node is active than Omega_k's
/// target size, every member of Omega_k is H_x = active \ {x}. One full
/// Gauss-Jordan reduction of the all-blocks matrix M — all_blocks over the
/// active nodes with no reference dropped — then answers all |Omega_k| rank
/// queries by a rank downdate each:
///
///  - x's block rows are supported entirely on X_x (the columns of
///    x-incident edges), so on A_x = columns \ X_x the nonzero rows of
///    M|A_x are exactly H_x's blocks; and since a column's two endpoint
///    blocks coincide (characteristic 2), the all-blocks row sum vanishes
///    per symbol, which makes H_x's reference block redundant:
///    certified(H_x) iff rank(M|A_x) == (|H_x| - 1) rho.
///  - In the reduced M (rank r, pivot set P), a row whose pivot lies
///    outside X_x keeps its leading 1 on A_x with zeros above and below,
///    while a row with pivot inside X_x is zero on every pivot column of
///    A_x. Hence, exactly:
///        rank(M|A_x) = (r - |P intersect X_x|) + rank(M'),
///    where M' is the |P intersect X_x| x |free columns outside X_x|
///    corner of the reduced matrix.
///
/// Cost: ONE big elimination plus one nullity-sized rank per member —
/// versus a from-scratch elimination per member (the dense path) or
/// a DFS whose prefix sharing degenerates at this shape (every leaf differs
/// from the next in its deepest nodes, so nearly the whole basis is torn
/// down and rebuilt between leaves).
certification certify_leave_one_out(const graph::digraph& g, std::size_t target,
                                    const dispute_record& disputes,
                                    const coding_scheme& coding) {
  certification out;
  out.ok = true;
  const std::vector<graph::node_id> active = g.active_nodes();
  const std::size_t rho = static_cast<std::size_t>(coding.rho());
  NAB_ASSERT(target >= 2 && active.size() == target + 1,
             "the leave-one-out path requires its shape");

  // Membership first: H_x is dispute-free iff x covers every disputed pair
  // of active nodes, so the members are the intersection of those pairs
  // (everyone when no pair is intra-active). No members means a vacuously
  // certified Omega_k — return before paying for any elimination.
  std::vector<bool> active_mask(static_cast<std::size_t>(g.universe()), false);
  std::vector<bool> member(static_cast<std::size_t>(g.universe()), false);
  for (graph::node_id v : active) {
    active_mask[static_cast<std::size_t>(v)] = true;
    member[static_cast<std::size_t>(v)] = true;
  }
  std::size_t member_count = active.size();
  for (const auto& [a, b] : disputes.pairs()) {
    if (!active_mask[static_cast<std::size_t>(a)] ||
        !active_mask[static_cast<std::size_t>(b)])
      continue;  // a pair with an inactive endpoint is never intra-H
    for (graph::node_id v : active) {
      if (v == a || v == b || !member[static_cast<std::size_t>(v)]) continue;
      member[static_cast<std::size_t>(v)] = false;
      --member_count;
    }
  }
  if (member_count == 0) return out;

  // The all-blocks matrix, plus each node's incident column list (= X_x).
  block_layout all = all_blocks(g, active, active.size(), coding);
  gf::matrix<gf::gf2_16>& m = all.m;
  const std::size_t total_cols = m.cols();
  std::vector<std::vector<std::size_t>> node_cols(
      static_cast<std::size_t>(g.universe()));
  for (std::size_t i = 0; i < all.edges.size(); ++i)
    for (graph::capacity_t k = 0; k < all.edges[i].cap; ++k) {
      const std::size_t col = all.first_col[i] + static_cast<std::size_t>(k);
      node_cols[static_cast<std::size_t>(all.edges[i].from)].push_back(col);
      node_cols[static_cast<std::size_t>(all.edges[i].to)].push_back(col);
    }

  std::vector<std::size_t> pivot_cols;
  const std::size_t r = gf::row_reduce(m, &pivot_cols);
  std::vector<int> pivot_row_of(total_cols, -1);
  for (std::size_t i = 0; i < pivot_cols.size(); ++i)
    pivot_row_of[pivot_cols[i]] = static_cast<int>(i);
  std::vector<std::size_t> free_cols;
  free_cols.reserve(total_cols - r);
  for (std::size_t c = 0; c < total_cols; ++c)
    if (pivot_row_of[c] < 0) free_cols.push_back(c);

  // Leave-out index DESCENDING over the sorted active list, so failing
  // subgraphs appear in omega_subgraphs' lexicographic subset order
  // (omitting a larger node yields a lex-smaller subset).
  const std::size_t need = (target - 1) * rho;
  std::vector<bool> in_x(total_cols, false);
  for (std::size_t i = active.size(); i-- > 0;) {
    const graph::node_id x = active[i];
    if (!member[static_cast<std::size_t>(x)]) continue;
    obs::count(obs::counter::cert_subgraphs);
    obs::count(obs::counter::cert_loo_downdates);
    const std::vector<std::size_t>& xcols =
        node_cols[static_cast<std::size_t>(x)];
    for (std::size_t c : xcols) in_x[c] = true;
    std::vector<std::size_t> piv_rows;
    for (std::size_t c : xcols)
      if (pivot_row_of[c] >= 0)
        piv_rows.push_back(static_cast<std::size_t>(pivot_row_of[c]));
    std::vector<std::size_t> sub_cols;
    for (std::size_t c : free_cols)
      if (!in_x[c]) sub_cols.push_back(c);
    gf::matrix<gf::gf2_16> sub(piv_rows.size(), sub_cols.size());
    for (std::size_t rr = 0; rr < piv_rows.size(); ++rr)
      for (std::size_t cc = 0; cc < sub_cols.size(); ++cc)
        sub.at(rr, cc) = m.at(piv_rows[rr], sub_cols[cc]);
    const std::size_t rank_a = r - piv_rows.size() + gf::rank(std::move(sub));
    for (std::size_t c : xcols) in_x[c] = false;
    if (rank_a != need) {
      out.ok = false;
      std::vector<graph::node_id> h;
      h.reserve(target);
      for (graph::node_id v : active)
        if (v != x) h.push_back(v);
      out.failing.push_back(std::move(h));
    }
  }
  return out;
}

}  // namespace

gf::matrix<gf::gf2_16> build_check_matrix(const graph::digraph& g,
                                          const std::vector<graph::node_id>& h,
                                          const coding_scheme& coding) {
  NAB_ASSERT(!h.empty(), "check matrix needs a nonempty subgraph");
  return all_blocks(g, h, h.size() - 1, coding).m;
}

certification certify_coding(const graph::digraph& g, int f,
                             const dispute_record& disputes,
                             const coding_scheme& coding) {
  NAB_ASSERT(f >= 0 && g.universe() - f >= 1, "invalid fault budget for certification");
  const auto target = static_cast<std::size_t>(g.universe() - f);
  const auto n = static_cast<std::size_t>(g.active_count());
  if (target >= 2 && n == target + 1)
    return certify_leave_one_out(g, target, disputes, coding);
  // The prefix walk's shared factorization pays off while subgraph matrices
  // stay column-limited for most of the walk (sparse graphs: the hypercube
  // and WAN families run ~2x faster than independent eliminations); on
  // dense graphs the mid-depth ghost population churns more than per-H
  // elimination costs. The measured crossover sits around directed-edge
  // density 0.4 for every registry topology.
  const double density =
      n < 2 ? 1.0
            : static_cast<double>(g.edges().size()) /
                  (static_cast<double>(n) * static_cast<double>(n - 1));
  if (density > 0.4) return certify_dense(g, f, disputes, coding);
  return prefix_walk(g, target, disputes, coding).run();
}

double theorem1_failure_bound(int n, int f, int rho, int field_bits) {
  NAB_ASSERT(n > f && f >= 0 && rho > 0 && field_bits > 0,
             "invalid Theorem 1 parameters");
  // C(n, n-f) = C(n, f).
  double binom = 1.0;
  for (int i = 0; i < f; ++i) binom = binom * (n - i) / (i + 1);
  const double bound =
      binom * (n - f - 1) * rho * std::pow(2.0, -static_cast<double>(field_bits));
  return bound > 1.0 ? 1.0 : bound;
}

}  // namespace nab::core
