#include "core/phase1.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nab::core {

std::size_t chunk_words(std::size_t total, int shares) {
  NAB_ASSERT(shares > 0, "Phase 1 needs a positive share count");
  const auto n = static_cast<std::size_t>(shares);
  return (total + n - 1) / n;
}

std::vector<chunk> split_into_chunks(const std::vector<word>& input, int shares) {
  const std::size_t per = chunk_words(input.size(), shares);
  std::vector<chunk> out(static_cast<std::size_t>(shares), chunk(per, 0));
  for (std::size_t t = 0, first = 0; first < input.size(); ++t, first += per)
    std::copy_n(input.begin() + static_cast<std::ptrdiff_t>(first),
                std::min(per, input.size() - first), out[t].begin());
  return out;
}

std::vector<word> assemble_chunks(const std::vector<chunk>& chunks, std::size_t total) {
  std::vector<word> out(total, 0);
  std::size_t pos = 0;
  for (const chunk& c : chunks) {
    const std::size_t take = std::min(c.size(), total - pos);
    std::copy_n(c.begin(), take, out.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += take;
  }
  return out;
}

std::vector<std::vector<phase1_hop>> phase1_levels(
    const std::vector<graph::spanning_tree>& trees, graph::node_id source, int universe) {
  std::vector<std::vector<phase1_hop>> levels;
  std::vector<int> depth(static_cast<std::size_t>(universe));
  for (std::size_t t = 0; t < trees.size(); ++t) {
    std::fill(depth.begin(), depth.end(), -1);
    depth[static_cast<std::size_t>(source)] = 0;
    // Settle nodes whose parent's depth is known until none moves (trees
    // are shallow; quadratic settling keeps the code simple).
    for (bool progress = true; progress;) {
      progress = false;
      for (const graph::edge& e : trees[t].edges) {
        const int dp = depth[static_cast<std::size_t>(e.from)];
        if (depth[static_cast<std::size_t>(e.to)] >= 0 || dp < 0) continue;
        depth[static_cast<std::size_t>(e.to)] = dp + 1;
        progress = true;
      }
    }
    for (const graph::edge& e : trees[t].edges) {
      const int lvl = depth[static_cast<std::size_t>(e.to)];
      NAB_ASSERT(lvl > 0, "tree edge unreachable from the source");
      if (static_cast<std::size_t>(lvl) > levels.size())
        levels.resize(static_cast<std::size_t>(lvl));
      levels[static_cast<std::size_t>(lvl) - 1].push_back({static_cast<int>(t), e.from, e.to});
    }
  }
  return levels;
}

phase1_result run_phase1(sim::network& net, const graph::digraph& g,
                         const sim::fault_set& faults, graph::node_id source,
                         const std::vector<word>& input,
                         const std::vector<graph::spanning_tree>& trees,
                         nab_adversary* adv, propagation_mode mode) {
  NAB_ASSERT(!trees.empty(), "phase 1 needs at least one arborescence");
  NAB_ASSERT(mode != propagation_mode::pipelined,
             "pipelined is a session-level schedule (core::run_pipelined), not a "
             "phase-1 mode");
  const int universe = g.universe();
  const auto gamma = static_cast<int>(trees.size());
  const std::size_t per = chunk_words(input.size(), gamma);
  const std::uint64_t chunk_bits = 16 * per;

  phase1_result result;
  result.received.assign(static_cast<std::size_t>(universe), {});
  result.truth.assign(static_cast<std::size_t>(universe), node_claims{});
  const double t0 = net.elapsed();

  // holding[v][t] = chunk node v currently holds for tree t; the source
  // holds its shares.
  std::vector<std::vector<chunk>> holding(static_cast<std::size_t>(universe),
                                          std::vector<chunk>(trees.size()));
  holding[static_cast<std::size_t>(source)] = split_into_chunks(input, gamma);

  // Transmit level by level. In cut_through mode everything lands in one
  // network step (zero propagation delay: every tree edge is busy for the
  // same L/gamma interval); in store_and_forward each level is its own step.
  for (const std::vector<phase1_hop>& level : phase1_levels(trees, source, universe)) {
    for (const phase1_hop& se : level) {
      const chunk& have = holding[static_cast<std::size_t>(se.from)]
                                 [static_cast<std::size_t>(se.tree)];
      // Honest forwards only *inspect* the held chunk — transmit a view and
      // copy just into the destinations; only a corrupt rewrite materializes
      // a fresh chunk.
      const chunk* send = &have;
      chunk forged;
      if (faults.is_corrupt(se.from) && adv != nullptr) {
        // Adversary hooks run with pooling suspended: strategies may retain
        // arbitrary cross-instance state (the model is full-information),
        // which must not land in the per-instance arena.
        sim::scoped_run_arena suspend_pooling(nullptr);
        forged = se.from == source
                     ? adv->phase1_source_chunk(se.tree, se.to, have)
                     : adv->phase1_forward_chunk(se.tree, se.from, se.to, have);
        forged.resize(have.size(), 0);  // the wire carries exactly L/gamma bits
        send = &forged;
      }
      // Under a lossy link the chunk rides the ARQ loop; when even the retry
      // budget can't get a copy through, the receiver holds the zero chunk
      // (missing-message default) and records no receipt — erasure leaves no
      // claim for dispute control to compare, which is exactly how it stays
      // distinguishable from tamper.
      const bool delivered = net.lossy_transmit(se.from, se.to, chunk_bits);

      auto& sender_truth = result.truth[static_cast<std::size_t>(se.from)];
      sender_truth.p1_sent[{se.tree, se.from, se.to}] = *send;
      if (!delivered) {
        // Zero-fill (not empty): assembly is positional, and descendants
        // forward this default onward as a correctly-sized chunk.
        holding[static_cast<std::size_t>(se.to)][static_cast<std::size_t>(se.tree)]
            .assign(per, 0);
        continue;
      }
      auto& receiver_truth = result.truth[static_cast<std::size_t>(se.to)];
      receiver_truth.p1_received[{se.tree, se.from, se.to}] = *send;
      chunk& dest =
          holding[static_cast<std::size_t>(se.to)][static_cast<std::size_t>(se.tree)];
      if (send == &forged)
        dest = std::move(forged);
      else
        dest = have;
    }
    if (mode == propagation_mode::store_and_forward) net.end_step();
  }
  if (mode == propagation_mode::cut_through) net.end_step();

  for (graph::node_id v : g.active_nodes())
    result.received[static_cast<std::size_t>(v)] =
        assemble_chunks(holding[static_cast<std::size_t>(v)], input.size());
  result.time = net.elapsed() - t0;
  return result;
}

}  // namespace nab::core
