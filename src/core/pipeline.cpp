#include "core/pipeline.hpp"

#include <algorithm>

#include "bb/broadcast.hpp"
#include "bb/channels.hpp"
#include "core/coding.hpp"
#include "core/equality_check.hpp"
#include "core/omega.hpp"
#include "core/omega_cache.hpp"
#include "core/phase1.hpp"
#include "core/value.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "obs/obs.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::core {

pipeline_stats run_pipelined(const pipeline_config& cfg, int q, std::size_t words,
                             rng& rand) {
  NAB_ASSERT(q > 0 && words > 0, "pipeline needs instances and payload");
  const graph::digraph& g = cfg.g;
  const int universe = g.universe();
  const sim::fault_set faults(universe);  // Appendix D regime: fault-free

  const auto plan = omega_cache::instance().plan_for(g, cfg.source);
  const auto gamma = plan->gamma;
  if (gamma < 1) throw error("pipeline: source cannot reach every node");
  const std::vector<graph::spanning_tree>& trees = plan->trees;
  const auto levels = phase1_levels(trees, cfg.source, universe);
  const auto depth = static_cast<int>(levels.size());

  const auto analysis = omega_cache::instance().analyze(g, cfg.f, dispute_record{});
  const auto rho = analysis->rho;
  const coding_scheme coding =
      coding_scheme::generate(g, static_cast<int>(rho), cfg.coding_seed);

  // Inputs and per-instance chunk state: holding[i][v][t] = the chunk node v
  // holds for tree t in instance i.
  std::vector<std::vector<word>> inputs(static_cast<std::size_t>(q));
  for (auto& in : inputs) {
    in.resize(words);
    for (auto& w : in) w = static_cast<word>(rand.below(65536));
  }
  std::vector<std::vector<std::vector<chunk>>> holding(
      static_cast<std::size_t>(q),
      std::vector<std::vector<chunk>>(static_cast<std::size_t>(universe),
                                      std::vector<chunk>(trees.size())));
  const std::uint64_t chunk_bits = 16 * chunk_words(words, static_cast<int>(gamma));

  sim::network net(g);
  bb::channel_plan channels(g, cfg.f,
                            omega_cache::instance().channel_routes_for(g, cfg.f));

  pipeline_stats stats;
  stats.instances = q;
  stats.gamma = gamma;
  stats.rho = rho;
  stats.depth = depth;
  stats.bits = static_cast<std::uint64_t>(q) * 16 * words;

  // Rounds: in round r, instance i (entered at round i) executes hop level
  // r - i + 1; the instance whose last hop lands this round then runs its
  // Equality Check and flag broadcast in the remainder of the round.
  const int total_rounds = q + depth - 1;
  double flags_time_total = 0.0;
  double ec_time_total = 0.0;
  obs::scoped_span schedule_span("pipelined_schedule", net.elapsed());
  for (int r = 0; r < total_rounds; ++r) {
    // Hop transmissions of every in-flight instance — disjoint levels, so
    // no two instances load the same tree edge in the same round.
    for (int i = std::max(0, r - depth + 1); i <= std::min(r, q - 1); ++i) {
      const int level = r - i + 1;
      if (level > depth) continue;
      auto& inst = holding[static_cast<std::size_t>(i)];
      if (level == 1)
        inst[static_cast<std::size_t>(cfg.source)] =
            split_into_chunks(inputs[static_cast<std::size_t>(i)], static_cast<int>(gamma));
      for (const phase1_hop& h : levels[static_cast<std::size_t>(level) - 1]) {
        net.charge(h.from, h.to, chunk_bits);
        inst[static_cast<std::size_t>(h.to)][static_cast<std::size_t>(h.tree)] =
            inst[static_cast<std::size_t>(h.from)][static_cast<std::size_t>(h.tree)];
      }
    }
    net.end_step();

    // Completing instance (if any) verifies within the same round.
    const int done = r - depth + 1;
    if (done >= 0 && done < q) {
      std::vector<value_vector> values(static_cast<std::size_t>(universe));
      for (graph::node_id v : g.active_nodes()) {
        const auto assembled = assemble_chunks(
            holding[static_cast<std::size_t>(done)][static_cast<std::size_t>(v)], words);
        values[static_cast<std::size_t>(v)] =
            value_vector::reshape(assembled, static_cast<int>(rho));
        stats.all_valid =
            stats.all_valid && assembled == inputs[static_cast<std::size_t>(done)];
      }
      const auto ec = run_equality_check(net, g, faults, coding, values);
      ec_time_total += ec.time;
      for (graph::node_id v : g.active_nodes())
        if (ec.flags[static_cast<std::size_t>(v)])
          throw error("pipeline: unexpected mismatch in a fault-free run");
      std::vector<bool> flag_inputs(static_cast<std::size_t>(universe), false);
      const auto flags = bb::broadcast_flags(channels, net, faults, flag_inputs, cfg.f,
                                             g.active_nodes());
      flags_time_total += flags.time;
    }
  }
  schedule_span.close(net.elapsed());
  stats.elapsed = net.elapsed();
  stats.all_agreed = true;  // fault-free by construction; validity checked above

  // The same Q instances executed back-to-back without pipelining pay the
  // full depth on every instance (store-and-forward Phase 1): depth hops of
  // L/gamma each (chunk_bits is the padded L/gamma on unit-capacity trees),
  // plus the same per-instance verification costs.
  stats.sequential = q * (depth * static_cast<double>(chunk_bits) +
                          ec_time_total / std::max(1, q) +
                          flags_time_total / std::max(1, q));
  return stats;
}

}  // namespace nab::core
