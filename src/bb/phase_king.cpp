#include "bb/phase_king.hpp"

#include <utility>

#include "util/assert.hpp"

namespace nab::bb {
namespace {

/// One all-to-all (or king-to-all) exchange on the word lane; afterwards
/// channels.words() holds what each participant heard from each sender.
void exchange(channel_plan& channels, sim::network& net, const sim::fault_set& faults,
              const std::vector<graph::node_id>& participants,
              const std::vector<std::uint64_t>& current, int phase, bool king_round,
              graph::node_id king, std::uint64_t value_bits, pk_adversary* adv,
              relay_adversary* relay_adv) {
  for (graph::node_id i : participants) {
    if (king_round && i != king) continue;
    for (graph::node_id j : participants) {
      if (j == i) continue;
      std::uint64_t v = current[static_cast<std::size_t>(i)];
      if (faults.is_corrupt(i) && adv != nullptr) {
        sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
        v = adv->exchange_value(i, j, phase, king_round, v);
      }
      channels.send_word(i, j, v, value_bits);
    }
  }
  channels.end_word_round(net, faults, relay_adv);
}

}  // namespace

pk_result phase_king_consensus(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults,
                               const std::vector<std::uint64_t>& initial, int f,
                               std::uint64_t value_bits, pk_adversary* adv,
                               relay_adversary* relay_adv) {
  const std::vector<graph::node_id> participants = channels.topology().active_nodes();
  const auto n = static_cast<int>(participants.size());
  NAB_ASSERT(n > 4 * f, "phase-king (simple variant) requires more than 4f participants");
  NAB_ASSERT(initial.size() >= static_cast<std::size_t>(channels.topology().universe()),
             "initial values must cover the node universe");

  std::vector<std::uint64_t> current = initial;
  const word_inbox& received = channels.words();
  const double t0 = net.elapsed();
  // Round A's tally at one node: each distinct word with its count, in
  // first-seen order, reused from node to node.
  std::vector<std::pair<std::uint64_t, int>> votes;
  const auto vote = [&votes](std::uint64_t word) {
    for (auto& [seen, count] : votes)
      if (seen == word) {
        ++count;
        return;
      }
    votes.emplace_back(word, 1);
  };

  for (int phase = 0; phase <= f; ++phase) {
    // Round A: all-to-all exchange; take the most frequent value.
    exchange(channels, net, faults, participants, current, phase,
             /*king_round=*/false, -1, value_bits, adv, relay_adv);
    std::vector<std::uint64_t> maj(current.size(), 0);
    std::vector<int> mult(current.size(), 0);
    for (graph::node_id v : participants) {
      votes.clear();
      vote(current[static_cast<std::size_t>(v)]);  // own value counts
      for (graph::node_id s : participants)
        if (received.heard(v, s)) vote(received.value(v, s));
      // The most frequent word, ties going to the smallest.
      int best = 0;
      std::uint64_t best_val = 0;
      for (const auto& [val, count] : votes)
        if (count > best || (count == best && val < best_val)) {
          best = count;
          best_val = val;
        }
      maj[static_cast<std::size_t>(v)] = best_val;
      mult[static_cast<std::size_t>(v)] = best;
    }

    // Round B: the phase king broadcasts its majority value.
    const graph::node_id king = participants[static_cast<std::size_t>(phase) %
                                             participants.size()];
    exchange(channels, net, faults, participants, maj, phase, /*king_round=*/true, king,
             value_bits, adv, relay_adv);
    for (graph::node_id v : participants) {
      const bool confident =
          2 * mult[static_cast<std::size_t>(v)] > n + 2 * f;  // mult > n/2 + f
      if (confident || v == king) {
        current[static_cast<std::size_t>(v)] = maj[static_cast<std::size_t>(v)];
      } else {
        // A missing king message falls back to the default value 0.
        current[static_cast<std::size_t>(v)] =
            received.heard(v, king) ? received.value(v, king) : 0;
      }
    }
  }

  pk_result out;
  out.decided = std::move(current);
  out.time = net.elapsed() - t0;
  return out;
}

pk_result phase_king_broadcast(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults, graph::node_id source,
                               std::uint64_t input, int f, std::uint64_t value_bits,
                               pk_adversary* adv, relay_adversary* relay_adv) {
  const std::vector<graph::node_id> participants = channels.topology().active_nodes();
  const int universe = channels.topology().universe();

  // Dissemination round: the source sends its input to everyone.
  for (graph::node_id j : participants) {
    if (j == source) continue;
    std::uint64_t v = input;
    if (faults.is_corrupt(source) && adv != nullptr) {
      sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
      v = adv->exchange_value(source, j, /*phase=*/-1, /*is_king_round=*/false, v);
    }
    channels.send_word(source, j, v, value_bits);
  }
  channels.end_word_round(net, faults, relay_adv);

  std::vector<std::uint64_t> initial(static_cast<std::size_t>(universe), 0);
  initial[static_cast<std::size_t>(source)] = input;
  const word_inbox& received = channels.words();
  for (graph::node_id j : participants)
    if (j != source && received.heard(j, source))
      initial[static_cast<std::size_t>(j)] = received.value(j, source);
  return phase_king_consensus(channels, net, faults, initial, f, value_bits, adv,
                              relay_adv);
}

}  // namespace nab::bb
