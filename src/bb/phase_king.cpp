#include "bb/phase_king.hpp"

#include <algorithm>
#include <map>

#include "util/assert.hpp"

namespace nab::bb {
namespace {

/// What every receiver heard in one exchange round: dense over the node
/// universe and reused from round to round, so a round costs no per-message
/// allocation. value(r, s) is sender s's word at receiver r, meaningful only
/// where heard(r, s).
class round_inbox {
 public:
  explicit round_inbox(int universe)
      : n_(static_cast<std::size_t>(universe)), value_(n_ * n_, 0), heard_(n_ * n_, 0) {}

  void clear() { std::fill(heard_.begin(), heard_.end(), 0); }

  void deliver(graph::node_id r, graph::node_id s, std::uint64_t v) {
    value_[at(r, s)] = v;
    heard_[at(r, s)] = 1;
  }

  bool heard(graph::node_id r, graph::node_id s) const { return heard_[at(r, s)] != 0; }
  std::uint64_t value(graph::node_id r, graph::node_id s) const { return value_[at(r, s)]; }

 private:
  std::size_t at(graph::node_id r, graph::node_id s) const {
    return static_cast<std::size_t>(r) * n_ + static_cast<std::size_t>(s);
  }

  std::size_t n_;
  std::vector<std::uint64_t> value_;
  std::vector<char> heard_;
};

/// One all-to-all (or king-to-all) exchange; fills `received` with what
/// each participant heard from each sender.
void exchange(channel_plan& channels, sim::network& net, const sim::fault_set& faults,
              const std::vector<graph::node_id>& participants,
              const std::vector<std::uint64_t>& current, int phase, bool king_round,
              graph::node_id king, std::uint64_t value_bits, pk_adversary* adv,
              relay_adversary* relay_adv, round_inbox& received) {
  for (graph::node_id i : participants) {
    if (king_round && i != king) continue;
    for (graph::node_id j : participants) {
      if (j == i) continue;
      std::uint64_t v = current[static_cast<std::size_t>(i)];
      if (faults.is_corrupt(i) && adv != nullptr) {
        sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
        v = adv->exchange_value(i, j, phase, king_round, v);
      }
      channels.unicast(i, j, static_cast<std::uint64_t>(phase), {v}, value_bits);
    }
  }
  channels.end_round(net, faults, relay_adv);
  received.clear();
  for (graph::node_id j : participants)
    for (const sim::message& m : channels.inbox(j))
      if (!m.payload.empty()) received.deliver(j, m.from, m.payload[0]);
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
  round_inbox received(channels.topology().universe());
  const double t0 = net.elapsed();

  for (int phase = 0; phase <= f; ++phase) {
    // Round A: all-to-all exchange; take the most frequent value.
    exchange(channels, net, faults, participants, current, phase,
             /*king_round=*/false, -1, value_bits, adv, relay_adv, received);
    std::vector<std::uint64_t> maj(current.size(), 0);
    std::vector<int> mult(current.size(), 0);
    for (graph::node_id v : participants) {
      std::map<std::uint64_t, int> votes;
      ++votes[current[static_cast<std::size_t>(v)]];  // own value counts
      for (graph::node_id s : participants)
        if (received.heard(v, s)) ++votes[received.value(v, s)];
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
             value_bits, adv, relay_adv, received);
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
    channels.unicast(source, j, 0, {v}, value_bits);
  }
  channels.end_round(net, faults, relay_adv);

  std::vector<std::uint64_t> initial(static_cast<std::size_t>(universe), 0);
  initial[static_cast<std::size_t>(source)] = input;
  for (graph::node_id j : participants) {
    if (j == source) continue;
    for (const sim::message& m : channels.inbox(j))
      if (m.from == source && !m.payload.empty())
        initial[static_cast<std::size_t>(j)] = m.payload[0];
  }
  return phase_king_consensus(channels, net, faults, initial, f, value_bits, adv,
                              relay_adv);
}

}  // namespace nab::bb
