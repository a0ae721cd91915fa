#include "bb/eig.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "bb/round_batch.hpp"
#include "sim/wire.hpp"
#include "util/assert.hpp"

namespace nab::bb {
namespace {

/// EIG labels churn at Θ(n^f) per instance batch — arena-backed like every
/// other per-round buffer in this file.
using label = sim::pooled_vector<graph::node_id>;

// All (instance, label, value) items a node sends to one receiver in one
// round travel as a single logical unicast (the paper's rounds are
// synchronous, so per-item messages and one batch are indistinguishable on
// the wire), each item [q, run(label ids), run(value)] in sim/wire.hpp's
// codec; bits are accounted per item exactly as the historical
// one-message-per-label scheme did.

bool contains(const label& sigma, graph::node_id v) {
  return std::find(sigma.begin(), sigma.end(), v) != sigma.end();
}

/// Distinct values seen by one broadcast batch, interned once: trees store
/// small integer ids, majority voting compares ids, and every relayed copy
/// of a value shares the single arena entry (Phase-3 claim blobs are
/// relayed n^2 times — interning is what keeps that affordable). Id 0 is
/// the default (empty) value.
class value_pool {
 public:
  value_pool() { intern(value{}); }

  int intern(const value& v) {
    const auto it = ids_.find(v);
    if (it != ids_.end()) return it->second;
    const int id = static_cast<int>(arena_.size());
    arena_.push_back(v);
    ids_.emplace(arena_.back(), id);
    return id;
  }

  const value& of(int id) const { return arena_[static_cast<std::size_t>(id)]; }

 private:
  // Stable references; both the pool entries and the id-map nodes live in
  // the ambient run arena.
  std::deque<value, sim::arena_alloc<value>> arena_;
  std::map<value, int, std::less<value>,
           sim::arena_alloc<std::pair<const value, int>>>
      ids_;
};

/// Per-instance, per-node EIG tree storage. Labels are packed into a 64-bit
/// mixed-radix key for O(1) lookup and values are pool ids; the per-round
/// entry lists preserve insertion order so relay traffic stays
/// deterministic (hash-table iteration order is never observed).
class tree {
 public:
  /// `expected_labels` pre-sizes the hash table — EIG trees grow to a known
  /// Sum_r n^r shape, and incremental rehashing dominated f=2 sweeps.
  tree(std::uint64_t radix, std::size_t expected_labels) : radix_(radix) {
    vals_.reserve(expected_labels);
  }

  std::uint64_t key_of(const label& sigma) const {
    std::uint64_t key = 1;
    for (graph::node_id id : sigma) key = key * radix_ + static_cast<std::uint64_t>(id);
    return key;
  }

  /// First write wins (matching the historical map::emplace semantics).
  void store(const label& sigma, int value_id) {
    const std::uint64_t key = key_of(sigma);
    if (!vals_.emplace(key, value_id).second) return;
    const std::size_t len = sigma.size();
    if (rounds_.size() <= len) rounds_.resize(len + 1);
    rounds_[len].push_back(sigma);
  }

  /// Pool id stored for sigma, or -1.
  int find(const label& sigma) const {
    const auto it = vals_.find(key_of(sigma));
    return it == vals_.end() ? -1 : it->second;
  }

  /// Labels of the given length, in insertion order.
  const sim::pooled_vector<label>& of_length(std::size_t len) const {
    static const sim::pooled_vector<label> empty;
    return len < rounds_.size() ? rounds_[len] : empty;
  }

 private:
  std::uint64_t radix_;
  std::unordered_map<std::uint64_t, int, std::hash<std::uint64_t>,
                     std::equal_to<std::uint64_t>,
                     sim::arena_alloc<std::pair<const std::uint64_t, int>>>
      vals_;
  sim::pooled_vector<sim::pooled_vector<label>> rounds_;  // by label length
};

/// Bottom-up PSL resolution: leaves return their stored value, internal
/// labels take the strict majority of their children (default value when no
/// majority). Values are pool ids, so voting is integer bookkeeping;
/// `sigma` is extended and truncated in place.
int resolve(const tree& t, label& sigma, const std::vector<graph::node_id>& all,
            int max_len) {
  if (static_cast<int>(sigma.size()) == max_len) {
    const int stored = t.find(sigma);
    return stored < 0 ? 0 : stored;
  }
  // Distinct child ids are few; linear bookkeeping beats any map here.
  sim::pooled_vector<std::pair<int, int>> votes;
  int child_count = 0;
  for (graph::node_id j : all) {
    if (contains(sigma, j)) continue;
    sigma.push_back(j);
    const int child = resolve(t, sigma, all, max_len);
    sigma.pop_back();
    ++child_count;
    bool found = false;
    for (auto& [val, count] : votes)
      if (val == child) {
        ++count;
        found = true;
        break;
      }
    if (!found) votes.emplace_back(child, 1);
  }
  for (const auto& [val, count] : votes)
    if (2 * count > child_count) return val;
  return 0;
}

}  // namespace

eig_result eig_broadcast_all(channel_plan& channels, sim::network& net,
                             const sim::fault_set& faults,
                             const std::vector<eig_instance>& instances, int f,
                             std::uint64_t value_bits, eig_adversary* adv,
                             relay_adversary* relay_adv) {
  const std::vector<graph::node_id> participants = channels.topology().active_nodes();
  const auto n = static_cast<int>(participants.size());
  NAB_ASSERT(n > 3 * f, "EIG requires more than 3f participants");
  const int universe = channels.topology().universe();
  const int rounds = f + 1;

  // Label keys are mixed-radix in (universe + 1); key_of starts from 1, so
  // the deepest label (f + 1 ids) packs to just under 2 * radix^(f+1) —
  // the guard covers that worst case, not merely the leading power (true
  // for every topology the registry can express — ~64 nodes at f <= 9).
  const auto radix = static_cast<std::uint64_t>(universe) + 1;
  {
    std::uint64_t max_key = 2;
    for (int i = 0; i < rounds; ++i) {
      NAB_ASSERT(max_key <= ~std::uint64_t{0} / radix,
                 "EIG label space exceeds 64-bit packing");
      max_key *= radix;
    }
  }

  eig_result result;
  result.decisions.assign(instances.size(), std::vector<value>(static_cast<std::size_t>(universe)));

  value_pool pool;

  // store[q][v] = EIG tree of node v for instance q.
  std::size_t expected_labels = 1;
  {
    std::size_t level = 1;
    for (int r = 1; r < rounds; ++r) {
      level *= static_cast<std::size_t>(n);
      expected_labels += level;
    }
  }
  std::vector<std::vector<tree>> store(
      instances.size(),
      std::vector<tree>(static_cast<std::size_t>(universe),
                        tree(radix, expected_labels)));

  const double t0 = net.elapsed();

  // Per-(sender, receiver) batch buffers for the current round (the shared
  // wire-batching contract of bb/round_batch.hpp).
  round_batches batches(universe, participants);

  // Round 1: each source disseminates its input.
  for (std::size_t q = 0; q < instances.size(); ++q) {
    const auto& inst = instances[q];
    NAB_ASSERT(channels.topology().is_active(inst.source), "EIG source must participate");
    const label root{inst.source};
    store[q][static_cast<std::size_t>(inst.source)].store(root, pool.intern(inst.input));
    for (graph::node_id r : participants) {
      if (r == inst.source) continue;
      const value* v = &inst.input;
      value forged;
      if (faults.is_corrupt(inst.source) && adv != nullptr) {
        sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
        forged = adv->source_value(inst.source, r, *v);
        v = &forged;
      }
      const std::uint64_t vb = inst.value_bits != 0 ? inst.value_bits : value_bits;
      round_batch& b = batches.at(inst.source, r);
      sim::wire::put(b.payload, q);
      sim::wire::put_run(b.payload, root);
      sim::wire::put_run(b.payload, *v);
      b.bits += vb + 8 * (root.size() + 1);
    }
  }
  batches.flush(channels);
  channels.end_round(net, faults, relay_adv);
  {
    label sigma;
    value v;
    std::size_t q = 0;
    for (graph::node_id r : participants) {
      for (const sim::message& m : channels.inbox(r)) {
        sim::wire::reader in(m.payload);
        while (in.get(q) && in.get_run(sigma) && in.get_run(v)) {
          if (q >= instances.size()) continue;
          if (sigma.size() != 1 || sigma[0] != instances[q].source)
            continue;  // unexpected label
          store[q][static_cast<std::size_t>(r)].store(sigma, pool.intern(v));
        }
      }
    }
  }

  // Rounds 2..f+1: relay every label of the previous round.
  for (int round = 2; round <= rounds; ++round) {
    for (std::size_t q = 0; q < instances.size(); ++q) {
      const std::uint64_t vb =
          instances[q].value_bits != 0 ? instances[q].value_bits : value_bits;
      for (graph::node_id i : participants) {
        tree& mine = store[q][static_cast<std::size_t>(i)];
        // A node also "sends to itself": its own tree gets sigma.i with the
        // honestly stored value (deferred — of_length would grow mid-loop).
        sim::pooled_vector<std::pair<label, int>> self_stores;
        for (const label& sigma : mine.of_length(static_cast<std::size_t>(round - 1))) {
          if (contains(sigma, i)) continue;
          const int stored_id = mine.find(sigma);
          NAB_ASSERT(stored_id >= 0, "EIG round list out of sync");
          const value& stored = pool.of(stored_id);
          const bool may_lie = faults.is_corrupt(i) && adv != nullptr;
          value forged;
          // The adversary hook keeps its plain-vector signature; convert the
          // arena-backed label only on the (rare) corrupt-sender path.
          std::vector<graph::node_id> sigma_plain;
          if (may_lie) sigma_plain.assign(sigma.begin(), sigma.end());
          for (graph::node_id j : participants) {
            if (j == i) continue;
            const value* v = &stored;
            if (may_lie) {
              sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
              forged = adv->relay_value(i, j, sigma_plain, stored);
              v = &forged;
            }
            round_batch& b = batches.at(i, j);
            sim::wire::put(b.payload, q);
            sim::wire::put_run(b.payload, sigma);
            sim::wire::put_run(b.payload, *v);
            b.bits += vb + 8 * (sigma.size() + 1);
          }
          label extended = sigma;
          extended.push_back(i);
          self_stores.emplace_back(std::move(extended), stored_id);
        }
        for (auto& [sig, val] : self_stores) mine.store(sig, val);
      }
    }
    batches.flush(channels);
    channels.end_round(net, faults, relay_adv);
    label sigma;
    value v;
    std::size_t q = 0;
    for (graph::node_id j : participants) {
      for (const sim::message& m : channels.inbox(j)) {
        sim::wire::reader in(m.payload);
        while (in.get(q) && in.get_run(sigma) && in.get_run(v)) {
          if (q >= instances.size()) continue;
          // Accept only well-formed labels of the expected round, extended
          // by the actual sender; ignore duplicates (first write wins).
          if (static_cast<int>(sigma.size()) != round - 1) continue;
          if (sigma.empty() || sigma[0] != instances[q].source) continue;
          if (contains(sigma, m.from)) continue;
          bool well_formed = true;
          for (graph::node_id id : sigma)
            if (id < 0 || id >= universe) {
              well_formed = false;
              break;
            }
          if (!well_formed) continue;  // forged ids would alias packed keys
          sigma.push_back(m.from);
          store[q][static_cast<std::size_t>(j)].store(sigma, pool.intern(v));
        }
      }
    }
  }

  // Resolution.
  for (std::size_t q = 0; q < instances.size(); ++q)
    for (graph::node_id v : participants) {
      label root{instances[q].source};
      result.decisions[q][static_cast<std::size_t>(v)] =
          pool.of(resolve(store[q][static_cast<std::size_t>(v)], root, participants,
                          rounds));
    }

  result.time = net.elapsed() - t0;
  return result;
}

}  // namespace nab::bb
