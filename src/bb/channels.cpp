#include "bb/channels.hpp"

#include <algorithm>
#include <map>

#include "graph/connectivity.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::bb {

std::vector<std::vector<graph::node_id>> route_table::decode(graph::node_id from,
                                                             graph::node_id to) const {
  std::vector<std::vector<graph::node_id>> out;
  for (const path_view p : at(from, to)) out.emplace_back(p.begin(), p.end());
  return out;
}

channel_plan::source_block channel_plan::build_routes_for_source(const graph::digraph& g,
                                                                 int f,
                                                                 graph::node_id u) {
  NAB_ASSERT(f >= 0, "fault budget must be non-negative");
  const int n = g.universe();
  source_block block;
  block.path_count.assign(static_cast<std::size_t>(n), 0);
  if (!g.is_active(u)) return block;

  // One residual network per source, warm-started across its n-1 sinks.
  graph::disjoint_path_finder finder(g);
  for (graph::node_id v = 0; v < n; ++v) {
    if (v == u || !g.is_active(v)) continue;
    if (g.has_edge(u, v)) {
      block.pool.push_back(u);
      block.pool.push_back(v);
      block.path_end.push_back(static_cast<std::uint32_t>(block.pool.size()));
      block.path_count[static_cast<std::size_t>(v)] = 1;
      ++block.pairs;
      continue;
    }
    // 2f+1 node-disjoint paths; infeasibility violates the paper's
    // connectivity precondition and is reported per pair.
    std::vector<std::vector<graph::node_id>> paths;
    try {
      paths = finder.find(u, v, 2 * f + 1);
    } catch (const error& e) {
      block.error = "channel_plan: pair (" + std::to_string(u) + "," +
                    std::to_string(v) + ") lacks 2f+1 disjoint paths: " + e.what();
      return block;
    }
    for (const auto& p : paths) {
      block.pool.insert(block.pool.end(), p.begin(), p.end());
      block.path_end.push_back(static_cast<std::uint32_t>(block.pool.size()));
    }
    block.path_count[static_cast<std::size_t>(v)] =
        static_cast<std::uint32_t>(paths.size());
    ++block.pairs;
  }
  block.flow_augmentations = finder.augmentations();
  return block;
}

channel_plan::route_table channel_plan::assemble(const graph::digraph& g,
                                                 std::vector<source_block> blocks) {
  const int n = g.universe();
  NAB_ASSERT(blocks.size() == static_cast<std::size_t>(n),
             "assemble needs one block per source");
  for (const auto& block : blocks)
    if (!block.error.empty()) throw error(block.error);

  route_table out;
  out.n_ = n;
  std::size_t pool_total = 0, paths_total = 0;
  for (const auto& block : blocks) {
    pool_total += block.pool.size();
    paths_total += block.path_end.size();
  }
  out.pool_.reserve(pool_total);
  out.path_end_.reserve(paths_total);
  out.pair_end_.reserve(static_cast<std::size_t>(n) * n);

  std::uint32_t paths_so_far = 0;
  for (const auto& block : blocks) {
    const std::uint32_t pool_base = static_cast<std::uint32_t>(out.pool_.size());
    out.pool_.insert(out.pool_.end(), block.pool.begin(), block.pool.end());
    for (const std::uint32_t e : block.path_end) out.path_end_.push_back(pool_base + e);
    for (int v = 0; v < n; ++v) {
      paths_so_far += block.path_count[static_cast<std::size_t>(v)];
      out.pair_end_.push_back(paths_so_far);
    }
    out.stats_.pairs += block.pairs;
    out.stats_.flow_augmentations += block.flow_augmentations;
    out.fanout_receivers_.push_back(static_cast<std::uint32_t>(block.pairs));
  }

  // Every path's hops as network link ids; a pair's paths are adjacent, so
  // its links come out contiguous in path-then-hop order.
  out.links_.reserve(out.pool_.size() - out.path_end_.size());
  std::vector<std::uint32_t> crossings(static_cast<std::size_t>(n) * n, 0);
  std::uint32_t path_start = 0;
  for (const std::uint32_t path_end : out.path_end_) {
    for (std::uint32_t i = path_start; i + 1 < path_end; ++i) {
      const std::uint32_t id = sim::network::link_index(n, out.pool_[i], out.pool_[i + 1]);
      out.links_.push_back(id);
      ++crossings[id];
    }
    path_start = path_end;
  }
  for (std::uint32_t id = 0; id < crossings.size(); ++id)
    if (crossings[id] != 0) {
      out.all_links_.push_back(id);
      out.all_to_all_.push_back({id, crossings[id]});
    }

  // Each sender's fan-out load: its row of pairs is one contiguous run of
  // links_, counted per link.
  std::vector<std::uint32_t> row;
  for (std::size_t u = 0; u < blocks.size(); ++u) {
    const std::uint32_t first = u == 0 ? 0 : out.pair_end_[u * n - 1];
    const std::uint32_t last = out.pair_end_[(u + 1) * n - 1];
    row.assign(out.links_.begin() + out.link_begin(first),
               out.links_.begin() + out.link_begin(last));
    std::sort(row.begin(), row.end());
    for (auto it = row.begin(); it != row.end();) {
      const auto next = std::upper_bound(it, row.end(), *it);
      out.fanout_loads_.push_back({*it, static_cast<std::uint32_t>(next - it)});
      it = next;
    }
    out.fanout_end_.push_back(static_cast<std::uint32_t>(out.fanout_loads_.size()));
  }
  return out;
}

channel_plan::route_table channel_plan::build_routes(const graph::digraph& g, int f) {
  const int n = g.universe();
  std::vector<source_block> blocks;
  blocks.reserve(static_cast<std::size_t>(n));
  for (graph::node_id u = 0; u < n; ++u) {
    blocks.push_back(build_routes_for_source(g, f, u));
    // Surface the failure immediately (same first-failing-pair error as the
    // per-pair reference builder).
    if (!blocks.back().error.empty()) throw error(blocks.back().error);
  }
  return assemble(g, std::move(blocks));
}

channel_plan::channel_plan(const graph::digraph& g, int f)
    : channel_plan(g, f,
                   std::make_shared<const route_table>(build_routes(g, f))) {}

channel_plan::channel_plan(const graph::digraph& g, int f,
                           std::shared_ptr<const route_table> routes)
    : topo_(g),
      f_(f),
      routes_(std::move(routes)),
      inboxes_(static_cast<std::size_t>(g.universe())),
      fanouts_(static_cast<std::size_t>(g.universe())),
      sent_to_(static_cast<std::size_t>(g.universe()) * g.universe(), 0),
      words_(g.universe()) {
  NAB_ASSERT(routes_ != nullptr && routes_->universe() == g.universe(),
             "channel_plan route table does not match the topology");
}

void channel_plan::unicast(graph::node_id from, graph::node_id to, sim::payload payload,
                           std::uint64_t bits) {
  NAB_ASSERT(!routes_->at(from, to).empty(),
             "unicast between nodes with no planned route");
  if (bits == 0 && !payload.empty())
    throw error("channel_plan::unicast of nonempty payload with bits == 0 on " +
                std::to_string(from) + "->" + std::to_string(to) +
                " (zero-bit messages model absent/default values and must be empty)");
  queued_.push_back({from, to, std::move(payload), bits});
}

namespace {

/// True when an interior relay of `path` is corrupt — the only way a copy
/// can reach the receiver altered.
bool has_corrupt_relay(const route_table::path_view path, const sim::fault_set& faults) {
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    if (faults.is_corrupt(path[i])) return true;
  return false;
}

}  // namespace

channel_plan::carriage channel_plan::begin_transport(sim::network& net,
                                                     std::size_t entries) {
  // Clean links deliver every copy, so a unicast is one bulk charge of its
  // pair's link list — the hops of every route, in the order the per-hop
  // walk of a lossy network charges them. The network is checked once per
  // round to carry every link the routes cross, instead of once per hop.
  if (net.link_faults() != nullptr) return carriage::lossy;
  if (entries != 0) net.require_links(routes_->universe(), routes_->all_links());
  return carriage::clean;
}

void channel_plan::charge_whole_fanouts(sim::network& net) {
  // A sender's entries are its whole fan-out when they share one bits value,
  // repeat no receiver, and number its routed receivers; their charge is
  // then its fan-out load, whatever order they were queued in.
  const auto n = static_cast<std::size_t>(routes_->universe());
  const auto pair = [n](const sent_word& w) {
    return static_cast<std::size_t>(w.from) * n + static_cast<std::size_t>(w.to);
  };
  std::fill(fanouts_.begin(), fanouts_.end(), fanout_check{});
  for (const sent_word& w : sent_words_) {
    fanout_check& s = fanouts_[static_cast<std::size_t>(w.from)];
    if (s.entries++ == 0) {
      s.bits = w.bits;
      s.whole = true;
    }
    s.whole = s.whole && sent_to_[pair(w)] == 0 && w.bits == s.bits;
    sent_to_[pair(w)] = 1;
  }
  for (const sent_word& w : sent_words_) sent_to_[pair(w)] = 0;

  // When every routed sender's is whole with one bits value, the round is
  // the all-to-all load once; otherwise each whole fan-out adds its own.
  const std::uint64_t bits = sent_words_.front().bits;
  bool all_to_all = true;
  for (std::size_t u = 0; u < n; ++u) {
    fanout_check& s = fanouts_[u];
    const std::uint32_t receivers = routes_->fanout_receivers(static_cast<graph::node_id>(u));
    if (receivers == 0) continue;  // an unrouted node queues nothing
    s.whole = s.whole && s.entries == receivers;
    all_to_all = all_to_all && s.whole && s.bits == bits;
  }
  if (all_to_all) {
    net.charge_loads(routes_->all_to_all_load(), bits);
    return;
  }
  for (std::size_t u = 0; u < n; ++u)
    if (fanouts_[u].whole)
      net.charge_loads(routes_->fanout_load(static_cast<graph::node_id>(u)), fanouts_[u].bits);
}

template <class MessageFn>
channel_plan::arrival channel_plan::transport(sim::network& net,
                                              const sim::fault_set& faults,
                                              relay_adversary* adv, carriage how,
                                              graph::node_id from, graph::node_id to,
                                              std::uint64_t bits, const MessageFn& message,
                                              sim::payload& majority) {
  const route_table::route_view route_set = routes_->at(from, to);
  const bool lossy_net = how == carriage::lossy;
  std::size_t live = route_set.size();
  if (how == carriage::clean) {
    net.charge_links(routes_->links(from, to), bits);
  } else if (lossy_net) {
    // Each hop runs its own ARQ loop; a copy survives iff every hop of its
    // path got through, and a dropped copy never charges the hops past
    // the failure. Paths are contiguous node spans in the flat pool.
    live = 0;
    arrived_.clear();
    for (const route_table::path_view path : route_set) {
      bool ok = true;
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        if (!net.lossy_transmit(path[i], path[i + 1], bits)) {
          ok = false;
          break;
        }
      arrived_.push_back(ok ? 1 : 0);
      if (ok) ++live;
    }
    // Every copy erased in transit: the receiver sees nothing and falls
    // back to its missing-message default (vanishingly rare within budget).
    if (live == 0) return arrival::lost;
  }
  // With no tampering adversary, or no corrupt interior relay on a
  // surviving path (a direct link has none), every delivered copy is the
  // sent content verbatim, so the majority is that content and no copy is
  // materialized. Relays are scanned only when an adversary is attached.
  bool compromised = false;
  if (adv != nullptr)
    for (std::size_t p = 0; p < route_set.size(); ++p)
      if ((!lossy_net || arrived_[p] != 0) && has_corrupt_relay(route_set[p], faults))
        compromised = true;
  if (!compromised) return arrival::verbatim;
  // Compromised: collect one copy per surviving route and majority-
  // resolve. Ties resolve to the lexicographically smallest payload so
  // every honest receiver applies the same deterministic rule.
  const sim::message& m = message();
  std::vector<sim::payload> copies;
  copies.reserve(live);
  for (std::size_t p = 0; p < route_set.size(); ++p) {
    if (lossy_net && arrived_[p] == 0) continue;
    const route_table::path_view path = route_set[p];
    sim::payload copy = m.payload;
    if (has_corrupt_relay(path, faults)) {
      sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
      const std::vector<graph::node_id> path_nodes(path.begin(), path.end());
      if (auto forged = adv->tamper(path_nodes, m)) copy = std::move(*forged);
    }
    copies.push_back(std::move(copy));
  }
  std::map<sim::payload, int> votes;
  for (const auto& c : copies) ++votes[c];
  const auto winner =
      std::max_element(votes.begin(), votes.end(), [](const auto& a, const auto& b) {
        return a.second < b.second || (a.second == b.second && b.first < a.first);
      });
  majority = winner->first;
  return arrival::resolved;
}

double channel_plan::end_round(sim::network& net, const sim::fault_set& faults,
                               relay_adversary* adv) {
  for (auto& box : inboxes_) box.clear();
  const carriage how = begin_transport(net, queued_.size());
  sim::payload majority;
  for (sim::message& m : queued_) {
    const auto self = [&m]() -> const sim::message& { return m; };
    const arrival a = transport(net, faults, adv, how, m.from, m.to, m.bits, self, majority);
    if (a == arrival::lost) continue;
    if (a == arrival::resolved) m.payload = std::move(majority);
    inboxes_[static_cast<std::size_t>(m.to)].push_back(std::move(m));
  }
  queued_.clear();
  return net.end_step();
}

void channel_plan::send_word(graph::node_id from, graph::node_id to, std::uint64_t word,
                             std::uint64_t bits) {
  NAB_ASSERT(!routes_->at(from, to).empty(),
             "send_word between nodes with no planned route");
  if (bits == 0)
    throw error("channel_plan::send_word with bits == 0 on " + std::to_string(from) +
                "->" + std::to_string(to) +
                " (a word is content and must be charged)");
  sent_words_.push_back({from, to, word, bits});
}

double channel_plan::end_word_round(sim::network& net, const sim::fault_set& faults,
                                    relay_adversary* adv) {
  NAB_ASSERT(queued_.empty(), "message-lane traffic queued when a word round ends");
  words_.clear();
  const carriage how = begin_transport(net, sent_words_.size());
  // A lossy network draws per hop, so only a clean round charges whole
  // fan-outs from the load templates.
  const bool templates = how == carriage::clean && !sent_words_.empty();
  if (templates) charge_whole_fanouts(net);
  sim::payload majority;
  for (const sent_word& w : sent_words_) {
    const bool charged = templates && fanouts_[static_cast<std::size_t>(w.from)].whole;
    // Charged and with no relay adversary to tamper, the word arrives as sent.
    if (charged && adv == nullptr) {
      words_.deliver(w.to, w.from, w.word);
      continue;
    }
    // The tamper hook sees the word as the one-word message it stands for;
    // it is built only on that slow path.
    const auto as_message = [&w] {
      return sim::message{w.from, w.to, {w.word}, w.bits};
    };
    const arrival a = transport(net, faults, adv, charged ? carriage::charged : how, w.from,
                                w.to, w.bits, as_message, majority);
    if (a == arrival::verbatim)
      words_.deliver(w.to, w.from, w.word);
    else if (a == arrival::resolved && !majority.empty())
      words_.deliver(w.to, w.from, majority[0]);
  }
  sent_words_.clear();
  return net.end_step();
}

const sim::message_list& channel_plan::inbox(graph::node_id v) const {
  NAB_ASSERT(v >= 0 && v < static_cast<graph::node_id>(inboxes_.size()),
             "channel inbox out of range");
  return inboxes_[static_cast<std::size_t>(v)];
}

void channel_plan::reclaim_round_storage() {
  sim::message_list().swap(queued_);
  for (auto& box : inboxes_) sim::message_list().swap(box);
  sent_words_.clear();
}

}  // namespace nab::bb
