#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"

namespace nab::bb {

/// Flat offset-indexed route storage: every path of every ordered pair lives
/// in one contiguous node_id pool, with two cumulative offset arrays on top
/// (per-path end offsets into the pool; per-pair end indices into the path
/// list). end_round's per-link charging then walks contiguous memory instead
/// of chasing a vector<vector<vector>> pointer soup, and a sweep-wide shared
/// table is three allocations instead of ~n^2 * (2f+2).
///
/// Pairs are stored row-major (from * n + to), so all routes out of one
/// source form a contiguous block — which is also the unit of parallel
/// construction (build_routes_for_source / assemble).
///
/// Next to the paths sit their hops as sim::network link ids: each pair's
/// links form one contiguous list in path-then-hop order, so a clean round
/// charges a message with one bulk call instead of a per-hop walk.
///
/// On top of those sit load templates, also built in assemble: each
/// sender's fan-out load (every link its routes to all other routed nodes
/// cross, with how many of those routes cross it) and the sum of every
/// sender's. A word round in which a sender sends one word of the same bits
/// to every node it has routes to adds that sender's vector once, and an
/// all-to-all round of one bits value adds the sum once, instead of
/// charging every unicast's hops.
class route_table {
 public:
  struct build_stats {
    std::uint64_t pairs = 0;               ///< ordered pairs routed (incl. direct)
    std::uint64_t flow_augmentations = 0;  ///< augmenting paths for emulated pairs
    bool operator==(const build_stats&) const = default;
  };

  /// One path: a contiguous node span (source first, destination last).
  class path_view {
   public:
    path_view(const graph::node_id* data, std::size_t size) : data_(data), size_(size) {}
    std::size_t size() const { return size_; }
    graph::node_id operator[](std::size_t i) const { return data_[i]; }
    graph::node_id front() const { return data_[0]; }
    graph::node_id back() const { return data_[size_ - 1]; }
    const graph::node_id* begin() const { return data_; }
    const graph::node_id* end() const { return data_ + size_; }
    friend bool operator==(const path_view& a, const std::vector<graph::node_id>& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

   private:
    const graph::node_id* data_;
    std::size_t size_;
  };

  /// The routes of one ordered pair: one single-link route or 2f+1
  /// node-disjoint paths (empty for unrouted pairs).
  class route_view {
   public:
    route_view(const route_table* t, std::uint32_t first, std::uint32_t last)
        : t_(t), first_(first), last_(last) {}
    std::size_t size() const { return last_ - first_; }
    bool empty() const { return last_ == first_; }
    path_view operator[](std::size_t i) const { return t_->path(first_ + static_cast<std::uint32_t>(i)); }

    struct iterator {
      const route_table* t;
      std::uint32_t p;
      path_view operator*() const { return t->path(p); }
      iterator& operator++() { ++p; return *this; }
      bool operator!=(const iterator& o) const { return p != o.p; }
    };
    iterator begin() const { return {t_, first_}; }
    iterator end() const { return {t_, last_}; }

   private:
    const route_table* t_;
    std::uint32_t first_, last_;
  };

  route_table() = default;

  /// Routes of the ordered pair (from, to).
  route_view at(graph::node_id from, graph::node_id to) const {
    const std::size_t idx = static_cast<std::size_t>(from) * n_ + to;
    return {this, idx == 0 ? 0 : pair_end_[idx - 1], pair_end_[idx]};
  }

  /// The links the routes of (from, to) cross, as sim::network link ids in
  /// path-then-hop order — the hops a per-hop walk of the routes charges.
  std::span<const std::uint32_t> links(graph::node_id from, graph::node_id to) const {
    const std::size_t idx = static_cast<std::size_t>(from) * n_ + to;
    const std::uint32_t first = idx == 0 ? 0 : pair_end_[idx - 1];
    const std::uint32_t last = pair_end_[idx];
    return {links_.data() + link_begin(first), links_.data() + link_begin(last)};
  }

  /// Every link some route crosses, ascending and without repeats (the list
  /// a network is checked against, sim::network::require_links).
  std::span<const std::uint32_t> all_links() const { return all_links_; }

  /// How many nodes `from` has routes to: the unicasts of its whole fan-out.
  std::uint32_t fanout_receivers(graph::node_id from) const {
    return fanout_receivers_[static_cast<std::size_t>(from)];
  }

  /// The load of `from`'s whole fan-out: every link its routes to all
  /// other routed nodes cross, ascending, with how many of those routes
  /// cross it. Charging it is charging each of those unicasts' links.
  std::span<const sim::link_load> fanout_load(graph::node_id from) const {
    const auto u = static_cast<std::size_t>(from);
    const std::uint32_t first = u == 0 ? 0 : fanout_end_[u - 1];
    return {fanout_loads_.data() + first, fanout_loads_.data() + fanout_end_[u]};
  }

  /// The sum of every sender's fan-out load: an all-to-all round's.
  std::span<const sim::link_load> all_to_all_load() const { return all_to_all_; }

  int universe() const { return n_; }
  const build_stats& stats() const { return stats_; }

  /// Expands one pair back into the nested representation (tests compare
  /// against the per-pair reference builder).
  std::vector<std::vector<graph::node_id>> decode(graph::node_id from,
                                                  graph::node_id to) const;

  bool operator==(const route_table&) const = default;

 private:
  friend class channel_plan;

  std::uint32_t path_begin(std::uint32_t p) const { return p == 0 ? 0 : path_end_[p - 1]; }

  path_view path(std::uint32_t p) const {
    const std::uint32_t b = path_begin(p);
    return {pool_.data() + b, path_end_[p] - b};
  }

  /// Offset of path p's first hop in links_: each earlier path of k nodes
  /// contributed k - 1 links.
  std::uint32_t link_begin(std::uint32_t p) const { return path_begin(p) - p; }

  int n_ = 0;
  std::vector<graph::node_id> pool_;       ///< all path nodes, concatenated
  std::vector<std::uint32_t> path_end_;    ///< cumulative end offset per path
  std::vector<std::uint32_t> pair_end_;    ///< cumulative end path index per pair
  std::vector<std::uint32_t> links_;       ///< every path's hop link ids, concatenated
  std::vector<std::uint32_t> all_links_;   ///< distinct ids of links_, ascending
  std::vector<std::uint32_t> fanout_receivers_;  ///< per sender, routed nodes
  std::vector<sim::link_load> fanout_loads_;     ///< every sender's fan-out load
  std::vector<std::uint32_t> fanout_end_;        ///< cumulative end per sender
  std::vector<sim::link_load> all_to_all_;       ///< sum of the fan-out loads
  build_stats stats_;
};

/// Hook allowing corrupt *relays* to tamper with copies forwarded along
/// emulated multi-hop paths. The default (returning nullopt) relays
/// honestly; returning a payload substitutes it. Majority voting over 2f+1
/// node-disjoint paths makes any tampering ineffective when the sender is
/// honest — tests exercise exactly that.
class relay_adversary {
 public:
  virtual ~relay_adversary() = default;

  /// `path` is the full node sequence; called only when some interior relay
  /// is corrupt.
  virtual std::optional<sim::payload> tamper(
      const std::vector<graph::node_id>& path, const sim::message& m) {
    (void)path;
    (void)m;
    return std::nullopt;
  }
};

/// What every receiver heard in one word round (channel_plan's word lane):
/// dense over the node universe and reused from round to round, so a round
/// costs no per-message allocation. value(r, s) is sender s's word at
/// receiver r, meaningful only where heard(r, s).
class word_inbox {
 public:
  explicit word_inbox(int universe)
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

/// Reliable pairwise channels over an arbitrary (>= 2f+1)-connected network.
///
/// The paper's step 2.2 and Phase 3 run classical BB protocols that assume a
/// complete graph; on incomplete topologies it emulates each logical channel
/// by sending the same data along 2f+1 node-disjoint paths and taking the
/// majority at the receiver (Appendix D). This class precomputes those
/// routes once per topology and provides round-structured logical unicasts
/// with exact link-level bit accounting: every link of every path is charged
/// the full payload size in the step where the round ends.
///
/// Two lanes, one transport rule. The message lane (unicast / end_round /
/// inbox) carries arbitrary payloads as sim::message inbox entries; EIG and
/// the claim backends batch their items through it. The word lane
/// (send_word / end_word_round / words) carries one word per unicast, as
/// phase-king's rounds do, and writes what arrives straight into a dense
/// word_inbox: no payload, message or inbox entry per unicast. Both lanes
/// end a round by transporting their entries in send order through one
/// private rule, so per-link loads, ARQ draws, relay tampering and majority
/// votes cannot differ between them.
///
/// Accounting model: multi-hop forwarding within one synchronous step
/// (cut-through, the paper's zero-propagation-delay model; see
/// core::propagation_mode::cut_through).
///
/// Charging: on clean networks (no link-fault model attached) every copy
/// arrives, so each unicast is one bulk charge of its pair's precomputed
/// link list, and the network is checked once per round to carry every
/// link the routes cross. A word round on a clean network goes further: a
/// sender whose entries are exactly its whole fan-out, with one bits value,
/// is charged its route table's fan-out load in one vector add (the
/// all-to-all sum once when every sender's are), and its words land in the
/// inbox verbatim unless a relay adversary is attached. Relays never change
/// what a clean round charges, so the template charge holds under one too.
/// Per-link loads, and so tau, total bits and an attached trace's events,
/// are those of the per-entry charge. Lossy networks walk each route hop by
/// hop, every hop running its own ARQ loop.
class channel_plan {
 public:
  /// The flat pooled route storage (see route_table above).
  using route_table = bb::route_table;

  /// Builds routes for every ordered pair of active nodes. Throws nab::error
  /// if some pair admits neither a direct link nor 2f+1 disjoint paths.
  channel_plan(const graph::digraph& g, int f);

  /// Uses a precomputed (immutable, shareable) route table — routes are a
  /// pure function of (g, f), so core::omega_cache memoizes them across the
  /// sessions of a sweep. Precondition: `routes` was built by build_routes
  /// for exactly this (g, f).
  channel_plan(const graph::digraph& g, int f,
               std::shared_ptr<const route_table> routes);

  /// The route-construction half of the constructor, exposed for caching:
  /// one warm-started disjoint-path finder per source, assembled row by row.
  static route_table build_routes(const graph::digraph& g, int f);

  /// One source's row of the table, built on its own warm-started residual
  /// network — the unit of deterministic parallel construction. `error` is
  /// set (not thrown) when a pair lacks 2f+1 disjoint paths, so parallel
  /// builders can surface the smallest-source failure deterministically.
  struct source_block {
    std::vector<graph::node_id> pool;
    std::vector<std::uint32_t> path_end;  ///< cumulative, relative to pool
    std::vector<std::uint32_t> path_count;  ///< paths per destination (size n)
    std::uint64_t pairs = 0;
    std::uint64_t flow_augmentations = 0;
    std::string error;  ///< empty on success
  };
  static source_block build_routes_for_source(const graph::digraph& g, int f,
                                              graph::node_id u);

  /// Concatenates per-source blocks (ascending source order) into one flat
  /// table; throws the smallest-source block error if any. `blocks` must
  /// have exactly g.universe() entries.
  static route_table assemble(const graph::digraph& g,
                              std::vector<source_block> blocks);

  /// Queues a logical unicast for the current round. A nonempty payload
  /// must be charged (bits > 0), or its content would cross every hop for
  /// free; throws nab::error otherwise. An empty zero-bit message models an
  /// absent/default value and is legal.
  void unicast(graph::node_id from, graph::node_id to, sim::payload payload,
               std::uint64_t bits);

  /// Ends the round: charges `net`, applies relay tampering on compromised
  /// paths, majority-resolves copies, and fills the channel inboxes.
  /// Returns the step duration. Throws nab::error when `net` lacks a link
  /// a route crosses or spans another node universe.
  double end_round(sim::network& net, const sim::fault_set& faults,
                   relay_adversary* adv = nullptr);

  /// Logical messages delivered to v in the last completed round.
  const sim::message_list& inbox(graph::node_id v) const;

  /// Queues a one-word logical unicast on the word lane for the current
  /// word round. A word is content, so it must be charged: throws nab::error
  /// when bits == 0, as unicast does for a nonempty payload.
  void send_word(graph::node_id from, graph::node_id to, std::uint64_t word,
                 std::uint64_t bits);

  /// Ends a word round: transports every queued word in send order under
  /// end_round's rule and writes each arrival into words(). A word whose
  /// copies were all erased, or whose majority resolved to an empty
  /// payload, is not heard; a forged multi-word winner delivers its first
  /// word. Returns the step duration. Asserts that no message-lane traffic
  /// is queued, and throws nab::error in the cases end_round does.
  double end_word_round(sim::network& net, const sim::fault_set& faults,
                        relay_adversary* adv = nullptr);

  /// What every receiver heard in the last completed word round.
  const word_inbox& words() const { return words_; }

  /// Releases all per-round storage (queued messages and inbox capacity).
  /// The plan itself persists across NAB instances while payloads live in a
  /// per-run arena, so the session calls this before every arena reset.
  /// The word lane holds no arena memory; its queue is only emptied.
  void reclaim_round_storage();

  /// The routes used for the ordered pair (from, to): one single-link route
  /// or 2f+1 node-disjoint paths.
  route_table::route_view routes(graph::node_id from, graph::node_id to) const {
    return routes_->at(from, to);
  }

  int fault_budget() const { return f_; }

  /// The topology the plan was built for (participants = its active nodes).
  const graph::digraph& topology() const { return topo_; }

 private:
  /// One queued word-lane unicast.
  struct sent_word {
    graph::node_id from, to;
    std::uint64_t word, bits;
  };

  /// How a round's unicasts are charged.
  enum class carriage {
    clean,    ///< every copy arrives; one charge_links per unicast
    lossy,    ///< a fault model is attached: per-hop ARQ, copies may be lost
    charged,  ///< clean, and the sender's fan-out load was charged already
  };

  /// One sender's entries in the word round being ended.
  struct fanout_check {
    std::uint32_t entries = 0;
    std::uint64_t bits = 0;  ///< the first entry's
    bool whole = false;      ///< exactly its whole fan-out, one bits value
  };

  /// What the receiver of one transported unicast gets.
  enum class arrival {
    lost,      ///< every copy was erased in transit
    verbatim,  ///< every surviving copy is the sent content
    resolved,  ///< a corrupt relay sat on a surviving copy; majority voted
  };

  /// Starts transporting a round of `entries` unicasts: on a clean network
  /// a non-empty round checks once that `net` carries every route link.
  /// Returns the round's carriage, clean or lossy.
  carriage begin_transport(sim::network& net, std::size_t entries);

  /// Charges, from the route table's load templates, every sender whose
  /// queued words are exactly its whole fan-out with one bits value, and
  /// marks them whole in fanouts_. Call only with words queued, on a clean
  /// network.
  void charge_whole_fanouts(sim::network& net);

  /// The one transport rule of both lanes: charges one unicast's routes on
  /// `net` (clean: one bulk charge; lossy: per-hop ARQ, a copy surviving
  /// iff every hop of its path got through; charged: nothing) and, only
  /// under a relay adversary, scans the surviving paths for a corrupt
  /// relay. If one is found, every surviving copy goes through the tamper
  /// hook where a corrupt relay sits and `majority` receives the vote's
  /// winner, ties going to the lexicographically smallest payload.
  /// `message()` yields the unicast as a sim::message for the hook; it is
  /// called only then.
  template <class MessageFn>
  arrival transport(sim::network& net, const sim::fault_set& faults,
                    relay_adversary* adv, carriage how, graph::node_id from,
                    graph::node_id to, std::uint64_t bits, const MessageFn& message,
                    sim::payload& majority);

  graph::digraph topo_;
  int f_;
  std::shared_ptr<const route_table> routes_;  // immutable, possibly shared
  sim::message_list queued_;
  std::vector<sim::message_list> inboxes_;
  std::vector<sent_word> sent_words_;  // the word lane's reused send list
  std::vector<fanout_check> fanouts_;  // per sender, one word round's
  std::vector<char> sent_to_;          // n x n, (from, to) queued this round
  word_inbox words_;
  std::vector<char> arrived_;  // per-path delivery flags of a lossy unicast
};

}  // namespace nab::bb
