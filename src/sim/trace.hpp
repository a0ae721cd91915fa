#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "util/ambient.hpp"

namespace nab::sim {

/// One link's load in one synchronous step: the bits a network's meter
/// summed on the link when the step ended.
struct trace_event {
  int step = 0;  ///< index of the step that carried the bits
  graph::node_id from = -1;
  graph::node_id to = -1;
  std::uint64_t bits = 0;
  bool operator==(const trace_event&) const = default;
};

/// Passive observer of a network's traffic, attachable via
/// network::attach_trace. network::end_step appends one event per link that
/// carried bits in the step, in ascending link id: the per-link loads tau is
/// computed from, so every charge path records alike. Useful for debugging
/// protocols and for asserting communication patterns in tests ("Phase 1
/// only used tree edges", "no traffic crossed a disputed link").
class trace {
 public:
  void record(int step, graph::node_id from, graph::node_id to, std::uint64_t bits) {
    events_.push_back({step, from, to, bits});
  }

  const std::vector<trace_event>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Total bits recorded on link (from, to): the per-link ledger, which the
  /// network itself does not keep.
  std::uint64_t link_total(graph::node_id from, graph::node_id to) const;

  /// Total bits recorded over all events (equals network::total_bits when
  /// the trace observed the network for its whole lifetime).
  std::uint64_t total_bits() const;

 private:
  std::vector<trace_event> events_;
};

/// The calling thread's ambient trace (nullptr when none is installed).
/// Networks constructed on a thread attach its ambient trace automatically,
/// so instrumentation reaches the networks a `core::session` creates
/// internally — per-thread, which keeps fleet shards running in parallel
/// fully independent (no shared observer, no data races).
inline trace* ambient_trace() { return ambient<trace>::current; }

/// Installs `t` as the calling thread's ambient trace for the lifetime of
/// the scope; restores the previous one on destruction. Scopes nest.
using scoped_ambient_trace = ambient<trace>::scope;

}  // namespace nab::sim
