#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace nab::sim {

/// One link-level transmission event recorded by a trace.
struct trace_event {
  int step = 0;                ///< synchronous step index when it was charged
  graph::node_id from = -1;
  graph::node_id to = -1;
  std::uint64_t tag = 0;       ///< protocol tag (0 for bare charges)
  std::uint64_t bits = 0;
};

/// Passive observer of a network's traffic, attachable via
/// network::attach_trace. Useful for debugging protocols and for asserting
/// communication patterns in tests ("Phase 1 only used tree edges",
/// "no traffic crossed a disputed link").
class trace {
 public:
  void record(int step, graph::node_id from, graph::node_id to, std::uint64_t tag,
              std::uint64_t bits) {
    events_.push_back({step, from, to, tag, bits});
  }

  const std::vector<trace_event>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Total bits recorded on link (from, to): the per-link ledger, which the
  /// network itself does not keep.
  std::uint64_t link_total(graph::node_id from, graph::node_id to) const;

  /// Total bits recorded under one protocol tag, across all links and steps.
  /// Sub-protocols that tag their traffic (e.g. the Phase-3 claim backends,
  /// bb/claim_bcast.hpp) become individually accountable: tests assert the
  /// claim-byte drop across backends from a trace instead of eyeballing it.
  std::uint64_t tag_total(std::uint64_t tag) const;

  /// Total bits recorded over all events (equals network::total_bits when
  /// the trace observed the network for its whole lifetime).
  std::uint64_t total_bits() const;

  /// Events within one step, in charge order.
  std::vector<trace_event> step_events(int step) const;

  /// True iff some event used the given link.
  bool used(graph::node_id from, graph::node_id to) const;

 private:
  std::vector<trace_event> events_;
};

/// The calling thread's ambient trace (nullptr when none is installed).
/// Networks constructed on a thread attach its ambient trace automatically,
/// so instrumentation reaches the networks a `core::session` creates
/// internally — per-thread, which keeps fleet shards running in parallel
/// fully independent (no shared observer, no data races).
trace* ambient_trace();

/// Installs `t` as the calling thread's ambient trace for the lifetime of
/// the scope; restores the previous one on destruction. Scopes nest.
class scoped_ambient_trace {
 public:
  explicit scoped_ambient_trace(trace* t);
  ~scoped_ambient_trace();
  scoped_ambient_trace(const scoped_ambient_trace&) = delete;
  scoped_ambient_trace& operator=(const scoped_ambient_trace&) = delete;

 private:
  trace* previous_;
};

}  // namespace nab::sim
