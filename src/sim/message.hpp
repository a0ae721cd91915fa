#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/run_arena.hpp"

namespace nab::sim {

/// One logical message on a bb::channel_plan channel: a unicast between two
/// nodes that the plan delivers over the direct link or the 2f+1
/// node-disjoint emulation paths, charging every hop on a sim::network.
///
/// `payload` is protocol-defined opaque data (arena-backed when a run arena
/// is ambient — see sim/run_arena.hpp); `bits` is the size charged
/// against each link for time accounting (the paper's capacity constraint is
/// about bits on the wire, which can be smaller than the in-memory
/// representation).
struct message {
  graph::node_id from = -1;
  graph::node_id to = -1;
  sim::payload payload;
  std::uint64_t bits = 0;
};

/// A batch of messages (inboxes, per-round queues) — arena-backed alongside
/// the payloads it carries.
using message_list = pooled_vector<message>;

}  // namespace nab::sim
