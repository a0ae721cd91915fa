#include "sim/trace.hpp"

namespace nab::sim {

std::uint64_t trace::link_total(graph::node_id from, graph::node_id to) const {
  std::uint64_t total = 0;
  for (const trace_event& e : events_)
    if (e.from == from && e.to == to) total += e.bits;
  return total;
}

std::uint64_t trace::total_bits() const {
  std::uint64_t total = 0;
  for (const trace_event& e : events_) total += e.bits;
  return total;
}

}  // namespace nab::sim
