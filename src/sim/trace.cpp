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

namespace {
thread_local trace* ambient = nullptr;
}  // namespace

trace* ambient_trace() { return ambient; }

scoped_ambient_trace::scoped_ambient_trace(trace* t) : previous_(ambient) {
  ambient = t;
}

scoped_ambient_trace::~scoped_ambient_trace() { ambient = previous_; }

}  // namespace nab::sim
