#include "sim/network.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::sim {

network::network(graph::digraph topology)
    : topo_(std::move(topology)),
      step_bits_(static_cast<std::size_t>(topo_.universe()) * topo_.universe(), 0),
      trace_(ambient_trace()),
      faults_(ambient_link_faults()) {}

bool network::lossy_transmit(graph::node_id u, graph::node_id v, std::uint64_t bits) {
  charge(u, v, bits);
  if (faults_ == nullptr) return true;
  const int budget = faults_->params().retry_budget;
  int retries = 0;
  while (faults_->erase(u, v, universe())) {
    if (retries >= budget) {
      obs::count(obs::counter::link_retry_exhaustions);
      obs::gauge_min(obs::gauge::retry_headroom, 0);
      return false;
    }
    ++retries;
    obs::count(obs::counter::link_retransmits);
    // The receiver's nack rides the reverse link when the topology has one
    // (the control plane is modeled reliable; see docs/RUNTIME.md).
    if (topo_.has_edge(v, u)) charge(v, u, 1);
    charge(u, v, bits);
  }
  if (retries > 0)
    obs::gauge_min(obs::gauge::retry_headroom, budget - retries);
  return true;
}

void network::charge(graph::node_id u, graph::node_id v, std::uint64_t bits) {
  if (!topo_.has_edge(u, v))
    throw error("network::charge on nonexistent link " + std::to_string(u) + "->" +
                std::to_string(v));
  step_bits_[link_index(u, v)] += bits;
}

const std::vector<graph::edge>& network::kept_edges() {
  if (!edges_kept_) {
    edges_ = topo_.edges();
    edges_kept_ = true;
  }
  return edges_;
}

void network::require_links(int universe, std::span<const std::uint32_t> links) {
  if (universe != this->universe())
    throw error("network::require_links: link ids over " + std::to_string(universe) +
                " nodes on a network of " + std::to_string(this->universe()));
  // One merge pass: both the list and the kept edges ascend by link id.
  const std::vector<graph::edge>& edges = kept_edges();
  auto e = edges.begin();
  for (const std::uint32_t id : links) {
    while (e != edges.end() && link_index(e->from, e->to) < id) ++e;
    if (e == edges.end() || link_index(e->from, e->to) != id) {
      const auto n = static_cast<std::uint32_t>(universe);
      throw error("network::require_links: nonexistent link " + std::to_string(id / n) +
                  "->" + std::to_string(id % n));
    }
  }
}

void network::charge_links(std::span<const std::uint32_t> links, std::uint64_t bits) {
  for (const std::uint32_t id : links) step_bits_[id] += bits;
}

void network::charge_loads(std::span<const link_load> loads, std::uint64_t bits) {
  for (const link_load& l : loads) step_bits_[l.link] += bits * l.count;
}

double network::end_step() {
  double duration = 0.0;
  for (const graph::edge& e : kept_edges()) {
    const std::uint64_t bits = step_bits_[link_index(e.from, e.to)];
    if (bits == 0) continue;
    // digraph::add_edge rejects cap <= 0, so every active link divides
    // cleanly; the assert guards against a future zero-capacity edge
    // representation silently producing an infinite tau.
    NAB_ASSERT(e.cap > 0, "link with zero capacity carried traffic");
    double link_time = static_cast<double>(bits) / static_cast<double>(e.cap);
    // Per-link latency/capacity jitter: a fixed dilation factor per link
    // (exactly 1.0 with no fault model or at jitter amplitude 0).
    if (faults_ != nullptr)
      link_time *= faults_->time_dilation(e.from, e.to, universe());
    duration = std::max(duration, link_time);
    total_bits_ += bits;
    if (trace_ != nullptr) trace_->record(steps_, e.from, e.to, bits);
  }
  NAB_ASSERT(std::isfinite(duration), "step duration tau must be finite");
  std::fill(step_bits_.begin(), step_bits_.end(), 0);
  elapsed_ += duration;
  ++steps_;
  return duration;
}

}  // namespace nab::sim
