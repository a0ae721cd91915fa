#include "core/equality_check.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace nab::core {

namespace {

/// For every active node v, the first active node whose value equals v's
/// word for word (-1 for inactive nodes). Each value is compared with the
/// first member of each class seen so far, so an instance whose nodes all
/// hold one value costs n - 1 compares.
sim::pooled_vector<graph::node_id> value_classes(const graph::digraph& g,
                                                 const std::vector<value_vector>& values) {
  sim::pooled_vector<graph::node_id> class_of(static_cast<std::size_t>(g.universe()), -1);
  sim::pooled_vector<graph::node_id> firsts;
  for (graph::node_id v : g.active_nodes()) {
    const value_vector& x = values[static_cast<std::size_t>(v)];
    const auto it = std::find_if(firsts.begin(), firsts.end(), [&](graph::node_id u) {
      return values[static_cast<std::size_t>(u)] == x;
    });
    const graph::node_id cls = it != firsts.end() ? *it : v;
    if (cls == v) firsts.push_back(v);
    class_of[static_cast<std::size_t>(v)] = cls;
  }
  return class_of;
}

}  // namespace

equality_check_result run_equality_check(sim::network& net, const graph::digraph& g,
                                         const sim::fault_set& faults,
                                         const coding_scheme& coding,
                                         const std::vector<value_vector>& values,
                                         nab_adversary* adv) {
  const int universe = g.universe();
  NAB_ASSERT(values.size() >= static_cast<std::size_t>(universe),
             "values must cover the node universe");

  equality_check_result result;
  result.flags.assign(static_cast<std::size_t>(universe), false);
  result.truth.assign(static_cast<std::size_t>(universe), node_claims{});
  const double t0 = net.elapsed();

  // Step 1: one coded transmission per directed edge.
  // actual[(u,v)] lives in the receiver's truth record after the step.
  // Step 2 needs each edge's honest encoding: what its sender sent, except
  // where a corrupt sender tampered, whose own encodings are kept here.
  claim_map<std::pair<graph::node_id, graph::node_id>, coded_symbols> untampered;
  for (const graph::edge& e : g.edges()) {
    const value_vector& x = values[static_cast<std::size_t>(e.from)];
    coded_symbols sent = coding.encode(x, e.from, e.to);
    if (faults.is_corrupt(e.from) && adv != nullptr) {
      coded_symbols honest = std::move(sent);
      {
        // Pooling suspended across the hook: strategies may stash state that
        // outlives the instance (stealth_disputer records honest symbols).
        sim::scoped_run_arena suspend_pooling(nullptr);
        sent = adv->phase2_coded(e.from, e.to, honest);
      }
      NAB_ASSERT(sent.count == honest.count && sent.slices == honest.slices,
                 "adversary must respect the wire format of coded symbols");
      untampered.emplace(std::pair{e.from, e.to}, std::move(honest));
    }
    // ARQ under lossy links; a budget-exhausted edge leaves no receipt, so
    // the receiver simply skips that edge in step 2 (erasure, not evidence)
    // and dispute control sees a missing — not mismatching — claim.
    const bool delivered = net.lossy_transmit(e.from, e.to, sent.bits());
    result.truth[static_cast<std::size_t>(e.from)].p2_sent[{e.from, e.to}] = sent;
    if (delivered)
      result.truth[static_cast<std::size_t>(e.to)].p2_received[{e.from, e.to}] =
          std::move(sent);
  }
  net.end_step();

  // Step 2-3: each node verifies every incoming edge against its own value.
  // X_v = X_u implies X_v C_e = X_u C_e, so a receiver whose value equals its
  // sender's compares the receipt with the sender's honest encoding instead
  // of encoding again, and is charged the rho * slices words per coded
  // symbol that re-encoding presents.
  const auto class_of = value_classes(g, values);
  for (graph::node_id v : g.active_nodes()) {
    const value_vector& x = values[static_cast<std::size_t>(v)];
    bool mismatch = false;
    for (const auto& [key, received] : result.truth[static_cast<std::size_t>(v)].p2_received) {
      const graph::node_id u = key.first;
      bool ok = false;
      if (class_of[static_cast<std::size_t>(u)] == class_of[static_cast<std::size_t>(v)]) {
        const auto it = untampered.find(key);
        const coded_symbols& honest =
            it != untampered.end() ? it->second
                                   : result.truth[static_cast<std::size_t>(u)].p2_sent.at(key);
        obs::count(obs::counter::gf_axpy_words,
                   static_cast<std::uint64_t>(x.rho()) * x.slices() * honest.count);
        ok = received == honest;
      } else {
        ok = coding.check(x, u, v, received);
      }
      if (!ok) {
        mismatch = true;
        break;
      }
    }
    result.flags[static_cast<std::size_t>(v)] = mismatch;
  }

  result.time = net.elapsed() - t0;
  return result;
}

}  // namespace nab::core
