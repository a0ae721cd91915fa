#pragma once

#include <set>

#include "core/adversary.hpp"
#include "util/rng.hpp"

namespace nab::core {

/// Corrupt relays flip words of every chunk they forward in Phase 1 —
/// Phase-1 outcome (ii)/(iv) of Section 2. Detection is then up to the
/// Equality Check.
class phase1_corruptor : public nab_adversary {
 public:
  /// When `only_to` >= 0 the attack targets a single victim (hardest case
  /// for detection: exactly one fault-free node holds a different value).
  explicit phase1_corruptor(graph::node_id only_to = -1) : only_to_(only_to) {}

  chunk phase1_forward_chunk(int, graph::node_id, graph::node_id to,
                             const chunk& honest) override;
  chunk phase1_source_chunk(int, graph::node_id to, const chunk& honest) override;

 private:
  graph::node_id only_to_;
};

/// A corrupt *source* that equivocates: children in the "minority" set get a
/// complemented value. Exercises Phase-1 outcome (iv).
class equivocating_source : public nab_adversary {
 public:
  explicit equivocating_source(std::set<graph::node_id> minority)
      : minority_(std::move(minority)) {}

  chunk phase1_source_chunk(int, graph::node_id to, const chunk& honest) override;

 private:
  std::set<graph::node_id> minority_;
};

/// Corrupt nodes send garbage coded symbols during the Equality Check while
/// having behaved in Phase 1 — misbehavior confined to Phase 2, which the
/// paper's DC3 replay must attribute correctly.
class phase2_liar : public nab_adversary {
 public:
  explicit phase2_liar(std::uint64_t seed = 7) : rand_(seed) {}

  coded_symbols phase2_coded(graph::node_id, graph::node_id,
                             const coded_symbols& honest) override;

 private:
  rng rand_;
};

/// Corrupt nodes announce MISMATCH although everything checked out, forcing
/// a pointless (for them: self-incriminating) dispute-control round.
class false_flagger : public nab_adversary {
 public:
  bool phase2_flag(graph::node_id, bool) override { return true; }
};

/// Corrupt nodes lie in Phase 3 about what they received from a chosen
/// victim, manufacturing a dispute with an honest node.
class claim_forger : public nab_adversary {
 public:
  explicit claim_forger(graph::node_id victim) : victim_(victim) {}

  node_claims phase3_claims(graph::node_id v, const node_claims& honest) override;

 private:
  graph::node_id victim_;
};

/// The dispute-farming workload (`dispute_farm`, run by the registry's
/// complete-f2 family): in every instance, each corrupt node corrupts
/// Phase-1 forwards to one victim it still shares an edge with, maximizing
/// the number of dispute-control rounds before the adversary runs out of
/// edges (at most f(f+1) rounds, per the paper).
class dispute_farmer : public nab_adversary {
 public:
  chunk phase1_forward_chunk(int tree, graph::node_id from, graph::node_id to,
                             const chunk& honest) override;
};

/// The strongest dispute-stretching adversary the model allows: each corrupt
/// node lies on exactly ONE Equality-Check edge per instance (toward a fresh
/// victim), then claims in Phase 3 to have sent the *correct* symbols. The
/// resulting evidence is a single new disputing pair per corrupt node per
/// instance and no immediate conviction — the slowest possible progress, and
/// the workload that realizes the paper's f(f+1) dispute-control bound.
class stealth_disputer : public nab_adversary {
 public:
  void on_instance_begin(int instance_index, const graph::digraph& gk) override;
  coded_symbols phase2_coded(graph::node_id u, graph::node_id v,
                             const coded_symbols& honest) override;
  node_claims phase3_claims(graph::node_id v, const node_claims& honest) override;

 private:
  std::set<std::pair<graph::node_id, graph::node_id>> burned_;   // pairs already used
  std::map<graph::node_id, graph::node_id> victim_;              // per corrupt node, this instance
  std::map<std::pair<graph::node_id, graph::node_id>, coded_symbols> honest_sent_;
  const graph::digraph* gk_ = nullptr;
};

/// Routes each corrupt node's behavior to its own delegate strategy, so
/// colluders can attack through different phases simultaneously (the model
/// allows arbitrary heterogeneous behavior).
class composite_adversary : public nab_adversary {
 public:
  /// `delegate` keeps a non-owning pointer; callers keep strategies alive.
  void assign(graph::node_id node, nab_adversary* delegate);

  void on_instance_begin(int instance_index, const graph::digraph& gk) override;
  chunk phase1_source_chunk(int tree, graph::node_id to, const chunk& honest) override;
  chunk phase1_forward_chunk(int tree, graph::node_id from, graph::node_id to,
                             const chunk& honest) override;
  coded_symbols phase2_coded(graph::node_id u, graph::node_id v,
                             const coded_symbols& honest) override;
  bool phase2_flag(graph::node_id v, bool honest) override;
  node_claims phase3_claims(graph::node_id v, const node_claims& honest) override;

 private:
  std::map<graph::node_id, nab_adversary*> delegates_;
  graph::node_id source_ = 0;  // phase1_source_chunk has no node argument
 public:
  /// The source id, needed to route phase1_source_chunk. Defaults to 0.
  void set_source(graph::node_id s) { source_ = s; }
};

/// Seeded fuzzing adversary: every hook independently decides (with the
/// given probability) to emit garbage instead of the honest message —
/// phase-1 chunks, coded symbols, flags, and claim entries alike. Used by
/// the property-test sweeps: whatever this does, agreement/validity and the
/// dispute-soundness invariants must survive.
class chaos_adversary : public nab_adversary {
 public:
  explicit chaos_adversary(std::uint64_t seed, double p = 0.3)
      : rand_(seed), p_(p) {}

  chunk phase1_source_chunk(int tree, graph::node_id to, const chunk& honest) override;
  chunk phase1_forward_chunk(int tree, graph::node_id from, graph::node_id to,
                             const chunk& honest) override;
  coded_symbols phase2_coded(graph::node_id u, graph::node_id v,
                             const coded_symbols& honest) override;
  bool phase2_flag(graph::node_id v, bool honest) override;
  node_claims phase3_claims(graph::node_id v, const node_claims& honest) override;

 private:
  rng rand_;
  double p_;
};

}  // namespace nab::core
