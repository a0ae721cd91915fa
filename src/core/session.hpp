#pragma once

#include <map>
#include <optional>
#include <vector>

#include "bb/broadcast.hpp"
#include "bb/channels.hpp"
#include "bb/claim_bcast.hpp"
#include "core/adversary.hpp"
#include "core/capacity.hpp"
#include "core/coding.hpp"
#include "core/dispute.hpp"
#include "core/equality_check.hpp"
#include "core/omega.hpp"
#include "core/omega_cache.hpp"
#include "core/phase1.hpp"
#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/run_arena.hpp"
#include "util/rng.hpp"

namespace nab::core {

/// Static configuration of a NAB session.
struct session_config {
  graph::digraph g;                  ///< the original network G = G_1
  int f = 1;                         ///< fault budget (f < n/3)
  graph::node_id source = 0;         ///< broadcasting node (the paper's node 1)
  /// Seed for the shared coding matrices. Every coding the session uses is
  /// certified against Theorem 1's condition; a failing draw is regenerated
  /// from the next seed.
  std::uint64_t coding_seed = 0x5eed;
  propagation_mode propagation = propagation_mode::cut_through;
  /// Classical-BB engine for the step-2.2 flag broadcast. auto_select uses
  /// phase-king when the participant count allows (> 4f), else EIG; the
  /// choice cannot affect asymptotic throughput (tests/paper pins the gap
  /// shrinking with L). Explicitly requesting phase_king on <= 4f
  /// participants is rejected at session construction (the auto_select
  /// boundary), not deep inside a run.
  bb::bb_protocol flag_protocol = bb::bb_protocol::eig;
  /// Claim-dissemination backend for Phase-3 DC1 (bb/claim_bcast.hpp): eig
  /// is the seed path and correctness oracle at Theta(n^f) * L claim
  /// traffic; collapsed drops DC1 to O(n^2 digest + disputes * L), which is
  /// what opens the n >= 64 presets. Dispute sets, convictions, and agreed
  /// values are byte-identical across backends.
  bb::claim_backend claim_backend = bb::claim_backend::eig;
  /// Pool per-instance protocol memory (transcripts, claim maps, payloads)
  /// in a run arena that resets between instances. Results are bit-identical
  /// either way — the switch exists for the arena-equivalence property tests
  /// and allocation-count baselines.
  bool pool_memory = true;
};

/// Everything observable about one NAB instance.
struct instance_report {
  int index = 0;
  int active_nodes = 0;
  graph::capacity_t gamma = 0;  ///< gamma_k used by Phase 1
  graph::capacity_t uk = 0;     ///< U_k of Omega_k
  graph::capacity_t rho = 0;    ///< rho_k = max(U_k/2, 1)
  bool default_outcome = false; ///< source excluded: agreed on the default value
  bool phase1_only = false;     ///< >= f nodes excluded: Phases 2-3 skipped
  bool mismatch_announced = false;
  bool dispute_phase_run = false;
  double time_phase1 = 0.0;
  double time_equality_check = 0.0;
  double time_flags = 0.0;
  double time_phase3 = 0.0;
  /// Wire bits DC1's claim dissemination consumed (0 when Phase 3 did not
  /// run).
  std::uint64_t claim_bits = 0;
  /// outputs[v] = words decided by node v (honest nodes meaningful).
  std::vector<std::vector<word>> outputs;
  bool agreement = true;  ///< all honest outputs identical
  bool validity = true;   ///< honest source ==> outputs == input
  std::vector<std::pair<graph::node_id, graph::node_id>> new_disputes;
  std::vector<graph::node_id> newly_convicted;

  double total_time() const {
    return time_phase1 + time_equality_check + time_flags + time_phase3;
  }
};

/// Aggregates across a run of Q instances.
struct session_stats {
  int instances = 0;
  int dispute_phases = 0;
  double elapsed = 0.0;
  std::uint64_t bits_broadcast = 0;
  /// Cumulative DC1 claim traffic (wire bits) across all dispute phases of
  /// the session.
  std::uint64_t claim_bits = 0;
  double throughput() const { return elapsed > 0 ? bits_broadcast / elapsed : 0.0; }
};

/// The NAB protocol driver: runs repeated Byzantine-broadcast instances on
/// an evolving instance graph G_k, exactly as Section 2 prescribes —
/// Phase 1 (tree broadcast at rate gamma_k), Phase 2 (equality check at
/// rate rho_k = U_k/2 plus 1-bit flag BB), Phase 3 (dispute control) only
/// when misbehavior was announced. Dispute evidence accumulates in a
/// dispute_record shared by all honest nodes; convicted nodes and disputed
/// edges leave the graph between instances.
///
/// The session owns the simulated clock: every transmitted bit of every
/// phase is accounted against the link capacities, so `stats().throughput()`
/// is a *measured* throughput directly comparable with the paper's
/// gamma* rho* / (gamma* + rho*) bound.
class session {
 public:
  /// `faults` fixes the corrupt nodes for the whole session (the paper's
  /// model); `adv` drives their behavior (nullptr = corrupt nodes behave
  /// honestly). Throws nab::error when n <= 3f or connectivity < 2f+1.
  ///
  /// Instances run in the calling thread's sim::thread_arena(), so
  /// consecutive sessions on a thread reuse the same pages. The session
  /// controls the arena's lifecycle while an instance runs: it is ambient
  /// exactly for the duration of each run_instance and is reset — empty —
  /// after it, so nothing allocated from it may outlive the instance that
  /// allocated it (instance reports copy into plain heap storage).
  session(session_config cfg, const sim::fault_set& faults,
          nab_adversary* adv = nullptr);

  /// Runs one instance broadcasting `input` (16-bit words; L = 16*|input|).
  /// `source_override` >= 0 broadcasts from that node instead of the
  /// configured source — repeated executions may rotate the broadcaster (a
  /// replicated state machine has every replica propose), sharing the
  /// accumulated dispute evidence and instance graph across all of them.
  instance_report run_instance(const std::vector<word>& input,
                               graph::node_id source_override = -1);

  /// Runs `q` instances with uniformly random inputs of `words_per_input`
  /// words each. `rotate_sources` cycles the broadcaster over the currently
  /// active nodes.
  std::vector<instance_report> run_many(int q, std::size_t words_per_input, rng& rand,
                                        bool rotate_sources = false);

  const graph::digraph& current_graph() const { return gk_; }
  const dispute_record& disputes() const { return record_; }
  const session_stats& stats() const { return stats_; }
  int instance_index() const { return stats_.instances; }

  /// gamma_k / rho_k that the *next* instance will use (for the configured
  /// source; gamma is source-dependent). gamma is 0 once the source is
  /// convicted, as in the default-outcome report its instances produce.
  graph::capacity_t next_gamma();
  graph::capacity_t next_rho();

 private:
  /// Re-analyses G_k after a dispute phase that found evidence (or at
  /// set-up): Omega_k, U_k, rho_k and the per-source plans. The coding is
  /// generated and certified only when rho_k differs from the rho it was
  /// certified for; otherwise the certified coding is kept, since it stays
  /// certified for every later Omega_k at the same rho.
  void refresh_graph_state();
  /// Per-source Phase-1 state (gamma_k and the arborescence packing depend
  /// on who broadcasts; U_k / rho_k / coding do not) — served from the
  /// process-wide omega_cache, shared read-only across sessions.
  const phase1_plan& source_state_for(graph::node_id source);
  bb::channel_plan& ensure_channels();  // lazy, built once over the original G

  session_config cfg_;
  sim::fault_set faults_;
  nab_adversary* adv_;
  graph::digraph gk_;
  dispute_record record_;
  session_stats stats_;

  // Cached per-G_k state. `analysis_` (Omega_k / U_k / rho_k) comes from the
  // omega_cache; uk_/rho_ mirror it for the hot accessors.
  bool dirty_ = true;
  std::shared_ptr<const omega_analysis> analysis_;
  graph::capacity_t uk_ = 0;
  graph::capacity_t rho_ = 0;
  coding_scheme coding_;
  graph::capacity_t certified_rho_ = 0;  ///< rho coding_ was certified for; 0 = none
  std::map<graph::node_id, std::shared_ptr<const phase1_plan>> per_source_;
  std::optional<bb::channel_plan> channels_;
  std::uint64_t coding_generation_ = 0;
};

/// Everything a one-shot session execution produces, by value.
struct session_run {
  std::vector<instance_report> reports;
  session_stats stats;
  dispute_record disputes;
  graph::digraph final_graph;  ///< G_k after the last instance
};

/// One-shot, re-entrant entry point: constructs a session from `cfg`, runs
/// `q` instances of `words_per_input` random words drawn from a private
/// rng(seed), and returns every observable by value. No global mutable state
/// is touched (the GF tables are immutable after first use), so concurrent
/// calls from different threads are safe as long as each call owns its
/// `faults`/`adv` arguments — this is the fleet runtime's shard body.
session_run run_session(session_config cfg, const sim::fault_set& faults,
                        nab_adversary* adv, int q, std::size_t words_per_input,
                        std::uint64_t seed, bool rotate_sources = false);

}  // namespace nab::core
