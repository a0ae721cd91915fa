#include "runtime/runner.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>

#include "core/omega_cache.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "runtime/hunt.hpp"
#include "sim/link_faults.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"

namespace nab::runtime {

namespace {

/// Picks the run's corrupt set: f distinct nodes, drawn deterministically
/// from the run rng. Equivocation only bites when the source is corrupt, so
/// that strategy pins the source into the set (as may a hunted genome via
/// its corrupt_source gene); every other strategy keeps the source honest so
/// validity stays a falsifiable invariant.
std::vector<graph::node_id> pick_corrupt(const scenario& s, int n, rng& rand,
                                         bool pin_source) {
  std::vector<graph::node_id> corrupt;
  if (s.f == 0) return corrupt;
  if (pin_source) corrupt.push_back(s.source);
  std::vector<graph::node_id> pool;
  for (graph::node_id v = 0; v < n; ++v)
    if (v != s.source) pool.push_back(v);
  while (corrupt.size() < static_cast<std::size_t>(s.f) && !pool.empty()) {
    const std::size_t i = rand.below(pool.size());
    corrupt.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  std::sort(corrupt.begin(), corrupt.end());
  return corrupt;
}

/// Builds a topology satisfying NAB's preconditions (n >= 3f+1,
/// connectivity >= 2f+1). Deterministic generators must satisfy them
/// outright (a preset bug otherwise); random generators get up to 32
/// reseeded attempts — attempt count feeds the derivation, not the clock,
/// so the result is still a pure function of the run seed.
graph::digraph build_valid_topology(const scenario& s, std::uint64_t run_seed) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    rng topo_rand(splitmix64(run_seed ^ static_cast<std::uint64_t>(attempt)));
    graph::digraph g = build_topology(s.topology, topo_rand);
    const int n = g.universe();
    if (n >= 3 * s.f + 1 &&
        (s.f == 0 ||
         core::omega_cache::instance().connectivity_at_least(g, 2 * s.f + 1)))
      return g;
    const bool randomized = s.topology.kind == topology_kind::erdos_renyi ||
                            s.topology.kind == topology_kind::random_regular;
    if (!randomized)
      throw error("scenario '" + s.name + "': topology cannot support f=" +
                  std::to_string(s.f) + " (needs n >= 3f+1, connectivity >= 2f+1)");
  }
  throw error("scenario '" + s.name +
              "': no feasible random topology in 32 attempts");
}

}  // namespace

run_record execute_scenario(const scenario& s, int run_index,
                            std::uint64_t sweep_seed, bool capture_trace,
                            bool capture_spans) {
  const std::uint64_t run_seed =
      derive_run_seed(sweep_seed, static_cast<std::uint64_t>(run_index));

  run_record rec;
  rec.run_index = run_index;
  rec.scenario = s.name;
  rec.family = s.family;
  rec.seed = run_seed;
  rec.topology = to_string(s.topology.kind);
  rec.f = s.f;
  rec.adversary = to_string(s.adversary);
  rec.propagation = to_string(s.propagation);
  rec.flag_protocol = to_string(s.flag_protocol);
  rec.claim_backend = to_string(s.claim_backend);
  rec.instances = s.instances;
  rec.words = s.words;
  rec.loss = s.loss;

  // Link-fault model: built per run (its chains are run state), seeded from
  // the run seed under its own salt, and installed ambiently so every
  // network the session constructs on this thread picks it up — drops are a
  // pure function of (seed, link, transmission index), bit-identical for
  // any --jobs. "none" attaches nothing; "zero" attaches an inert model
  // (the byte-identity guard).
  std::optional<sim::link_fault_model> fault_model;
  std::optional<sim::scoped_link_faults> fault_scope;
  if (s.loss != "none") {
    fault_model.emplace(sim::parse_loss_spec(s.loss),
                        splitmix64(run_seed ^ 0x1055eedULL));
    fault_scope.emplace(&*fault_model);
  }

  // The trace is thread-confined (this run only) and reduced into the
  // record's traffic matrix before return; every sim::network the session
  // constructs on this thread attaches it automatically.
  sim::trace run_trace;
  std::optional<sim::scoped_ambient_trace> trace_scope;
  if (capture_trace) trace_scope.emplace(&run_trace);
  const auto reduce_trace = [&](int universe) {
    if (!capture_trace) return;
    rec.traffic.assign(static_cast<std::size_t>(universe) * universe, 0);
    for (const sim::trace_event& e : run_trace.events())
      rec.traffic[static_cast<std::size_t>(e.from) * universe + e.to] += e.bits;
  };

  // Per-run observability collector, thread-confined like the trace. Every
  // run counts (the instrumentation is a TLS load + add per call site); the
  // span list is only retained when the caller asked for a timeline.
  obs::collector col;
  obs::scoped_collector col_scope(&col);
  const auto harvest_obs = [&] {
    for (const obs::counter_row& row : obs::counter_table) {
      auto& values = row.set == obs::counter_set::machine ? rec.timing.counters
                                                          : rec.counters;
      values[row.id] = col.value(row.id);
    }
    rec.margin_quorum_slack = col.gauge_value(obs::gauge::quorum_slack);
    rec.margin_hold_surplus = col.gauge_value(obs::gauge::hold_surplus);
    rec.margin_retry_headroom = col.gauge_value(obs::gauge::retry_headroom);
    rec.timing.wall_by_phase = wall_by_phase_of(col.spans());
    if (capture_spans) rec.timing.spans = col.spans();
  };

  graph::digraph g = build_valid_topology(s, run_seed);
  rec.nodes = g.universe();

  // Pipelined propagation executes the Appendix-D schedule instead of the
  // general session driver: fault-free by construction (run_pipelined
  // aborts on any mismatch flag), so the corrupt set stays empty and the
  // dispute-side invariants hold vacuously. A non-honest adversary axis
  // would be silently ignored here — reject it so a sweep can never claim
  // to have exercised an adversary that never ran.
  if (s.propagation == core::propagation_mode::pipelined) {
    if (s.adversary != adversary_kind::honest)
      throw error("scenario '" + s.name +
                  "': pipelined propagation is fault-free (Appendix D) and "
                  "cannot carry adversary '" + to_string(s.adversary) + "'");
    // The Appendix-D schedule has no ARQ machinery: a perturbing fault
    // model would silently null honest chunks. An inert spec ("zero") is
    // allowed — it is exactly the guard that the attached hook changes
    // nothing.
    if (fault_model && !fault_model->params().inert())
      throw error("scenario '" + s.name +
                  "': pipelined propagation cannot run over lossy links "
                  "(loss spec '" + s.loss + "')");
    core::pipeline_config cfg;
    cfg.g = std::move(g);
    cfg.f = s.f;
    cfg.source = s.source;
    cfg.coding_seed = splitmix64(run_seed ^ 0x5eedULL);
    rng inputs(splitmix64(run_seed ^ 0x1235813ULL));
    const core::pipeline_stats stats =
        core::run_pipelined(cfg, s.instances, s.words, inputs);
    rec.gamma = stats.gamma;
    rec.rho = stats.rho;
    rec.sim_elapsed = stats.elapsed;
    rec.bits_broadcast = stats.bits;
    rec.throughput = stats.throughput();
    rec.tau_mean = stats.instances > 0
                       ? stats.elapsed / static_cast<double>(stats.instances)
                       : 0.0;
    rec.pipeline_depth = stats.depth;
    rec.pipeline_speedup = stats.speedup();
    rec.agreement = stats.all_agreed;
    rec.validity = stats.all_valid;
    reduce_trace(rec.nodes);
    harvest_obs();
    return rec;
  }

  // Hunted scenarios carry a serialized genome whose corrupt-set genes
  // (corrupt_source, corrupt_salt) fully determine the pick below — the
  // corrupt set is part of the searched strategy space, and deliberately
  // NOT mixed with the run seed: a hunted genome's invariant margins are a
  // pure function of (scenario, genome), so a promoted corpus entry records
  // the same margins at every sweep seed and run index. Hand-written
  // adversaries keep the seed-derived pick (coverage across instances).
  std::optional<hunt_genome> genome;
  if (s.adversary == adversary_kind::hunted)
    genome = hunt_genome::from_params(s.genome);

  rng pick_rand(genome
                    ? splitmix64(0xc0ffeeULL ^ splitmix64(static_cast<std::uint64_t>(
                                                   genome->corrupt_salt)))
                    : splitmix64(run_seed ^ 0xc0ffeeULL));
  const bool pin_source = s.adversary == adversary_kind::equivocate ||
                          (genome && genome->corrupt_source != 0);
  const std::vector<graph::node_id> corrupt =
      pick_corrupt(s, g.universe(), pick_rand, pin_source);
  rec.corrupt.assign(corrupt.begin(), corrupt.end());
  sim::fault_set faults(g.universe(), corrupt);

  // Minority victim for the equivocating source: the lowest non-source node.
  graph::node_id minority = s.source == 0 ? 1 : 0;
  const auto adv = make_adversary(s.adversary, splitmix64(run_seed ^ 0xadbeefULL),
                                  minority, s.genome);

  core::session_config cfg;
  cfg.g = g;
  cfg.f = s.f;
  cfg.source = s.source;
  cfg.coding_seed = splitmix64(run_seed ^ 0x5eedULL);
  cfg.propagation = s.propagation;
  cfg.flag_protocol = s.flag_protocol;
  cfg.claim_backend = s.claim_backend;
  cfg.certify_cost_limit = s.certify_cost_limit;
  cfg.pool_memory = s.pool_memory;

  // One run arena per executor shard (thread-confined, reused across every
  // run the shard executes): the steady-state sweep allocates nothing — each
  // session resets the arena between instances and leaves it empty. Arena
  // use never affects results (only their cost), so the jobs-1-vs-N
  // bit-identity contract is untouched.
  static thread_local sim::run_arena shard_arena;

  const core::session_run run = core::run_session(
      std::move(cfg), faults, adv.get(), s.instances, s.words,
      splitmix64(run_seed ^ 0x1235813ULL), s.rotate_sources, &shard_arena);

  // --- measured outcomes ---
  if (!run.reports.empty()) {
    rec.gamma = run.reports.front().gamma;
    rec.rho = run.reports.front().rho;
  }
  rec.sim_elapsed = run.stats.elapsed;
  rec.bits_broadcast = run.stats.bits_broadcast;
  rec.throughput = run.stats.throughput();
  rec.dispute_phases = run.stats.dispute_phases;
  rec.dc1_claim_bits = run.stats.claim_bits;
  rec.disputes = static_cast<int>(run.disputes.pairs().size());
  rec.convictions = static_cast<int>(run.disputes.convicted().size());
  double tau_total = 0.0;
  for (const core::instance_report& r : run.reports) {
    tau_total += r.total_time();
    if (r.mismatch_announced) ++rec.mismatch_instances;
    if (r.phase1_only) ++rec.phase1_only_instances;
    if (r.default_outcome) ++rec.default_outcome_instances;
    rec.agreement = rec.agreement && r.agreement;
    rec.validity = rec.validity && r.validity;
  }
  rec.tau_mean = run.reports.empty()
                     ? 0.0
                     : tau_total / static_cast<double>(run.reports.size());

  // --- paper invariants (dispute soundness, conviction soundness, bound) ---
  for (const auto& [a, b] : run.disputes.pairs())
    if (faults.is_honest(a) && faults.is_honest(b)) rec.dispute_sound = false;
  for (graph::node_id v : run.disputes.convicted())
    if (faults.is_honest(v)) rec.conviction_sound = false;
  // The paper's f(f+1) bound counts dispute phases that *discover* evidence
  // (each either finds a new dispute or convicts). Erasures can trip the
  // mismatch flag without any Byzantine evidence to find, so on lossy runs
  // barren phases (no new disputes, no new convictions) are excluded from
  // the bound — the clean computation is kept bit-for-bit otherwise (a
  // chaos adversary can produce barren phases too, and those records must
  // not move).
  int effective_phases = rec.dispute_phases;
  if (s.loss != "none") {
    for (const core::instance_report& r : run.reports)
      if (r.dispute_phase_run && r.new_disputes.empty() && r.newly_convicted.empty())
        --effective_phases;
  }
  rec.dispute_bound = effective_phases <= s.f * (s.f + 1);
  // Dispute-bound headroom is runtime knowledge (the session does not know
  // the paper's f(f+1) budget is the scoring baseline). Like the quorum
  // gauges, it keeps the -1 "never exercised" sentinel on clean runs — an
  // honest run is not "full headroom", it never entered the machinery.
  if (effective_phases > 0)
    rec.margin_dispute_headroom =
        static_cast<std::int64_t>(s.f) * (s.f + 1) - effective_phases;

  reduce_trace(rec.nodes);
  harvest_obs();
  return rec;
}

std::vector<run_record> run_sweep(
    const std::vector<scenario>& sweep, std::uint64_t sweep_seed, int jobs,
    const std::function<void(const run_record&)>& on_done,
    std::vector<double>* run_wall_seconds, bool capture_traces,
    bool capture_spans) {
  std::vector<run_record> records(sweep.size());
  if (run_wall_seconds != nullptr) run_wall_seconds->assign(sweep.size(), 0.0);
  // Let cache fills fan out their per-sink/per-source inner loops up to the
  // sweep's own worker budget (results are worker-count-invariant).
  core::omega_cache::instance().set_fill_parallelism(jobs);
  std::mutex done_mu;
  parallel_for_each_index(jobs, sweep.size(), [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    records[i] = execute_scenario(sweep[i], static_cast<int>(i), sweep_seed,
                                  capture_traces, capture_spans);
    if (run_wall_seconds != nullptr)
      (*run_wall_seconds)[i] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    if (on_done) {
      std::lock_guard<std::mutex> lock(done_mu);
      on_done(records[i]);
    }
  });
  return records;
}

}  // namespace nab::runtime
