#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/json.hpp"

namespace nab::runtime {

/// Machine-set observability data riding along with a run_record: wall-clock
/// per phase, the scheduling-dependent cache/arena counters, and — when the
/// sweep ran with timeline capture — the raw span list. Everything in here
/// describes the machine and the jobs count, not the workload, so
/// `operator==` deliberately always returns true: the defaulted run_record
/// equality (the `--jobs 1` vs `--jobs N` determinism contract) compares
/// records as if this struct did not exist, the same way wall_seconds lives
/// outside the records entirely.
struct run_timing {
  /// Summed wall seconds of the run's depth-1 phase spans, keyed by span
  /// name and sorted (phase1, equality_check, flags, phase3, refresh_graph,
  /// plus any omega_cache fill the run happened to pay).
  std::vector<std::pair<std::string, double>> wall_by_phase;
  /// The machine-set obs counters (cache hits/misses, the arena pair),
  /// indexed by obs::counter; deterministic entries stay 0 here.
  obs::counter_values counters;
  /// Full span list (nesting via parent/depth); captured only under
  /// fleet --timeline, empty otherwise.
  std::vector<obs::span_record> spans;

  bool operator==(const run_timing&) const { return true; }
};

/// Everything measured about one fleet run (one scenario executed end to
/// end: a full session of `instances` NAB instances). Plain data; equality
/// ignores nothing — wall-clock time is kept OUT of this struct (see
/// run_timing) so records are comparable across thread counts, and is
/// reported separately.
struct run_record {
  int run_index = 0;              ///< position in the expanded sweep
  std::string scenario;           ///< concrete scenario name (unique per sweep)
  std::string family;             ///< registry preset this expanded from
  std::uint64_t seed = 0;         ///< derived per-run seed actually used

  // Configuration echo (what was run, for offline analysis).
  std::string topology;
  int nodes = 0;
  int f = 0;
  std::string adversary;
  std::string propagation;
  std::string flag_protocol;
  std::string claim_backend;      ///< Phase-3 DC1 claim-dissemination engine
  std::string loss = "none";      ///< link-fault spec ("none" = perfect links)
  int instances = 0;
  std::uint64_t words = 0;
  std::vector<int> corrupt;       ///< corrupt node ids chosen for this run

  // Paper quantities of the first instance (G_1).
  std::int64_t gamma = 0;
  std::int64_t rho = 0;

  // Measured outcomes over the whole session.
  double sim_elapsed = 0.0;       ///< simulated time units
  std::uint64_t bits_broadcast = 0;
  double throughput = 0.0;        ///< bits / simulated time
  double tau_mean = 0.0;          ///< mean simulated duration per instance
  int dispute_phases = 0;
  int disputes = 0;               ///< distinct disputing pairs at session end
  int convictions = 0;
  int mismatch_instances = 0;
  int phase1_only_instances = 0;
  int default_outcome_instances = 0;
  /// Wire bits DC1's claim dissemination consumed across the session (0
  /// when no dispute phase ran) — the per-backend accounting the
  /// Theta(n^f) -> polynomial claim-traffic claim is asserted against.
  std::uint64_t dc1_claim_bits = 0;

  /// Deterministic obs counters (src/obs), indexed by obs::counter: pure
  /// functions of the workload, bit-identical across --jobs counts and
  /// pooled/unpooled sessions, so they sit inside the defaulted operator==
  /// and the determinism contract covers them. Machine-set entries stay 0
  /// here; their values live in timing.counters.
  obs::counter_values counters;

  /// Invariant-margin gauges (src/obs), indexed by obs::gauge: minimum over
  /// the run, obs::gauge_unset (-1) when never exercised. How much headroom
  /// the run kept before a quorum rule, the paper's dispute bound or an ARQ
  /// retry budget would have failed — the hunt's scoring signal.
  obs::gauge_values gauges;

  /// Machine-set timing data (excluded from operator== — see run_timing).
  run_timing timing;

  /// Per-link traffic matrix (universe x universe, row-major bits), filled
  /// only when the sweep ran with trace capture (fleet --trace); empty
  /// otherwise so BENCH_runtime.json stays byte-stable.
  std::vector<std::uint64_t> traffic;

  // Pipelined-propagation runs only (0 otherwise): Appendix-D pipe depth
  // and the measured pipelined-vs-sequential speedup.
  int pipeline_depth = 0;
  double pipeline_speedup = 0.0;

  // Paper invariants, asserted per run.
  bool agreement = true;          ///< all instances: honest outputs identical
  bool validity = true;           ///< all instances: honest source ==> input
  bool dispute_sound = true;      ///< every disputing pair touches a corrupt node
  bool conviction_sound = true;   ///< only corrupt nodes convicted
  bool dispute_bound = true;      ///< <= f(f+1) dispute-control executions

  bool ok() const {
    return agreement && validity && dispute_sound && conviction_sound && dispute_bound;
  }

  bool operator==(const run_record&) const = default;

  /// Counters are keyed by their obs names, the deterministic set preceded
  /// by gf_ops (obs::gf_ops — the headline sum the CI perf smoke asserts
  /// nonzero on certified runs). `include_timing` adds the run_timing
  /// fields (wall_seconds_by_phase and the machine counters) — the same keys
  /// the determinism CI strips, named with the wall_seconds prefix so one
  /// strip rule covers both layers.
  json to_json(bool include_timing = false) const;
};

/// Sweep-level aggregates, derived from the records.
struct sweep_summary {
  int runs = 0;
  int failed_runs = 0;            ///< runs with any invariant violated
  int total_instances = 0;
  int total_dispute_phases = 0;
  double min_throughput = 0.0;
  double mean_throughput = 0.0;
  double max_throughput = 0.0;
};

sweep_summary summarize(const std::vector<run_record>& records);

/// The canonical BENCH_runtime.json document: metadata + per-run records +
/// aggregate summary. Deterministic for fixed records; `wall_seconds` < 0
/// omits every wall-clock field (used by the determinism test).
/// `family_wall_seconds`, when non-null and wall_seconds >= 0, adds a
/// "wall_seconds_by_family" section (family name -> summed wall of its
/// runs) — the per-preset perf trajectory the ROADMAP tracks. Like
/// wall_seconds it describes the machine and jobs count, not the workload.
json sweep_document(const std::string& sweep_name, std::uint64_t base_seed, int jobs,
                    const std::vector<run_record>& records, double wall_seconds,
                    const std::map<std::string, double>* family_wall_seconds = nullptr);

/// The fleet --trace document: per-run sparse traffic matrices (one entry
/// per link that carried bits) from records captured with ambient traces.
/// Runs without traffic data are skipped. Deterministic for fixed records.
json trace_document(const std::string& sweep_name, std::uint64_t base_seed,
                    const std::vector<run_record>& records);

/// The fleet --timeline document: every captured span of every run as a
/// Chrome-trace / Perfetto "traceEvents" JSON (complete "X" events, ts/dur
/// in microseconds of wall time, one pid per run so runs render as separate
/// processes; sim-time bounds and span depth travel in args). Load with
/// chrome://tracing or https://ui.perfetto.dev. Runs captured without spans
/// are skipped.
json timeline_document(const std::string& sweep_name, std::uint64_t base_seed,
                       const std::vector<run_record>& records);

/// Aggregates each record's depth-1 spans into (phase name -> summed wall
/// seconds), sorted by name — the run_timing::wall_by_phase shape. Exposed
/// for the runner and tests.
std::vector<std::pair<std::string, double>> wall_by_phase_of(
    const std::vector<obs::span_record>& spans);

}  // namespace nab::runtime
