#pragma once

#include <functional>
#include <vector>

#include "runtime/metrics.hpp"
#include "runtime/scenario.hpp"

namespace nab::runtime {

/// Executes one concrete scenario end to end on the calling thread: derives
/// the run seed from (sweep_seed, run_index), materializes the topology
/// (reseeding random generators until NAB's preconditions hold), picks the
/// corrupt set (unless scenario::corrupt names it), instantiates the
/// adversary, runs the session via core::run_session, and evaluates every
/// paper invariant into the record.
/// A pure function of its arguments — the determinism contract rests on it.
/// `capture_trace` attaches a per-run ambient traffic trace
/// (sim::scoped_ambient_trace, thread-confined) and reduces it into
/// run_record::traffic; traced bits are workload-determined, so records stay
/// comparable across thread counts.
///
/// Every run executes under a per-run obs::collector (same thread-confined
/// ambient pattern): the deterministic counters and margin gauges land in
/// the record proper, the machine-set data in run_record::timing.
/// `capture_spans` additionally keeps the raw span list (fleet --timeline);
/// phase wall totals are recorded either way.
run_record execute_scenario(const scenario& s, int run_index,
                            std::uint64_t sweep_seed,
                            bool capture_trace = false,
                            bool capture_spans = false);

/// Fans the sweep out over `jobs` workers (see util/parallel.hpp). Results
/// are indexed by sweep position, so the output is identical for every
/// `jobs` value. `on_done`, when set, is invoked from worker threads under an
/// internal lock, in completion (not sweep) order — display only.
/// `run_wall_seconds`, when set, receives each run's wall-clock duration by
/// sweep position (machine- and contention-dependent — excluded from the
/// determinism contract; fleet aggregates it into wall_seconds_by_family).
std::vector<run_record> run_sweep(
    const std::vector<scenario>& sweep, std::uint64_t sweep_seed, int jobs,
    const std::function<void(const run_record&)>& on_done = {},
    std::vector<double>* run_wall_seconds = nullptr,
    bool capture_traces = false, bool capture_spans = false);

}  // namespace nab::runtime
