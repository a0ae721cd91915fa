#pragma once

/// Umbrella header for the parallel scenario runtime: declarative scenario
/// registry (scenario.hpp), work-stealing sharded executor (executor.hpp),
/// per-run execution with invariant checking (runner.hpp), the JSON metrics
/// sink (metrics.hpp) over the one JSON writer/reader (json.hpp), the
/// coverage-guided adversary search (hunt.hpp), and the fleet CLI parser
/// (fleet_cli.hpp).
///
/// Quick start:
///   #include "runtime/runtime.hpp"
///   auto sweep = nab::runtime::select_scenarios("all");
///   auto records = nab::runtime::run_sweep(sweep, /*seed=*/1, /*jobs=*/8);
///   nab::runtime::write_json_file(
///       "BENCH_runtime.json",
///       nab::runtime::sweep_document("all", 1, 8, records, wall_seconds));
///
/// Contract: `records` is bit-identical for every `jobs` value — every shard
/// owns its session/network/rng and every seed derives from (sweep seed, run
/// index) by splitmix64, never from scheduling.

#include "runtime/executor.hpp"
#include "runtime/fleet_cli.hpp"
#include "runtime/hunt.hpp"
#include "runtime/json.hpp"
#include "runtime/metrics.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
