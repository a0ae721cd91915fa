#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scenario.hpp"

/// Argument parsing for the `fleet` driver (examples/fleet.cpp), extracted
/// into the library so the parse paths are unit-testable: unknown flags are
/// rejected with an error naming the flag (a typo like `--sced` must never
/// silently run the default sweep), numeric flags parse strictly (atoll
/// would turn "1e5" into 1 and stamp the wrong seed into
/// BENCH_runtime.json), and every failure is a thrown nab::error the driver
/// turns into a usage message — never a silent fallback.

namespace nab::runtime {

/// Everything the fleet CLI can configure. One struct for every mode; the
/// parser rejects any other flag with `list`, a hunt-only flag without
/// `hunt` and a sweep-only flag (--scenario, --json, --trace, --timeline,
/// --loss) with it.
struct fleet_options {
  bool list = false;           ///< --list: print the preset catalog and exit
  std::string scenarios = "all";
  int jobs = 1;
  std::uint64_t seed = 1;
  std::string json_path = "BENCH_runtime.json";
  std::string trace_path;      ///< --trace FILE (empty = no traffic capture)
  std::string timeline_path;   ///< --timeline FILE (empty = no span capture)
  /// --loss SPEC: overrides every selected scenario's link-fault axis (a
  /// sim::parse_loss_spec preset name or p_good,p_bad,p_g2b,p_b2g tuple;
  /// "none" strips loss). Empty = keep each scenario's own loss value.
  /// Validated at parse time — unknown/malformed specs are rejected by name.
  std::string loss;
  bool quiet = false;

  // --- fleet --topology: one run (runtime::topology_file_scenario) in place
  // of the sweep; the other three flags need it, --scenario/--hunt refuse it.
  std::string topology_path;   ///< --topology FILE (empty = registry sweep)
  int f = 1;                   ///< --f: fault budget
  adversary_kind adversary = adversary_kind::honest;  ///< --adversary KIND
  /// --corrupt A,B: explicit corrupt ids (empty = the runner's seeded draw).
  std::vector<graph::node_id> corrupt;

  // --- fleet --hunt: coverage-guided adversary search (runtime/hunt.hpp) ---
  bool hunt = false;
  /// Families whose (topology, f) pairs become hunt contexts. Deliberately
  /// NOT --scenario: a hunt wants the small fault-tolerant presets, not
  /// "all" with its n = 64 perf scaling points.
  std::string hunt_families = "complete-f2,ablation-claims";
  int budget = 2000;           ///< --budget: total hunt evaluations
  int population = 12;         ///< --population: genomes per generation
  std::uint64_t hunt_words = 16;
  int hunt_instances = 0;      ///< 0 = each family's default
  std::string corpus_path = "HUNT_corpus.json";  ///< "-" = don't write

  bool operator==(const fleet_options&) const = default;
};

/// The usage text the driver prints on a parse error.
std::string fleet_usage();

/// Parses fleet arguments (argv[1..], shell-split). Throws nab::error on an
/// unknown flag (naming it), a flag missing its value, a malformed number or
/// name, any other flag with --list, an ad-hoc flag outside its --topology
/// mode, or a sweep or hunt flag outside its mode (naming it); never exits
/// and never silently ignores input.
fleet_options parse_fleet_args(const std::vector<std::string>& args);

/// Strict non-negative integer parse for flag values (fleet, capacity_planner
/// and replicated_log).
/// Throws nab::error (naming `flag`) on empty input, sign, trailing junk, or
/// overflow.
std::uint64_t parse_u64_flag(const std::string& flag, const std::string& text);

/// parse_u64_flag, additionally bounded to [0, 1'000'000].
int parse_int_flag(const std::string& flag, const std::string& text);

}  // namespace nab::runtime
