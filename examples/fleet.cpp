// fleet: the one session driver. Expands named scenario families from the
// runtime registry into a concrete sweep (or builds one ad-hoc scenario from
// a topology file), fans it out over parallel workers, asserts the
// paper's invariants (agreement, validity, dispute soundness) on every run,
// and writes the machine-readable metrics to BENCH_runtime.json.
//
// Usage:
//   fleet --list                         show the preset catalog and exit
//                                        (takes no other flag)
//   fleet [options]                      run a sweep
//   fleet --topology FILE [options]      run one session on FILE's network
//   fleet --hunt [options]               coverage-guided adversary search
//
// Options (sweep):
//   --scenario NAMES  comma-separated family names, or "all" (default: all)
//   --jobs N          worker threads (default 1; results identical for any N)
//   --seed S          sweep base seed (default 1)
//   --json FILE       output path (default BENCH_runtime.json; "-" = none)
//   --trace FILE      capture per-run traffic matrices (sim ambient traces,
//                     one record per link per step, summed per run) and dump
//                     them to FILE as JSON (sparse link lists plus the
//                     per-run DC1 claim bytes — the communication-pattern
//                     analysis mode); capturing moves no record
//   --timeline FILE   capture per-run phase spans (obs collectors) and dump
//                     them to FILE as Chrome-trace JSON — load in
//                     chrome://tracing or ui.perfetto.dev; one process per
//                     run, spans nested phase1/equality_check/flags/phase3
//                     down to the claim sub-rounds
//   --quiet           suppress the per-run progress lines
//
// Options (--topology; one run of 4 instances x 64 words from node 0 on the
// sweep path, so the sweep options but --scenario apply):
//   --topology FILE   nodes/edge/biedge lines (graph/topology_io.hpp)
//   --f F             fault budget (default 1)
//   --adversary KIND  a registry adversary name (default honest)
//   --corrupt A,B     corrupt node ids, at most F (default: F nodes drawn
//                     from the run seed, as in a registry sweep)
//   `capacity_planner FILE F` prints the paper's bounds for the same file.
//
// Options (hunt — see docs/HUNT.md and runtime/hunt.hpp):
//   --hunt-families NAMES  families whose (topology, f) pairs become hunt
//                          contexts (default complete-f2,ablation-claims —
//                          the K_7/K_9 dispute presets)
//   --budget N             total genome evaluations (default 2000)
//   --population N         genomes per generation (default 12)
//   --hunt-words N         payload words per evaluation (default 16 — margins
//                          are size-oblivious, so evaluations stay cheap)
//   --hunt-instances N     instances per evaluation (0 = family default)
//   --hunt-corpus FILE     corpus output (default HUNT_corpus.json; "-" = none)
//   --jobs/--seed/--quiet  as above; the corpus is byte-identical for any
//                          --jobs value
//
// Every sweep ends with a per-phase rollup (top phases by wall time across
// the sweep, per family) built from the same obs spans. Flag parsing is
// strict (runtime/fleet_cli.hpp): unknown flags, and flags of another mode
// (any flag with --list, a sweep flag under --hunt, a hunt flag without it),
// are errors naming the flag, never silently ignored.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/error.hpp"

namespace {

void list_registry() {
  std::size_t total = 0;
  for (const nab::runtime::scenario_family& fam : nab::runtime::registry()) {
    const std::size_t count = fam.expand().size();
    total += count;
    std::printf("%-22s %3zu runs  %s\n", fam.name.c_str(), count,
                fam.description.c_str());
  }
  std::printf("%-22s %3zu runs\n", "total (=all)", total);
}

int run_hunt_mode(const nab::runtime::fleet_options& opt) {
  using namespace nab::runtime;
  hunt_config cfg;
  cfg.families = opt.hunt_families;
  cfg.seed = opt.seed;
  cfg.budget = opt.budget;
  cfg.population = opt.population;
  cfg.jobs = opt.jobs;
  cfg.words = opt.hunt_words;
  cfg.instances = opt.hunt_instances;

  std::printf("fleet: hunting %s, budget %d, population %d, %d job%s, seed %llu\n",
              cfg.families.c_str(), cfg.budget, cfg.population, cfg.jobs,
              cfg.jobs == 1 ? "" : "s",
              static_cast<unsigned long long>(cfg.seed));

  const auto t0 = std::chrono::steady_clock::now();
  const hunt_corpus corpus = run_hunt(
      cfg, opt.quiet ? std::function<void(const std::string&)>{}
                     : [](const std::string& line) {
                         std::printf("  %s\n", line.c_str());
                       });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf(
      "fleet: hunt done — %d evaluations, %zu champions, %zu novel behaviors, "
      "%d errors, %d invariant violations, wall %.2fs\n",
      corpus.evaluations, corpus.champions.size(), corpus.novel.size(),
      corpus.errors, corpus.violations, wall);
  for (const corpus_entry& e : corpus.champions) {
    std::string margins;
    for (const nab::obs::gauge_row& row : nab::obs::gauge_table)
      if (row.scored)
        margins += std::string(row.name) + "=" + std::to_string(e.margins[row.id]) + " ";
    std::printf("  champion %-28s %-24s %s %s\n", e.context.c_str(), e.gauge.c_str(),
                margins.c_str(), e.genome.to_params().c_str());
  }
  for (const corpus_entry& e : corpus.violators)
    std::printf("  VIOLATION %-28s run_index=%d  %s\n", e.context.c_str(),
                e.run_index, e.genome.to_params().c_str());

  if (opt.corpus_path != "-") {
    write_json_file(opt.corpus_path, corpus_document(corpus));
    std::printf("fleet: wrote %s\n", opt.corpus_path.c_str());
  }
  if (corpus.violations > 0) {
    std::fprintf(stderr,
                 "fleet: the hunt found %d paper-invariant violation(s) — "
                 "replay the violator genomes above\n",
                 corpus.violations);
    return 1;
  }
  return 0;
}

/// The runs a sweep asks for: the named registry families, or the one
/// scenario --topology builds from its file.
std::vector<nab::runtime::scenario> select_sweep(
    const nab::runtime::fleet_options& opt) {
  using namespace nab::runtime;
  if (opt.topology_path.empty()) return select_scenarios(opt.scenarios);
  std::ifstream in(opt.topology_path);
  if (!in)
    throw nab::error("fleet: cannot open --topology file '" + opt.topology_path +
                     "'");
  std::ostringstream text;
  text << in.rdbuf();
  return {topology_file_scenario(opt.topology_path, text.str(), opt.f,
                                 opt.adversary, opt.corrupt)};
}

int run_sweep_mode(const nab::runtime::fleet_options& opt,
                   std::vector<nab::runtime::scenario> sweep) {
  using namespace nab::runtime;
  const std::string& sweep_name =
      opt.topology_path.empty() ? opt.scenarios : opt.topology_path;
  // --loss overrides the link-fault axis of every selected scenario but
  // never their names, so a --loss sweep lines up with a clean one
  // record-for-record.
  if (!opt.loss.empty())
    for (scenario& s : sweep) s.loss = opt.loss;
  std::printf("fleet: %zu runs (%s%s%s), %d job%s, seed %llu\n", sweep.size(),
              sweep_name.c_str(), opt.loss.empty() ? "" : ", loss ",
              opt.loss.c_str(), opt.jobs, opt.jobs == 1 ? "" : "s",
              static_cast<unsigned long long>(opt.seed));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> run_walls;
  const auto records = run_sweep(
      sweep, opt.seed, opt.jobs,
      [&](const run_record& r) {
        if (opt.quiet) return;
        std::printf("  [%3d] %-46s thpt=%8.3f disputes=%d convicted=%d %s\n",
                    r.run_index, r.scenario.c_str(), r.throughput, r.disputes,
                    r.convictions, r.ok() ? "ok" : "INVARIANT VIOLATED");
      },
      &run_walls, /*capture_traces=*/!opt.trace_path.empty(),
      /*capture_spans=*/!opt.timeline_path.empty());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::map<std::string, double> family_walls;
  for (std::size_t i = 0; i < sweep.size(); ++i)
    family_walls[sweep[i].family] += run_walls[i];

  const sweep_summary s = summarize(records);
  std::printf(
      "fleet: %d runs, %d instances, %d dispute phases, throughput "
      "min/mean/max = %.3f/%.3f/%.3f, wall %.2fs\n",
      s.runs, s.total_instances, s.total_dispute_phases, s.min_throughput,
      s.mean_throughput, s.max_throughput, wall);
  unsigned long long cache_hits = 0, cache_lookups = 0;
  for (const run_record& r : records) {
    cache_hits += r.timing.counters[nab::obs::counter::cache_hits];
    cache_lookups += r.counters[nab::obs::counter::cache_lookups];
  }
  std::printf("fleet: omega_cache %llu/%llu lookups hit\n", cache_hits, cache_lookups);

  // Per-family phase rollup: the top-3 phases by summed wall time across
  // the family's runs, from the per-run obs spans. Answers "where did the
  // sweep's time go" without opening the JSON.
  {
    std::map<std::string, std::map<std::string, double>> family_phases;
    for (const run_record& r : records)
      for (const auto& [phase, secs] : r.timing.wall_by_phase)
        family_phases[r.family][phase] += secs;
    std::printf("fleet: wall by phase (top 3 per family)\n");
    for (const auto& [family, phases] : family_phases) {
      std::vector<std::pair<std::string, double>> rows(phases.begin(),
                                                       phases.end());
      std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second > b.second : a.first < b.first;
      });
      std::string line;
      for (std::size_t i = 0; i < rows.size() && i < 3; ++i) {
        char cell[96];
        std::snprintf(cell, sizeof cell, "%s%s=%.3fs", i > 0 ? "  " : "",
                      rows[i].first.c_str(), rows[i].second);
        line += cell;
      }
      std::printf("  %-22s %s\n", family.c_str(), line.c_str());
    }
  }

  if (opt.json_path != "-") {
    write_json_file(opt.json_path, sweep_document(sweep_name, opt.seed,
                                                  opt.jobs, records, wall,
                                                  &family_walls));
    std::printf("fleet: wrote %s\n", opt.json_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    write_json_file(opt.trace_path,
                    trace_document(sweep_name, opt.seed, records));
    std::printf("fleet: wrote %s\n", opt.trace_path.c_str());
  }
  if (!opt.timeline_path.empty()) {
    write_json_file(opt.timeline_path,
                    timeline_document(sweep_name, opt.seed, records));
    std::printf("fleet: wrote %s\n", opt.timeline_path.c_str());
  }

  if (s.failed_runs > 0) {
    std::fprintf(stderr, "fleet: %d run(s) violated paper invariants\n",
                 s.failed_runs);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  nab::runtime::fleet_options opt;
  std::vector<nab::runtime::scenario> sweep;
  // Bad input, the sweep selection and the --topology file included, exits
  // 2 before any run starts.
  try {
    opt = nab::runtime::parse_fleet_args(
        std::vector<std::string>(argv + 1, argv + argc));
    if (!opt.list && !opt.hunt) sweep = select_sweep(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), nab::runtime::fleet_usage().c_str());
    return 2;
  }

  if (opt.list) {
    list_registry();
    return 0;
  }
  try {
    return opt.hunt ? run_hunt_mode(opt) : run_sweep_mode(opt, std::move(sweep));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet: %s\n", e.what());
    return 1;
  }
}
