// nabsim: command-line driver for ONE session at a time — run NAB on an
// arbitrary topology with any built-in adversary, compute the paper's
// capacity bounds, or run the pipelined mode; plot-ready TSV output.
// For parameter sweeps across topologies/adversaries/fault budgets, use
// `fleet` (examples/fleet.cpp), which drives the runtime scenario registry
// in parallel and writes BENCH_runtime.json.
//
// Usage:
//   nabsim run       [options]   run Q instances, print per-instance reports
//   nabsim bounds    [options]   print gamma*, rho*, Theorem-2/3 quantities
//   nabsim pipeline  [options]   Appendix-D pipelined run (fault-free)
//
// Options:
//   --topology FILE   topology file (default: built-in K5 cap 2)
//   --n N             use complete graph K_N instead (with --cap)
//   --cap C           uniform capacity for --n (default 1)
//   --f F             fault budget (default 1)
//   --source S        broadcasting node (default 0)
//   --corrupt A,B     corrupt node ids (default none)
//   --adversary KIND  honest|p1_garble|equivocate|p2_lie|false_flag|stealth|
//                     dispute_farm|chaos (the fleet registry's names)
//   --claim-backend B Phase-3 DC1 engine: auto|eig|collapsed
//                     (default eig — the oracle; collapsed is the
//                     polynomial-traffic Bracha-style backend)
//   --q Q             instances (default 8)
//   --words W         16-bit words per input, L = 16 W bits (default 64)
//   --seed S          RNG seed (default 1)
//   --loss SPEC       link-fault model: none (default), zero|light|bursty|
//                     heavy, or p_good,p_bad,p_g2b,p_b2g (Gilbert-Elliott
//                     erasures + ARQ; run command only)
//   --tsv             emit per-instance TSV instead of prose
//
// Numbers parse strictly with fleet's parsers: a malformed value such as
// `--f one` or `--corrupt x` is rejected by name.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/nab.hpp"
#include "graph/generators.hpp"
#include "graph/topology_io.hpp"
#include "runtime/fleet_cli.hpp"
#include "runtime/scenario.hpp"
#include "util/error.hpp"

namespace {

struct options {
  std::string command;
  std::string topology_file;
  int n = 0;
  nab::graph::capacity_t cap = 1;
  int f = 1;
  nab::graph::node_id source = 0;
  std::vector<nab::graph::node_id> corrupt;
  nab::runtime::adversary_kind adversary = nab::runtime::adversary_kind::honest;
  nab::bb::claim_backend claim_backend = nab::bb::claim_backend::eig;
  int q = 8;
  std::size_t words = 64;
  std::uint64_t seed = 1;
  std::string loss = "none";
  bool tsv = false;
};

[[noreturn]] void usage(const char* why = nullptr) {
  if (why != nullptr) std::fprintf(stderr, "nabsim: %s\n", why);
  std::fprintf(stderr,
               "usage: nabsim run|bounds|pipeline [--topology FILE | --n N --cap C] "
               "[--f F] [--source S]\n"
               "              [--corrupt A,B] [--adversary KIND] "
               "[--claim-backend auto|eig|collapsed]\n"
               "              [--q Q] [--words W] [--seed S] [--tsv]\n"
               "              [--loss none|zero|light|bursty|heavy|pG,pB,pG2B,pB2G]\n");
  std::exit(2);
}

std::vector<nab::graph::node_id> parse_ids(const std::string& csv) {
  std::vector<nab::graph::node_id> out;
  std::string cur;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!cur.empty()) out.push_back(nab::runtime::parse_int_flag("--corrupt", cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  return out;
}

/// Throws nab::error naming the flag or value on any malformed input.
options parse(int argc, char** argv) {
  using nab::runtime::parse_int_flag;
  using nab::runtime::parse_u64_flag;
  if (argc < 2) usage();
  options o;
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw nab::error(a + " expects a value");
      return argv[++i];
    };
    if (a == "--topology") o.topology_file = next();
    else if (a == "--n") o.n = parse_int_flag(a, next());
    else if (a == "--cap")
      o.cap = static_cast<nab::graph::capacity_t>(parse_int_flag(a, next()));
    else if (a == "--f") o.f = parse_int_flag(a, next());
    else if (a == "--source") o.source = parse_int_flag(a, next());
    else if (a == "--corrupt") o.corrupt = parse_ids(next());
    else if (a == "--adversary")
      o.adversary = nab::runtime::adversary_kind_from_string(next());
    else if (a == "--claim-backend")
      o.claim_backend = nab::runtime::claim_backend_from_string(next());
    else if (a == "--q") o.q = parse_int_flag(a, next());
    else if (a == "--words") o.words = parse_u64_flag(a, next());
    else if (a == "--seed") o.seed = parse_u64_flag(a, next());
    else if (a == "--loss") o.loss = next();
    else if (a == "--tsv") o.tsv = true;
    else throw nab::error("unknown flag '" + a + "'");
  }
  return o;
}

nab::graph::digraph load_graph(const options& o) {
  if (!o.topology_file.empty()) {
    std::ifstream in(o.topology_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", o.topology_file.c_str());
      std::exit(2);
    }
    return nab::graph::parse_topology(in);
  }
  if (o.n > 0) return nab::graph::complete(o.n, o.cap);
  return nab::graph::complete(5, 2);
}

int cmd_run(const options& o) {
  using namespace nab;
  const graph::digraph g = load_graph(o);
  sim::fault_set faults(g.universe(), o.corrupt);
  // The equivocating source's minority victim follows the fleet runner's
  // rule: the lowest non-source node.
  const auto adv = runtime::make_adversary(o.adversary, o.seed,
                                           o.source == 0 ? 1 : 0);
  // Ambient link-fault model (validated spec): the session's internal
  // networks pick it up; must outlive the session, hence declared first.
  std::unique_ptr<sim::link_fault_model> fault_model;
  std::unique_ptr<sim::scoped_link_faults> fault_scope;
  if (o.loss != "none") {
    fault_model = std::make_unique<sim::link_fault_model>(
        sim::parse_loss_spec(o.loss), o.seed ^ 0x1055eedULL);
    fault_scope = std::make_unique<sim::scoped_link_faults>(fault_model.get());
  }
  core::session s({.g = g,
                   .f = o.f,
                   .source = o.source,
                   .claim_backend = o.claim_backend},
                  faults, adv.get());
  rng rand(o.seed);
  const auto reports = s.run_many(o.q, o.words, rand);
  if (o.tsv) {
    std::fputs(core::to_tsv(reports).c_str(), stdout);
  } else {
    std::fputs(core::format_instance_table(reports).c_str(), stdout);
    std::fputs(core::format_session_summary(s).c_str(), stdout);
  }
  for (const auto& r : reports)
    if (!r.agreement || !r.validity) return 1;
  return 0;
}

int cmd_bounds(const options& o) {
  using namespace nab;
  const graph::digraph g = load_graph(o);
  const auto b = core::compute_bounds(g, o.source, o.f);
  std::printf("%s\n", core::format_bounds(b).c_str());
  return 0;
}

int cmd_pipeline(const options& o) {
  using namespace nab;
  const graph::digraph g = load_graph(o);
  core::pipeline_config cfg{.g = g, .f = o.f, .source = o.source};
  rng rand(o.seed);
  const auto st = core::run_pipelined(cfg, o.q, o.words, rand);
  std::printf("instances=%d depth=%d elapsed=%.1f throughput=%.3f "
              "sequential-throughput=%.3f speedup=%.2fx valid=%s\n",
              st.instances, st.depth, st.elapsed, st.throughput(),
              st.sequential_throughput(), st.speedup(), st.all_valid ? "yes" : "NO");
  return st.all_valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  try {
    o = parse(argc, argv);
  } catch (const nab::error& e) {
    usage(e.what());
  }
  try {
    if (o.command == "run") return cmd_run(o);
    if (o.command == "bounds") return cmd_bounds(o);
    if (o.command == "pipeline") return cmd_pipeline(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nabsim: %s\n", e.what());
    return 1;
  }
  usage();
}
