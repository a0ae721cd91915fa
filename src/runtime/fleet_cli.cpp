#include "runtime/fleet_cli.hpp"

#include "sim/link_faults.hpp"
#include "util/error.hpp"

namespace nab::runtime {

std::string fleet_usage() {
  return
      "usage: fleet --list\n"
      "       fleet [--scenario NAMES|all] [--jobs N] [--seed S]\n"
      "             [--json FILE] [--trace FILE] [--timeline FILE] [--quiet]\n"
      "             [--loss none|zero|light|bursty|heavy|pG,pB,pG2B,pB2G]\n"
      "       fleet --topology FILE [--f F] [--adversary KIND] [--corrupt A,B]\n"
      "             [--loss SPEC] [--seed S] [--json FILE] [--trace FILE]\n"
      "             [--timeline FILE] [--quiet]\n"
      "             KIND: honest|p1_garble|equivocate|p2_lie|false_flag|stealth|\n"
      "                   dispute_farm|chaos\n"
      "       fleet --hunt [--hunt-families NAMES] [--budget N] [--population N]\n"
      "             [--hunt-words N] [--hunt-instances N] [--hunt-corpus FILE]\n"
      "             [--jobs N] [--seed S] [--quiet]\n";
}

std::uint64_t parse_u64_flag(const std::string& flag, const std::string& text) {
  if (text.empty() || text[0] == '-' || text[0] == '+')
    throw error(flag + " expects a non-negative integer, got '" + text + "'");
  std::uint64_t out = 0;
  for (char c : text) {
    if (c < '0' || c > '9')
      throw error(flag + " expects a non-negative integer, got '" + text + "'");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (UINT64_MAX - digit) / 10)
      throw error(flag + " value '" + text + "' overflows");
    out = out * 10 + digit;
  }
  return out;
}

int parse_int_flag(const std::string& flag, const std::string& text) {
  const std::uint64_t v = parse_u64_flag(flag, text);
  if (v > 1'000'000)
    throw error(flag + " value '" + text + "' is out of range");
  return static_cast<int>(v);
}

namespace {

/// "A,B,..." -> node ids; every item, empty ones included, must parse.
std::vector<graph::node_id> parse_node_list(const std::string& flag,
                                            const std::string& csv) {
  std::vector<graph::node_id> ids;
  std::string item;
  for (char c : csv + ",") {
    if (c != ',') {
      item.push_back(c);
      continue;
    }
    ids.push_back(parse_int_flag(flag, item));
    item.clear();
  }
  return ids;
}

}  // namespace

fleet_options parse_fleet_args(const std::vector<std::string>& args) {
  fleet_options opt;
  bool scenario_given = false;
  std::string adhoc_flag;  // the last --f/--adversary/--corrupt seen
  std::string sweep_flag;  // the last sweep-only flag seen
  std::string hunt_flag;   // the last hunt-only flag seen
  std::string other_flag;  // the first flag other than --list
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size())
        throw error("fleet: " + a + " expects a value");
      return args[++i];
    };
    if (a != "--list" && other_flag.empty()) other_flag = a;
    if (a == "--list") {
      opt.list = true;
    } else if (a == "--scenario") {
      opt.scenarios = next();
      scenario_given = true;
      sweep_flag = a;
    } else if (a == "--jobs") {
      opt.jobs = parse_int_flag(a, next());
      if (opt.jobs < 1) opt.jobs = 1;
    } else if (a == "--seed") {
      opt.seed = parse_u64_flag(a, next());
    } else if (a == "--json") {
      opt.json_path = next();
      sweep_flag = a;
    } else if (a == "--trace") {
      opt.trace_path = next();
      sweep_flag = a;
    } else if (a == "--timeline") {
      opt.timeline_path = next();
      sweep_flag = a;
    } else if (a == "--loss") {
      opt.loss = next();
      // Reject unknown/malformed specs at the CLI boundary, naming them;
      // "none" (strip loss) attaches no model and parses nothing.
      if (opt.loss != "none") sim::parse_loss_spec(opt.loss);
      sweep_flag = a;
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else if (a == "--topology") {
      opt.topology_path = next();
    } else if (a == "--f") {
      opt.f = parse_int_flag(a, next());
      adhoc_flag = a;
    } else if (a == "--adversary") {
      opt.adversary = adversary_kind_from_string(next());
      adhoc_flag = a;
    } else if (a == "--corrupt") {
      opt.corrupt = parse_node_list(a, next());
      adhoc_flag = a;
    } else if (a == "--hunt") {
      opt.hunt = true;
    } else if (a == "--hunt-families") {
      opt.hunt_families = next();
      hunt_flag = a;
    } else if (a == "--budget") {
      opt.budget = parse_int_flag(a, next());
      if (opt.budget < 1)
        throw error("fleet: --budget must be at least 1");
      hunt_flag = a;
    } else if (a == "--population") {
      opt.population = parse_int_flag(a, next());
      if (opt.population < 1)
        throw error("fleet: --population must be at least 1");
      hunt_flag = a;
    } else if (a == "--hunt-words") {
      opt.hunt_words = parse_u64_flag(a, next());
      if (opt.hunt_words < 1)
        throw error("fleet: --hunt-words must be at least 1");
      hunt_flag = a;
    } else if (a == "--hunt-instances") {
      opt.hunt_instances = parse_int_flag(a, next());
      hunt_flag = a;
    } else if (a == "--hunt-corpus") {
      opt.corpus_path = next();
      hunt_flag = a;
    } else {
      throw error("fleet: unknown flag '" + a + "'");
    }
  }
  // --list prints the catalog and exits: any other flag would be dropped.
  if (opt.list && !other_flag.empty())
    throw error("fleet: --list cannot be combined with " + other_flag);
  if (opt.topology_path.empty()) {
    if (!adhoc_flag.empty())
      throw error("fleet: " + adhoc_flag + " needs --topology FILE");
  } else if (scenario_given || opt.hunt) {
    throw error(std::string("fleet: --topology cannot be combined with ") +
                (opt.hunt ? "--hunt" : "--scenario"));
  }
  // A hunt writes only its corpus, and only a hunt reads the hunt flags.
  if (opt.hunt && !sweep_flag.empty())
    throw error("fleet: " + sweep_flag + " cannot be combined with --hunt");
  if (!opt.hunt && !hunt_flag.empty())
    throw error("fleet: " + hunt_flag + " needs --hunt");
  return opt;
}

}  // namespace nab::runtime
