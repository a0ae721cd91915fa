// fleet's CLI parser (runtime/fleet_cli.hpp): strict flag handling. A typo
// like `--sced 7` must be a hard error naming the flag, not a silently
// ignored token that runs the default sweep and stamps misleading metadata
// into BENCH_runtime.json; an ad-hoc flag without --topology is one too, and
// so is any other flag with --list, a sweep flag under --hunt or a hunt flag
// without it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/fleet_cli.hpp"
#include "util/error.hpp"

namespace nab::runtime {
namespace {

fleet_options parse(std::initializer_list<const char*> args) {
  return parse_fleet_args(std::vector<std::string>(args.begin(), args.end()));
}

TEST(FleetCli, DefaultsWhenNoArgs) {
  const fleet_options opt = parse({});
  EXPECT_EQ(opt, fleet_options{});
  EXPECT_FALSE(opt.list);
  EXPECT_EQ(opt.scenarios, "all");
  EXPECT_EQ(opt.jobs, 1);
  EXPECT_EQ(opt.seed, 1u);
  EXPECT_EQ(opt.json_path, "BENCH_runtime.json");
  EXPECT_FALSE(opt.hunt);
}

TEST(FleetCli, ParsesEverySweepFlag) {
  const fleet_options opt =
      parse({"--scenario", "fig1,ring", "--jobs", "8", "--seed", "99",
             "--json", "out.json", "--trace", "t.json", "--timeline",
             "tl.json", "--quiet"});
  EXPECT_FALSE(opt.list);
  EXPECT_EQ(opt.scenarios, "fig1,ring");
  EXPECT_EQ(opt.jobs, 8);
  EXPECT_EQ(opt.seed, 99u);
  EXPECT_EQ(opt.json_path, "out.json");
  EXPECT_EQ(opt.trace_path, "t.json");
  EXPECT_EQ(opt.timeline_path, "tl.json");
  EXPECT_TRUE(opt.quiet);
}

TEST(FleetCli, ParsesEveryHuntFlag) {
  const fleet_options opt =
      parse({"--hunt", "--hunt-families", "complete-f2", "--budget", "500",
             "--population", "20", "--hunt-words", "8", "--hunt-instances",
             "2", "--hunt-corpus", "c.json"});
  EXPECT_TRUE(opt.hunt);
  EXPECT_EQ(opt.hunt_families, "complete-f2");
  EXPECT_EQ(opt.budget, 500);
  EXPECT_EQ(opt.population, 20);
  EXPECT_EQ(opt.hunt_words, 8u);
  EXPECT_EQ(opt.hunt_instances, 2);
  EXPECT_EQ(opt.corpus_path, "c.json");
}

TEST(FleetCli, ParsesEveryTopologyFlag) {
  const fleet_options opt =
      parse({"--topology", "k5.txt", "--f", "2", "--adversary", "stealth",
             "--corrupt", "3,1", "--loss", "bursty", "--seed", "7"});
  EXPECT_EQ(opt.topology_path, "k5.txt");
  EXPECT_EQ(opt.f, 2);
  EXPECT_EQ(opt.adversary, adversary_kind::stealth);
  EXPECT_EQ(opt.corrupt, (std::vector<graph::node_id>{3, 1}));
  EXPECT_EQ(opt.loss, "bursty");
  EXPECT_EQ(opt.seed, 7u);
  // Without the ad-hoc flags: fault budget 1, honest, seeded corrupt draw.
  const fleet_options bare = parse({"--topology", "k5.txt"});
  EXPECT_EQ(bare.f, 1);
  EXPECT_EQ(bare.adversary, adversary_kind::honest);
  EXPECT_TRUE(bare.corrupt.empty());
}

/// Parses `args` expecting nab::error whose message contains `needle`.
void expect_error_naming(std::initializer_list<const char*> args,
                         const std::string& needle) {
  try {
    parse(args);
    ADD_FAILURE() << "expected nab::error naming " << needle;
  } catch (const nab::error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error must name " << needle << ": " << e.what();
  }
}

TEST(FleetCli, AdHocFlagsNeedTopologyAndExcludeOtherModes) {
  expect_error_naming({"--f", "1"}, "--f");
  expect_error_naming({"--adversary", "stealth"}, "--adversary");
  expect_error_naming({"--scenario", "fig1", "--corrupt", "2"}, "--corrupt");
  expect_error_naming({"--topology", "k5.txt", "--scenario", "fig1"}, "--scenario");
  expect_error_naming({"--scenario", "all", "--topology", "k5.txt"}, "--scenario");
  expect_error_naming({"--topology", "k5.txt", "--hunt"}, "--hunt");
}

TEST(FleetCli, SweepFlagsAreErrorsUnderHunt) {
  // A hunt writes only its corpus: a sweep's output or loss flag would be
  // dropped without a word.
  expect_error_naming({"--hunt", "--scenario", "fig1"}, "--scenario");
  expect_error_naming({"--hunt", "--json", "g.json"}, "--json");
  expect_error_naming({"--trace", "t.json", "--hunt"}, "--trace");
  expect_error_naming({"--hunt", "--budget", "4", "--timeline", "tl.json"}, "--timeline");
  expect_error_naming({"--hunt", "--loss", "bursty"}, "--loss");
  expect_error_naming({"--hunt", "--trace", "t.json"}, "--hunt");
  // The flags both modes read stay legal under --hunt.
  const fleet_options opt = parse({"--hunt", "--jobs", "4", "--seed", "7", "--quiet"});
  EXPECT_TRUE(opt.hunt);
  EXPECT_EQ(opt.jobs, 4);
  EXPECT_EQ(opt.seed, 7u);
}

TEST(FleetCli, ListTakesNoOtherFlag) {
  // --list prints the catalog and exits: a sweep's output or a hunt's
  // corpus flag would be dropped without a word.
  EXPECT_TRUE(parse({"--list"}).list);
  expect_error_naming({"--list", "--scenario", "fig1", "--json", "y.json"},
                      "--list cannot be combined with --scenario");
  expect_error_naming(
      {"--list", "--hunt", "--budget", "5", "--hunt-corpus", "x.json"},
      "--list cannot be combined with --hunt");
  expect_error_naming({"--jobs", "4", "--list"},
                      "--list cannot be combined with --jobs");
  expect_error_naming({"--list", "--quiet"}, "--quiet");
  expect_error_naming({"--list", "--topology", "k5.txt"}, "--topology");
}

TEST(FleetCli, HuntFlagsNeedHunt) {
  expect_error_naming({"--hunt-families", "complete-f2"}, "--hunt-families");
  expect_error_naming({"--scenario", "fig1", "--budget", "5"}, "--budget");
  expect_error_naming({"--population", "4"}, "--population");
  expect_error_naming({"--hunt-words", "8"}, "--hunt-words");
  expect_error_naming({"--hunt-instances", "2"}, "--hunt-instances");
  expect_error_naming({"--budget", "5", "--hunt-corpus", "x.json"}, "--hunt-corpus");
  expect_error_naming({"--topology", "k5.txt", "--budget", "5"}, "--budget");
  expect_error_naming({"--budget", "5"}, "needs --hunt");
}

TEST(FleetCli, MalformedAdHocValuesAreErrors) {
  expect_error_naming({"--topology", "k5.txt", "--f", "one"}, "'one'");
  expect_error_naming({"--topology", "k5.txt", "--corrupt", "x"}, "'x'");
  expect_error_naming({"--topology", "k5.txt", "--corrupt", "1,,2"}, "--corrupt");
  expect_error_naming({"--topology", "k5.txt", "--corrupt", ""}, "--corrupt");
  expect_error_naming({"--topology", "k5.txt", "--corrupt", "-1"}, "'-1'");
  expect_error_naming({"--topology", "k5.txt", "--adversary", "p1garble"},
                      "'p1garble'");
  EXPECT_THROW(parse({"--topology"}), nab::error);
}

TEST(FleetCli, UnknownFlagIsAnErrorNamingTheFlag) {
  try {
    parse({"--sced", "7"});
    FAIL() << "expected nab::error";
  } catch (const nab::error& e) {
    EXPECT_NE(std::string(e.what()).find("--sced"), std::string::npos)
        << "error must name the offending flag: " << e.what();
  }
  EXPECT_THROW(parse({"extra"}), nab::error);
  EXPECT_THROW(parse({"--quiet", "--bogus"}), nab::error);
}

TEST(FleetCli, MissingValueIsAnError) {
  EXPECT_THROW(parse({"--scenario"}), nab::error);
  EXPECT_THROW(parse({"--jobs"}), nab::error);
  EXPECT_THROW(parse({"--seed"}), nab::error);
  EXPECT_THROW(parse({"--hunt-corpus"}), nab::error);
}

TEST(FleetCli, MalformedNumbersAreErrors) {
  EXPECT_THROW(parse({"--jobs", "four"}), nab::error);
  EXPECT_THROW(parse({"--jobs", "1e5"}), nab::error);
  EXPECT_THROW(parse({"--seed", "-3"}), nab::error);
  EXPECT_THROW(parse({"--seed", ""}), nab::error);
  EXPECT_THROW(parse({"--seed", "12x"}), nab::error);
  EXPECT_THROW(parse({"--seed", "99999999999999999999999"}), nab::error);
  EXPECT_THROW(parse({"--budget", "0"}), nab::error);
  EXPECT_THROW(parse({"--population", "0"}), nab::error);
  EXPECT_THROW(parse({"--hunt-words", "0"}), nab::error);
  // Bounded int flags reject absurd values instead of truncating.
  EXPECT_THROW(parse({"--jobs", "2000000"}), nab::error);
}

TEST(FleetCli, SeedAndJobsEdgeValues) {
  EXPECT_EQ(parse({"--seed", "0"}).seed, 0u);
  EXPECT_EQ(parse({"--seed", "18446744073709551615"}).seed, UINT64_MAX);
  // jobs is clamped up to 1, never an error for 0 (matches prior behavior).
  EXPECT_EQ(parse({"--jobs", "0"}).jobs, 1);
}

TEST(FleetCli, UsageNamesEveryFlag) {
  const std::string usage = fleet_usage();
  for (const char* flag :
       {"--list", "--scenario", "--jobs", "--seed", "--json", "--trace",
        "--timeline", "--quiet", "--loss", "--topology", "--f", "--adversary",
        "--corrupt", "--hunt", "--hunt-families", "--budget", "--population",
        "--hunt-words", "--hunt-instances", "--hunt-corpus"})
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

}  // namespace
}  // namespace nab::runtime
