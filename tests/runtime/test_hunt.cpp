// The hunt's persistence layer (runtime/hunt.hpp): genome string round-trip,
// corpus JSON round-trip, exact replay of corpus entries, jobs-invariance of
// a whole search, and a golden corpus checked into tests/runtime/data/ that
// pins the on-disk format AND the recorded behaviors — a hunt finding is
// only worth keeping if anyone can replay it bit for bit later.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "runtime/runtime.hpp"
#include "util/error.hpp"

namespace nab::runtime {
namespace {

hunt_config tiny_hunt() {
  hunt_config cfg;
  cfg.families = "complete-f2";
  cfg.seed = 42;
  cfg.budget = 48;
  cfg.population = 8;
  cfg.jobs = 1;
  return cfg;
}

TEST(HuntGenome, ParamsRoundTripIsIdentity) {
  hunt_genome g;  // defaults
  EXPECT_EQ(hunt_genome::from_params(g.to_params()), g);

  g.p1_source = 255;
  g.p1_forward = 1;
  g.p2_lie = 77;
  g.flag_flip = 200;
  g.claim_tamper = 3;
  g.input_lie = 254;
  g.digest_equivocate = 128;
  g.digest_garble = 64;
  g.echo_suppress = 192;
  g.ready_suppress = 100;
  g.retrieval_forge = 50;
  g.xor_mask = 0xBEEF;
  g.victim_mode = 1;
  g.corrupt_source = 1;
  g.corrupt_salt = 238;
  g.noise_salt = 76;
  EXPECT_EQ(hunt_genome::from_params(g.to_params()), g);
}

TEST(HuntGenome, FromParamsRejectsMalformedInput) {
  const std::string good = hunt_genome{}.to_params();
  EXPECT_NO_THROW(hunt_genome::from_params(good));
  // Missing field (drop the last key=value).
  EXPECT_THROW(hunt_genome::from_params(good.substr(0, good.rfind(','))),
               nab::error);
  // Unknown key.
  EXPECT_THROW(hunt_genome::from_params(good + ",bogus=1"), nab::error);
  // Duplicate key.
  EXPECT_THROW(hunt_genome::from_params(good + ",p1_source=1"), nab::error);
  // Over-bound value for a rate field (max 255).
  std::string over = good;
  over.replace(over.find("p1_source=0"), 11, "p1_source=256");
  EXPECT_THROW(hunt_genome::from_params(over), nab::error);
  // Non-numeric value.
  std::string junk = good;
  junk.replace(junk.find("p1_source=0"), 11, "p1_source=x");
  EXPECT_THROW(hunt_genome::from_params(junk), nab::error);
  EXPECT_THROW(hunt_genome::from_params(""), nab::error);
}

TEST(HuntCorpus, JsonRoundTripIsIdentity) {
  const hunt_corpus corpus = run_hunt(tiny_hunt());
  ASSERT_GT(corpus.champions.size(), 0u);
  ASSERT_GT(corpus.novel.size(), 0u);
  const std::string text = corpus_document(corpus).dump();
  const hunt_corpus back = corpus_from_text(text);
  EXPECT_EQ(back, corpus);
  // Serializing the parsed corpus again must be byte-identical: the format
  // is deterministic in both directions.
  EXPECT_EQ(corpus_document(back).dump(), text);
}

TEST(HuntCorpus, EntriesReplayBitIdentically) {
  const hunt_corpus corpus = run_hunt(tiny_hunt());
  ASSERT_GT(corpus.champions.size(), 0u);
  for (const corpus_entry& e : corpus.champions) {
    const run_record rec = replay_entry(corpus, e);
    EXPECT_EQ(rec.margin_quorum_slack, e.margin_quorum_slack) << e.context;
    EXPECT_EQ(rec.margin_hold_surplus, e.margin_hold_surplus) << e.context;
    EXPECT_EQ(rec.margin_dispute_headroom, e.margin_dispute_headroom)
        << e.context;
    EXPECT_EQ(record_signature(rec), e.signature) << e.context;
    EXPECT_EQ(margin_score(rec), e.score) << e.context;
    EXPECT_EQ(rec.ok(), e.ok) << e.context;
  }
}

TEST(HuntCorpus, SearchIsJobsInvariant) {
  hunt_config cfg = tiny_hunt();
  const hunt_corpus one = run_hunt(cfg);
  cfg.jobs = 3;
  const hunt_corpus three = run_hunt(cfg);
  EXPECT_EQ(one, three);
  EXPECT_EQ(corpus_document(one).dump(), corpus_document(three).dump());
}

TEST(HuntCorpus, CorpusFromTextRejectsDrift) {
  EXPECT_THROW(corpus_from_text(""), nab::error);
  EXPECT_THROW(corpus_from_text("{}"), nab::error);
  EXPECT_THROW(corpus_from_text(R"({"kind":"something-else"})"), nab::error);
  EXPECT_THROW(corpus_from_text("not json at all"), nab::error);

  // Integer fields out of range are rejected, never wrapped: a literal
  // beyond int64, and an `int` field beyond int.
  const std::string good = corpus_document(hunt_corpus{}).dump();
  EXPECT_NO_THROW(corpus_from_text(good));
  const auto with_budget = [&](const std::string& literal) {
    std::string text = good;
    const std::string key = "\"budget\": 0";
    text.replace(text.find(key), key.size(), "\"budget\": " + literal);
    return text;
  };
  EXPECT_EQ(corpus_from_text(with_budget("2147483647")).budget, 2147483647);
  EXPECT_THROW(corpus_from_text(with_budget("99999999999999999999")), nab::error);
  EXPECT_THROW(corpus_from_text(with_budget("2147483648")), nab::error);
}

TEST(HuntCorpus, GoldenCorpusParsesAndReplays) {
  // tests/runtime/data/golden_corpus.json was produced by
  //   fleet --hunt --hunt-families complete-f2 --budget 48 --population 8
  //         --seed 42
  // If this test fails after an intentional behavior change, regenerate the
  // file with that command and re-review the recorded margins (docs/HUNT.md
  // has the workflow); if it fails unexpectedly, a determinism or format
  // regression just escaped.
  std::ifstream in(std::string(NAB_TEST_DATA_DIR) + "/golden_corpus.json");
  ASSERT_TRUE(in.good()) << "missing tests/runtime/data/golden_corpus.json";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const hunt_corpus corpus = corpus_from_text(text);
  EXPECT_EQ(corpus.families, "complete-f2");
  EXPECT_EQ(corpus.seed, 42u);
  ASSERT_GT(corpus.champions.size(), 0u);
  EXPECT_EQ(corpus.violations, 0);

  // Byte-stable format: re-serializing the parsed corpus reproduces the
  // checked-in file exactly.
  EXPECT_EQ(corpus_document(corpus).dump(), text);

  // And the recorded behaviors still replay: same margins, same signature,
  // for every champion entry.
  for (const corpus_entry& e : corpus.champions) {
    const run_record rec = replay_entry(corpus, e);
    EXPECT_TRUE(rec.ok()) << e.context;
    EXPECT_EQ(rec.margin_quorum_slack, e.margin_quorum_slack) << e.context;
    EXPECT_EQ(rec.margin_hold_surplus, e.margin_hold_surplus) << e.context;
    EXPECT_EQ(rec.margin_dispute_headroom, e.margin_dispute_headroom)
        << e.context;
    EXPECT_EQ(record_signature(rec), e.signature) << e.context;
  }

  // The current search reproduces the golden corpus from scratch — the
  // strongest statement: evolution itself is deterministic across machines.
  EXPECT_EQ(corpus_document(run_hunt(tiny_hunt())).dump(), text);
}

TEST(HuntContexts, ForceHuntedCollapsedAndRejectEmpty) {
  const auto ctxs = hunt_contexts("complete-f2,ablation-claims", 16, 0);
  ASSERT_EQ(ctxs.size(), 2u);  // K_7 f=2 and K_9 f=2, deduped by (topology, f)
  for (const scenario& s : ctxs) {
    EXPECT_EQ(s.adversary, adversary_kind::hunted);
    EXPECT_EQ(s.claim_backend, bb::claim_backend::collapsed);
    EXPECT_GT(s.f, 0);
    EXPECT_EQ(s.words, 16u);
  }
  // Families with no fault-tolerant context cannot seed a hunt.
  EXPECT_THROW(hunt_contexts("ring", 16, 0), nab::error);
}

}  // namespace
}  // namespace nab::runtime
