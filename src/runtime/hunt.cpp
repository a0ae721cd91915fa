#include "runtime/hunt.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "runtime/runner.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace nab::runtime {

// ---------------------------------------------------------------------------
// Genome serialization
// ---------------------------------------------------------------------------

namespace {

/// One serializable genome field. The table below is the single source of
/// truth for field order (to_params / to_json / corpus files), parse
/// validation, and the mutation/crossover operators — adding a gene means
/// adding one row.
struct gene {
  const char* name;
  std::uint32_t max;  ///< inclusive upper bound a parsed value may take
  std::uint16_t (*get)(const hunt_genome&);
  void (*set)(hunt_genome&, std::uint16_t);
  /// How mutation redraws this gene (rates prefer sparse extremes; masks
  /// prefer recognizable patterns; flags flip).
  enum class shape { rate, mask, flag, salt } form;
};

#define NAB_GENE(field, bound, form_)                                    \
  gene{#field, bound,                                                    \
       [](const hunt_genome& g) { return static_cast<std::uint16_t>(g.field); }, \
       [](hunt_genome& g, std::uint16_t v) {                             \
         g.field = static_cast<decltype(g.field)>(v);                    \
       },                                                                \
       gene::shape::form_}

constexpr auto genome_fields() {
  return std::array{
      NAB_GENE(p1_source, 255, rate),
      NAB_GENE(p1_forward, 255, rate),
      NAB_GENE(p2_lie, 255, rate),
      NAB_GENE(flag_flip, 255, rate),
      NAB_GENE(claim_tamper, 255, rate),
      NAB_GENE(input_lie, 255, rate),
      NAB_GENE(digest_equivocate, 255, rate),
      NAB_GENE(digest_garble, 255, rate),
      NAB_GENE(echo_suppress, 255, rate),
      NAB_GENE(ready_suppress, 255, rate),
      NAB_GENE(retrieval_forge, 255, rate),
      NAB_GENE(xor_mask, 65535, mask),
      NAB_GENE(victim_mode, 1, flag),
      NAB_GENE(corrupt_source, 1, flag),
      NAB_GENE(corrupt_salt, 255, salt),
      NAB_GENE(noise_salt, 255, salt),
  };
}

#undef NAB_GENE

}  // namespace

std::string hunt_genome::to_params() const {
  std::string out;
  for (const gene& f : genome_fields()) {
    if (!out.empty()) out.push_back(',');
    out += f.name;
    out.push_back('=');
    out += std::to_string(f.get(*this));
  }
  return out;
}

hunt_genome hunt_genome::from_params(std::string_view text) {
  std::map<std::string, std::uint32_t, std::less<>> kv;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view item = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size())
      throw error("hunt_genome: malformed item '" + std::string(item) + "'");
    const std::string_view key = item.substr(0, eq);
    const std::string_view digits = item.substr(eq + 1);
    std::uint32_t value = 0;
    for (char c : digits) {
      if (c < '0' || c > '9')
        throw error("hunt_genome: non-numeric value in '" + std::string(item) + "'");
      value = value * 10 + static_cast<std::uint32_t>(c - '0');
      if (value > 65535)
        throw error("hunt_genome: value out of range in '" + std::string(item) + "'");
    }
    if (!kv.emplace(std::string(key), value).second)
      throw error("hunt_genome: duplicate field '" + std::string(key) + "'");
  }

  hunt_genome g;
  for (const gene& f : genome_fields()) {
    const auto it = kv.find(f.name);
    if (it == kv.end())
      throw error(std::string("hunt_genome: missing field '") + f.name + "'");
    if (it->second > f.max)
      throw error(std::string("hunt_genome: field '") + f.name +
                  "' exceeds its bound " + std::to_string(f.max));
    f.set(g, static_cast<std::uint16_t>(it->second));
    kv.erase(it);
  }
  if (!kv.empty())
    throw error("hunt_genome: unknown field '" + kv.begin()->first + "'");
  return g;
}

json hunt_genome::to_json() const {
  json obj = json::object();
  for (const gene& f : genome_fields())
    obj.set(f.name, json::num(static_cast<std::int64_t>(f.get(*this))));
  return obj;
}

// ---------------------------------------------------------------------------
// genome_adversary
// ---------------------------------------------------------------------------

namespace {

bool hit(rng& rand, std::uint8_t level) {
  return level != 0 && rand.chance(level / 255.0);
}

/// Genome-driven garble of a 16-bit word sequence: XOR by the genome's mask,
/// or redraw every word when the mask gene is 0. An empty sequence gains one
/// corrupted word (mirrors the hand-written strategies, so "garbled nothing"
/// still differs from honest).
template <typename Vec>
void garble_words(Vec& words, std::uint16_t mask, rng& rand) {
  if (words.empty()) {
    words.push_back(static_cast<core::word>(
        mask != 0 ? mask : 1 + rand.below(65535)));
    return;
  }
  if (mask != 0) {
    for (auto& w : words) w = static_cast<core::word>(w ^ mask);
  } else {
    for (auto& w : words) w = static_cast<core::word>(rand.below(65536));
  }
}

/// Flips one 64-bit transport word of a packed payload (or plants one in an
/// empty payload) — the minimal equivocation that still changes the digest.
void perturb_payload(bb::value& payload, rng& rand) {
  if (payload.empty()) {
    payload.push_back(0x5EED);
    return;
  }
  payload[rand.below(payload.size())] ^= 1 + rand.below(0xFFFF);
}

}  // namespace

genome_adversary::genome_adversary(const hunt_genome& g, std::uint64_t seed)
    : g_(g),
      rand_(splitmix64(seed ^ (static_cast<std::uint64_t>(g.noise_salt) *
                               splitmix64_gamma))),
      claim_(g_, splitmix64(seed ^ 0xC1A1A0B5ULL ^
                            (static_cast<std::uint64_t>(g.noise_salt) << 8))) {}

void genome_adversary::on_instance_begin(int, const graph::digraph& gk) {
  const std::vector<graph::node_id> active = gk.active_nodes();
  victim_ = active.empty() ? -1 : active.front();
}

core::chunk genome_adversary::phase1_source_chunk(int, graph::node_id to,
                                                  const core::chunk& honest) {
  if (!targets(to) || !hit(rand_, g_.p1_source)) return honest;
  core::chunk out = honest;
  garble_words(out, g_.xor_mask, rand_);
  return out;
}

core::chunk genome_adversary::phase1_forward_chunk(int, graph::node_id,
                                                   graph::node_id to,
                                                   const core::chunk& honest) {
  if (!targets(to) || !hit(rand_, g_.p1_forward)) return honest;
  core::chunk out = honest;
  garble_words(out, g_.xor_mask, rand_);
  return out;
}

core::coded_symbols genome_adversary::phase2_coded(graph::node_id, graph::node_id v,
                                                   const core::coded_symbols& honest) {
  if (!targets(v) || !hit(rand_, g_.p2_lie)) return honest;
  core::coded_symbols out = honest;
  garble_words(out.words, g_.xor_mask, rand_);
  return out;
}

bool genome_adversary::phase2_flag(graph::node_id, bool honest) {
  return hit(rand_, g_.flag_flip) ? !honest : honest;
}

core::node_claims genome_adversary::phase3_claims(graph::node_id,
                                                  const core::node_claims& honest) {
  if (g_.claim_tamper == 0) return honest;
  core::node_claims out = honest;
  for (auto& [key, c] : out.p1_received)
    if (hit(rand_, g_.claim_tamper)) garble_words(c, g_.xor_mask, rand_);
  for (auto& [key, c] : out.p2_sent)
    if (hit(rand_, g_.claim_tamper)) garble_words(c.words, g_.xor_mask, rand_);
  return out;
}

std::vector<core::word> genome_adversary::phase3_source_input(
    const std::vector<core::word>& honest) {
  if (!hit(rand_, g_.input_lie)) return honest;
  std::vector<core::word> out = honest;
  garble_words(out, g_.xor_mask, rand_);
  return out;
}

bool genome_adversary::claim_hooks::strike(std::uint8_t level, graph::node_id a,
                                           graph::node_id b, std::uint64_t q,
                                           std::uint64_t tag) const {
  if (level == 0) return false;
  const std::uint64_t h = splitmix64(
      0x5712D5ULL ^ (static_cast<std::uint64_t>(a) + 1) * 0x9E3779B97F4A7C15ULL ^
      (static_cast<std::uint64_t>(b) + 1) * 0xC2B2AE3D27D4EB4FULL ^
      (q + 1) * 0x165667B19E3779F9ULL ^
      (static_cast<std::uint64_t>(g_.noise_salt) << 32) ^ tag);
  // `% 255` (not `& 0xFF`): level 255 must strike every pair, so the hunt's
  // corner genomes are exactly the all-or-nothing strategies.
  return h % 255 < level;
}

bb::value genome_adversary::claim_hooks::propose_payload(graph::node_id claimant,
                                                         graph::node_id receiver,
                                                         const bb::value& honest) {
  if (!strike(g_.digest_equivocate, claimant, receiver, 0, 0xE9F1)) return honest;
  bb::value out = honest;
  perturb_payload(out, rand_);
  return out;
}

bb::claim_digest genome_adversary::claim_hooks::announce_digest(
    graph::node_id claimant, graph::node_id receiver,
    const bb::claim_digest& honest) {
  if (!strike(g_.digest_garble, claimant, receiver, 0, 0x6A12B1E)) return honest;
  bb::claim_digest out = honest;
  out.words[rand_.below(out.words.size())] ^=
      static_cast<std::uint16_t>(1 + rand_.below(0xFFFF));
  return out;
}

std::optional<bb::claim_digest> genome_adversary::claim_hooks::echo_digest(
    graph::node_id participant, graph::node_id receiver, std::size_t q,
    const std::optional<bb::claim_digest>& honest) {
  if (strike(g_.echo_suppress, participant, receiver, q, 0xEC0)) return std::nullopt;
  return honest;
}

bool genome_adversary::claim_hooks::suppress_ready(graph::node_id participant,
                                                   graph::node_id receiver,
                                                   std::size_t q) {
  return strike(g_.ready_suppress, participant, receiver, q, 0x4EAD);
}

std::optional<bb::value> genome_adversary::claim_hooks::serve_retrieval(
    graph::node_id participant, graph::node_id requester, std::size_t q,
    const std::optional<bb::value>& honest) {
  if (!strike(g_.retrieval_forge, participant, requester, q, 0xF0F6E))
    return honest;
  bb::value forged = honest ? *honest : bb::value{};
  perturb_payload(forged, rand_);
  return forged;
}

// ---------------------------------------------------------------------------
// Scoring and novelty
// ---------------------------------------------------------------------------

std::int64_t margin_score(const run_record& rec) {
  std::int64_t score = 0;
  for (const obs::gauge_row& row : obs::gauge_table)
    if (row.scored) score += rec.gauges[row.id] < 0 ? 1000 : rec.gauges[row.id];
  return score;
}

namespace {

/// Order-sensitive 64-bit stream signature: fold values into an accumulator
/// with signature_mix, starting from signature_seed. Deterministic (pure
/// arithmetic, splitmix64's finalizer per step), so two runs fold to the
/// same signature iff they fed the same value sequence — which is what lets
/// a coverage-guided search treat "the deterministic counters and margin
/// gauges of this run" as a behavioral coordinate: novel signature = the
/// adversary drove the protocol through a combination of counter/gauge
/// outcomes no earlier probe produced. Collisions are the usual 2^-64 bet.
constexpr std::uint64_t signature_seed = 0x0b5e55ed5eedULL;

constexpr std::uint64_t signature_mix(std::uint64_t h, std::uint64_t v) {
  return splitmix64_finalize(h ^ (v + splitmix64_gamma + (h << 6) + (h >> 2)));
}

/// log2-style bucket for the big monotone counters: near-identical runs
/// land in the same bucket, so novelty reflects behavior shape, not noise.
std::uint64_t bucket(std::uint64_t v) {
  std::uint64_t b = 0;
  while (v != 0) {
    v >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

std::uint64_t record_signature(const run_record& rec) {
  std::uint64_t h = signature_seed;
  // Outcome tallies: raw (small, exact).
  h = signature_mix(h, static_cast<std::uint64_t>(rec.dispute_phases));
  h = signature_mix(h, static_cast<std::uint64_t>(rec.disputes));
  h = signature_mix(h, static_cast<std::uint64_t>(rec.convictions));
  h = signature_mix(h, static_cast<std::uint64_t>(rec.mismatch_instances));
  h = signature_mix(h, static_cast<std::uint64_t>(rec.phase1_only_instances));
  h = signature_mix(h, static_cast<std::uint64_t>(rec.default_outcome_instances));
  h = signature_mix(h, rec.counters[obs::counter::claim_fallbacks]);
  h = signature_mix(h, static_cast<std::uint64_t>(rec.ok() ? 1 : 0));
  // Scored gauges: raw (the scoring coordinate must stay fine-grained).
  for (const obs::gauge_row& row : obs::gauge_table)
    if (row.scored)
      h = signature_mix(h, static_cast<std::uint64_t>(rec.gauges[row.id]));
  // Work-volume counters: bucketed.
  h = signature_mix(h, bucket(obs::gf_ops(rec.counters)));
  h = signature_mix(h, bucket(rec.counters[obs::counter::cert_subgraphs]));
  h = signature_mix(h, bucket(rec.counters[obs::counter::claim_echoes]));
  h = signature_mix(h, bucket(rec.counters[obs::counter::claim_readys]));
  h = signature_mix(h, bucket(rec.dc1_claim_bits));
  return h;
}

// ---------------------------------------------------------------------------
// Evaluation contexts
// ---------------------------------------------------------------------------

std::vector<scenario> hunt_contexts(std::string_view families,
                                    std::uint64_t words, int instances) {
  const std::vector<scenario> base = select_scenarios(families);
  std::vector<scenario> out;
  for (const scenario& s : base) {
    if (s.f <= 0) continue;  // nothing to corrupt: the genome never acts
    if (s.propagation == core::propagation_mode::pipelined) continue;
    const bool dup = std::any_of(out.begin(), out.end(), [&](const scenario& t) {
      return t.topology == s.topology && t.f == s.f;
    });
    if (dup) continue;
    scenario c = s;
    c.family = "hunt";
    c.adversary = adversary_kind::hunted;
    c.claim_backend = bb::claim_backend::collapsed;
    c.flag_protocol = bb::bb_protocol::eig;
    c.propagation = core::propagation_mode::cut_through;
    c.words = words;
    if (instances > 0) c.instances = instances;
    c.rotate_sources = false;
    c.genome.clear();
    c.name = "hunt/" + to_string(s.topology.kind) + "-n" +
             std::to_string(topology_nodes(s.topology)) + "-f" +
             std::to_string(s.f);
    out.push_back(std::move(c));
  }
  if (out.empty())
    throw error("hunt: no fault-tolerant (f > 0) context in families '" +
                std::string(families) + "'");
  return out;
}

// ---------------------------------------------------------------------------
// Search engine
// ---------------------------------------------------------------------------

namespace {

hunt_genome random_genome(rng& evo) {
  hunt_genome g;
  for (const gene& f : genome_fields()) {
    switch (f.form) {
      case gene::shape::rate: {
        // Sparse bias: most hooks quiet, a few hot — dense all-hook genomes
        // just convict instantly and teach the search nothing.
        static constexpr std::uint16_t levels[] = {0, 0, 0, 0, 64, 128, 192, 255};
        f.set(g, levels[evo.below(std::size(levels))]);
        break;
      }
      case gene::shape::mask: {
        static constexpr std::uint16_t masks[] = {0xFFFF, 0xA5A5, 0x0F0F,
                                                  0x0001, 0};
        f.set(g, masks[evo.below(std::size(masks))]);
        break;
      }
      case gene::shape::flag:
        f.set(g, static_cast<std::uint16_t>(evo.below(2)));
        break;
      case gene::shape::salt:
        f.set(g, static_cast<std::uint16_t>(evo.below(256)));
        break;
    }
  }
  return g;
}

hunt_genome mutate(const hunt_genome& parent, rng& evo) {
  hunt_genome g = parent;
  const auto fields = genome_fields();
  const std::size_t edits = 1 + evo.below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const gene& f = fields[evo.below(fields.size())];
    switch (f.form) {
      case gene::shape::rate: {
        static constexpr std::uint16_t levels[] = {0, 32, 64, 128, 192, 255};
        f.set(g, levels[evo.below(std::size(levels))]);
        break;
      }
      case gene::shape::mask: {
        static constexpr std::uint16_t masks[] = {0xFFFF, 0xA5A5, 0x0F0F,
                                                  0x0001, 0};
        f.set(g, masks[evo.below(std::size(masks))]);
        break;
      }
      case gene::shape::flag:
        f.set(g, static_cast<std::uint16_t>(f.get(g) == 0 ? 1 : 0));
        break;
      case gene::shape::salt:
        f.set(g, static_cast<std::uint16_t>(evo.below(256)));
        break;
    }
  }
  return g;
}

hunt_genome crossover(const hunt_genome& a, const hunt_genome& b, rng& evo) {
  hunt_genome g;
  for (const gene& f : genome_fields())
    f.set(g, evo.chance(0.5) ? f.get(a) : f.get(b));
  return g;
}

/// Hand-designed archetypes the first generation starts from: each pairs a
/// dispute trigger (DC1 only runs after a mismatch or false flag) with one
/// claim-backend squeeze — the combinations the margin gauges exist to watch.
std::vector<hunt_genome> seed_population(int population, rng& evo) {
  std::vector<hunt_genome> pop;
  {
    hunt_genome g;  // relay garble + ready starvation (quorum_slack)
    g.p1_forward = 255;
    g.ready_suppress = 255;
    pop.push_back(g);
  }
  {
    hunt_genome g;  // relay garble + equivocation (hold_surplus)
    g.p1_forward = 255;
    g.digest_equivocate = 128;
    pop.push_back(g);
  }
  {
    hunt_genome g;  // false flags + echo starvation
    g.flag_flip = 255;
    g.echo_suppress = 192;
    pop.push_back(g);
  }
  {
    hunt_genome g;  // corrupt source equivocating at the root
    g.corrupt_source = 1;
    g.p1_source = 255;
    g.victim_mode = 1;
    pop.push_back(g);
  }
  {
    hunt_genome g;  // lying claims + lying source input (conviction churn)
    g.corrupt_source = 1;
    g.claim_tamper = 128;
    g.input_lie = 255;
    pop.push_back(g);
  }
  {
    hunt_genome g;  // stealth-shaped: one coded-symbol lie per victim
    g.p2_lie = 255;
    g.victim_mode = 1;
    g.ready_suppress = 128;
    pop.push_back(g);
  }
  while (static_cast<int>(pop.size()) < population) pop.push_back(random_genome(evo));
  pop.resize(static_cast<std::size_t>(population));
  return pop;
}

struct probe {
  hunt_genome genome;
  int context = 0;
  int genome_index = 0;
  int run_index = 0;
};

corpus_entry entry_of(const probe& p, const scenario& ctx, const run_record& rec) {
  corpus_entry e;
  e.context = ctx.name;
  e.genome = p.genome;
  e.run_index = p.run_index;
  e.signature = record_signature(rec);
  for (const obs::gauge_row& row : obs::gauge_table)
    if (row.scored) e.margins[row.id] = rec.gauges[row.id];
  e.score = margin_score(rec);
  e.ok = rec.ok();
  return e;
}

}  // namespace

hunt_corpus run_hunt(const hunt_config& cfg,
                     const std::function<void(const std::string&)>& log) {
  if (cfg.budget <= 0) throw error("hunt: budget must be positive");
  const int population_size = std::max(4, cfg.population);
  const std::vector<scenario> contexts =
      hunt_contexts(cfg.families, cfg.words, cfg.instances);

  hunt_corpus corpus;
  corpus.families = cfg.families;
  corpus.seed = cfg.seed;
  corpus.budget = cfg.budget;
  corpus.words = cfg.words;
  corpus.instances = cfg.instances;

  // Every evolution decision draws from this one stream, on this thread, in
  // probe order — the whole determinism contract hangs on that discipline.
  rng evo(splitmix64(cfg.seed ^ 0x4009E4D5ULL));
  std::vector<hunt_genome> population = seed_population(population_size, evo);

  // (context, gauge) -> position in corpus.champions, stable across updates.
  std::map<std::pair<int, obs::gauge>, std::size_t> champ_at;
  std::set<std::uint64_t> seen;

  int evals = 0;
  int generation = 0;
  while (evals < cfg.budget) {
    // --- build this generation's probe list (deterministic order) ---
    std::vector<probe> probes;
    for (std::size_t gi = 0; gi < population.size(); ++gi) {
      for (std::size_t c = 0; c < contexts.size(); ++c) {
        if (evals + static_cast<int>(probes.size()) >= cfg.budget) break;
        probe p;
        p.genome = population[gi];
        p.context = static_cast<int>(c);
        p.genome_index = static_cast<int>(gi);
        p.run_index = evals + static_cast<int>(probes.size());
        probes.push_back(std::move(p));
      }
    }

    // --- evaluate across the workers, slot-indexed ---
    std::vector<run_record> records(probes.size());
    std::vector<std::string> failures(probes.size());
    parallel_for_each_index(cfg.jobs, probes.size(), [&](std::size_t i) {
      scenario s = contexts[static_cast<std::size_t>(probes[i].context)];
      s.genome = probes[i].genome.to_params();
      try {
        records[i] = execute_scenario(s, probes[i].run_index, cfg.seed);
      } catch (const std::exception& ex) {
        failures[i] = ex.what();
      }
    });

    // --- fold results, strictly in probe order ---
    std::vector<std::int64_t> fitness(population.size(),
                                      std::numeric_limits<std::int64_t>::max());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ++evals;
      if (!failures[i].empty()) {
        ++corpus.errors;
        continue;
      }
      const run_record& rec = records[i];
      const scenario& ctx = contexts[static_cast<std::size_t>(probes[i].context)];
      const corpus_entry e = entry_of(probes[i], ctx, rec);
      fitness[static_cast<std::size_t>(probes[i].genome_index)] = std::min(
          fitness[static_cast<std::size_t>(probes[i].genome_index)], e.score);
      if (!e.ok) {
        ++corpus.violations;
        corpus.violators.push_back(e);
      }
      if (seen.insert(e.signature).second) corpus.novel.push_back(e);
      for (const obs::gauge_row& row : obs::gauge_table) {
        const std::int64_t margin = e.margins[row.id];
        if (!row.scored || margin < 0) continue;  // < 0: never exercised
        const std::pair<int, obs::gauge> key{probes[i].context, row.id};
        const auto it = champ_at.find(key);
        if (it == champ_at.end()) {
          corpus_entry champ = e;
          champ.gauge = row.name;
          champ_at.emplace(key, corpus.champions.size());
          corpus.champions.push_back(std::move(champ));
        } else if (margin < corpus.champions[it->second].margins[row.id]) {
          corpus_entry champ = e;
          champ.gauge = row.name;
          corpus.champions[it->second] = std::move(champ);
        }
      }
    }
    corpus.evaluations = evals;

    // --- selection: elites + champion genomes, refilled by variation ---
    std::vector<std::size_t> order(population.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return fitness[a] < fitness[b];
    });
    std::vector<hunt_genome> parents;
    const auto adopt = [&](const hunt_genome& g) {
      if (std::find(parents.begin(), parents.end(), g) == parents.end())
        parents.push_back(g);
    };
    const std::size_t elite_count =
        std::max<std::size_t>(2, population.size() / 4);
    for (std::size_t r = 0; r < elite_count && r < order.size(); ++r)
      adopt(population[order[r]]);
    for (const corpus_entry& champ : corpus.champions) adopt(champ.genome);

    std::vector<hunt_genome> next = parents;
    if (next.size() > static_cast<std::size_t>(population_size))
      next.resize(static_cast<std::size_t>(population_size));
    while (next.size() < static_cast<std::size_t>(population_size)) {
      const std::uint64_t roll = evo.below(10);
      if (roll < 6 || parents.size() < 2) {
        next.push_back(mutate(parents[evo.below(parents.size())], evo));
      } else if (roll < 8) {
        const std::size_t a = evo.below(parents.size());
        std::size_t b = evo.below(parents.size() - 1);
        if (b >= a) ++b;
        next.push_back(crossover(parents[a], parents[b], evo));
      } else {
        next.push_back(random_genome(evo));
      }
    }
    population = std::move(next);
    ++generation;

    if (log) {
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (const corpus_entry& champ : corpus.champions)
        best = std::min(best, champ.score);
      log("hunt: generation " + std::to_string(generation) + ", " +
          std::to_string(evals) + "/" + std::to_string(cfg.budget) +
          " evaluations, " + std::to_string(corpus.champions.size()) +
          " champions (best score " +
          (corpus.champions.empty() ? std::string("-")
                                    : std::to_string(best)) +
          "), " + std::to_string(corpus.novel.size()) + " novel, " +
          std::to_string(corpus.violations) + " violations");
    }
  }
  return corpus;
}

run_record replay_entry(const hunt_corpus& corpus, const corpus_entry& entry) {
  const std::vector<scenario> contexts =
      hunt_contexts(corpus.families, corpus.words, corpus.instances);
  for (const scenario& ctx : contexts) {
    if (ctx.name != entry.context) continue;
    scenario s = ctx;
    s.genome = entry.genome.to_params();
    return execute_scenario(s, entry.run_index, corpus.seed);
  }
  throw error("hunt: corpus entry references unknown context '" + entry.context +
              "' — families/words/instances drifted since the corpus was built");
}

// ---------------------------------------------------------------------------
// Corpus persistence
// ---------------------------------------------------------------------------

namespace {

json entry_json(const corpus_entry& e) {
  json obj = json::object();
  obj.set("context", json::str(e.context));
  if (!e.gauge.empty()) obj.set("gauge", json::str(e.gauge));
  obj.set("genome", e.genome.to_json());
  obj.set("run_index", json::num(e.run_index));
  obj.set("signature", json::str(hex_seed(e.signature)));
  for (const obs::gauge_row& row : obs::gauge_table)
    if (row.scored) obj.set(row.name, json::num(e.margins[row.id]));
  obj.set("score", json::num(e.score));
  obj.set("ok", json::boolean(e.ok));
  return obj;
}

/// The member named `key`, which must exist and be of kind `want` (`what`
/// names that kind in the error).
const json& member(const json& obj, std::string_view key, json::kind want,
                   const char* what) {
  const json* v = obj.find(key);
  if (v == nullptr)
    throw error("hunt corpus: missing key '" + std::string(key) + "'");
  if (v->type() != want)
    throw error("hunt corpus: key '" + std::string(key) + "' is not " + what);
  return *v;
}

std::int64_t int64_member(const json& obj, std::string_view key) {
  return member(obj, key, json::kind::number_int, "a number").int_value();
}

/// Fields the corpus stores as `int` must fit one, not wrap silently.
int int_member(const json& obj, std::string_view key) {
  const std::int64_t v = int64_member(obj, key);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw error("hunt corpus: key '" + std::string(key) + "' is out of int range");
  return static_cast<int>(v);
}

const std::string& str_member(const json& obj, std::string_view key) {
  return member(obj, key, json::kind::string, "a string").string_value();
}

std::uint64_t seed_member(const json& obj, std::string_view key) {
  return parse_hex_seed(str_member(obj, key));
}

corpus_entry entry_from_json(const json& obj) {
  corpus_entry e;
  e.context = str_member(obj, "context");
  if (obj.find("gauge") != nullptr) e.gauge = str_member(obj, "gauge");
  const json& genome =
      member(obj, "genome", json::kind::object, "an object");
  std::string params;
  for (const auto& [key, v] : genome.members()) {
    if (v.type() != json::kind::number_int)
      throw error("hunt corpus: genome field '" + key + "' is not a number");
    if (!params.empty()) params.push_back(',');
    params += key + "=" + std::to_string(v.int_value());
  }
  e.genome = hunt_genome::from_params(params);
  e.run_index = int_member(obj, "run_index");
  e.signature = seed_member(obj, "signature");
  for (const obs::gauge_row& row : obs::gauge_table)
    if (row.scored) e.margins[row.id] = int64_member(obj, row.name);
  e.score = int64_member(obj, "score");
  e.ok = member(obj, "ok", json::kind::boolean, "a boolean").bool_value();
  return e;
}

std::vector<corpus_entry> entries_from_json(const json& doc,
                                            std::string_view key) {
  std::vector<corpus_entry> out;
  for (const json& e : member(doc, key, json::kind::array, "an array").elements())
    out.push_back(entry_from_json(e));
  return out;
}

}  // namespace

json corpus_document(const hunt_corpus& corpus) {
  json doc = json::object();
  doc.set("kind", json::str("nabcast-hunt-corpus"));
  doc.set("families", json::str(corpus.families));
  doc.set("seed", json::str(hex_seed(corpus.seed)));
  doc.set("budget", json::num(corpus.budget));
  doc.set("words", json::num(corpus.words));
  doc.set("instances", json::num(corpus.instances));
  doc.set("evaluations", json::num(corpus.evaluations));
  doc.set("violations", json::num(corpus.violations));
  doc.set("errors", json::num(corpus.errors));
  json champions = json::array();
  for (const corpus_entry& e : corpus.champions) champions.push(entry_json(e));
  doc.set("champions", std::move(champions));
  json novel = json::array();
  for (const corpus_entry& e : corpus.novel) novel.push(entry_json(e));
  doc.set("novel", std::move(novel));
  json violators = json::array();
  for (const corpus_entry& e : corpus.violators) violators.push(entry_json(e));
  doc.set("violators", std::move(violators));
  return doc;
}

hunt_corpus corpus_from_text(std::string_view text) {
  const json doc = json::parse(text);
  if (doc.type() != json::kind::object)
    throw error("hunt corpus: document is not a JSON object");
  if (str_member(doc, "kind") != "nabcast-hunt-corpus")
    throw error("hunt corpus: not a hunt corpus document");
  hunt_corpus corpus;
  corpus.families = str_member(doc, "families");
  corpus.seed = seed_member(doc, "seed");
  corpus.budget = int_member(doc, "budget");
  corpus.words = static_cast<std::uint64_t>(int64_member(doc, "words"));
  corpus.instances = int_member(doc, "instances");
  corpus.evaluations = int_member(doc, "evaluations");
  corpus.violations = int_member(doc, "violations");
  corpus.errors = int_member(doc, "errors");
  corpus.champions = entries_from_json(doc, "champions");
  corpus.novel = entries_from_json(doc, "novel");
  corpus.violators = entries_from_json(doc, "violators");
  return corpus;
}

}  // namespace nab::runtime
