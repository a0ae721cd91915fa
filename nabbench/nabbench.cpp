// NAB session benchmark.
//
// Drives core::session through its public API in one single-threaded closed
// loop: one process, one caller, and the next value goes out only after the
// previous instance returned, as the source of a replicated log would send
// it. Each session starts cold (omega_cache cleared) and its set-up is timed:
// the constructor, next_rho() (Omega analysis, coding, certification),
// next_gamma() (arborescence plan) and omega_cache::channel_routes_for().
//
//   nabbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//
// --trace 0 measures the end-to-end metrics with no collector installed,
// correcting each timed operation for the machine's speed around it
// (speed_probe). --trace 1 runs every session twice, untraced and under obs
// collectors in alternating order, and reports per-layer self times and
// counts (README.md).
// Every metric is printed by name with its unit; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}. Any invariant
// violation or determinism mismatch makes the exit code nonzero.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/nab.hpp"
#include "gf/gf2_16.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "runtime/scenario.hpp"
#include "sim/link_faults.hpp"

namespace {

using namespace nab;
using clock_type = std::chrono::steady_clock;
using runtime::adversary_kind;
using runtime::topology_kind;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

clock_type::time_point after(clock_type::time_point t, double seconds) {
  return t + std::chrono::duration_cast<clock_type::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Linear-interpolation quantile (the "type 7" estimator).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------------ machine speed

/// The host is shared. For seconds to minutes at a time it runs the same
/// code up to ~1.8x slower: other tenants load the core's caches and ports,
/// while the clock rate stays put. No repetition inside one run escapes a
/// stretch that long, so a run also measures how fast the machine is.
/// This fixed kernel, which no libnab change touches, runs between the
/// timed operations: a GF(2^16)-style log/exp table pass over a 4096-word
/// row (load-bound) and four xorshift streams with a data-dependent branch
/// (ALU-bound). Of the kernels tried on the baseline host (pointer chase,
/// multiply chain, sort, std::map, these two alone and together), the two
/// together slowed most like set-ups and instances on every workload. Its
/// own time never enters a timed operation.
class speed_probe {
 public:
  /// The kernel's median wall on the baseline host in its fast state
  /// (META.json): the scale that turns the kernel's time into a factor.
  static constexpr double nominal_s = 105e-6;

  speed_probe() : log_(65536), exp_(131072), seed_row_(4096), row_(4096) {
    for (std::size_t i = 0; i < log_.size(); ++i) log_[i] = static_cast<std::uint16_t>(i * 40503u);
    for (std::size_t i = 0; i < exp_.size(); ++i)
      exp_[i] = static_cast<std::uint16_t>(i * 2654435761u);
    for (std::size_t i = 0; i < seed_row_.size(); ++i)
      seed_row_[i] = static_cast<std::uint16_t>(runtime::splitmix64(i));
  }

  /// Starts the share accounting of tick().
  void start() {
    start_ = clock_type::now();
    busy_ = 0.0;
  }

  /// Runs the kernel until it has taken `share` of the wall since start().
  void tick(double share) {
    while (busy_ < share * seconds_between(start_, clock_type::now())) busy_ += run_once();
  }

  std::size_t mark() const { return samples_.size(); }

  /// Speed factor of an operation that started at `mark` and whose tick()
  /// just ended: the kernel's nominal time over the median of the `window`
  /// samples before the operation and the `window` samples after it. The
  /// factor is below 1 on a slow stretch.
  double speed_around(std::size_t mark, std::size_t window) const {
    const std::size_t lo = mark > window ? mark - window : 0;
    const std::size_t hi = std::min(samples_.size(), mark + window);
    if (lo >= hi) return 1.0;
    const std::vector<double> near(samples_.begin() + static_cast<std::ptrdiff_t>(lo),
                                   samples_.begin() + static_cast<std::ptrdiff_t>(hi));
    return nominal_s / quantile(near, 0.5);
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  double run_once() {
    const auto t0 = clock_type::now();
    row_ = seed_row_;
    for (std::size_t pass = 0; pass < 16; ++pass) {
      const std::size_t shift = log_[pass + 2];
      for (auto& w : row_) w ^= w == 0 ? 0 : exp_[static_cast<std::size_t>(log_[w]) + shift];
    }
    std::array<std::uint64_t, 4> x = {row_[0] | 1u, row_[1] | 1u, row_[2] | 1u, row_[3] | 1u};
    std::uint64_t acc = 0;
    for (int k = 0; k < 16000; ++k) {
      for (auto& v : x) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
      }
      if (((x[0] ^ x[1]) & 1) != 0)
        acc += x[2];
      else
        acc ^= x[3];
    }
    sink_ = sink_ + acc;
    const double s = seconds_between(t0, clock_type::now());
    samples_.push_back(s);
    return s;
  }

  std::vector<std::uint16_t> log_;
  std::vector<std::uint16_t> exp_;
  std::vector<std::uint16_t> seed_row_;
  std::vector<std::uint16_t> row_;
  std::vector<double> samples_;
  clock_type::time_point start_ = clock_type::now();
  double busy_ = 0.0;
  volatile std::uint64_t sink_ = 0;
};

/// Share of a measured pass's wall given to the speed probe, and how many of
/// its samples on each side of an operation give the operation's factor.
constexpr double probe_share = 0.1;
constexpr std::size_t probe_window = 16;

// ------------------------------------------------------------------ workloads

struct workload {
  const char* name;
  runtime::topology_spec topology;
  int f;
  adversary_kind adversary;
  bb::claim_backend claims;
  std::size_t words;  ///< 16-bit words per value
  int instances;      ///< instances per session
  int cycle;          ///< distinct seed-derived sessions before inputs repeat
  const char* loss;   ///< "none" or a sim::parse_loss_spec preset
};

// Why each workload exists is recorded in META.json next to this file.
const std::vector<workload>& workloads() {
  const runtime::topology_spec k16{.kind = topology_kind::complete, .n = 16};
  const runtime::topology_spec q5{.kind = topology_kind::hypercube, .param_a = 5,
                                  .cap_lo = 2};
  const runtime::topology_spec k13{.kind = topology_kind::complete, .n = 13};
  static const std::vector<workload> all = {
      {"stream_sparse", q5, 2, adversary_kind::honest, bb::claim_backend::auto_select,
       4096, 100, 1, "none"},
      {"dispute_churn", k13, 3, adversary_kind::stealth, bb::claim_backend::collapsed,
       1024, 16, 12, "none"},
      {"lossy_dense", k16, 2, adversary_kind::honest, bb::claim_backend::auto_select,
       4096, 100, 2, "bursty"},
  };
  return all;
}

// ------------------------------------------------------------------ inputs

constexpr graph::node_id source = 0;

/// Everything one session consumes, generated from (workload seed, slot)
/// before any timer starts.
struct session_inputs {
  int slot = 0;
  sim::fault_set faults;
  std::uint64_t coding_seed = 0;
  std::uint64_t adversary_seed = 0;
  std::uint64_t loss_seed = 0;
  std::vector<std::vector<core::word>> values;
};

session_inputs make_inputs(const workload& w, int n, std::uint64_t seed, int slot,
                           int instances, std::size_t words) {
  const std::uint64_t s = runtime::derive_run_seed(seed, static_cast<std::uint64_t>(slot));
  session_inputs in;
  in.slot = slot;
  // f distinct corrupt nodes, never the source: every workload measures an
  // honest broadcaster (the stealth adversary stretches dispute control).
  rng pick(runtime::splitmix64(s ^ 0xc0ffeeULL));
  std::vector<graph::node_id> pool;
  for (graph::node_id v = 0; v < n; ++v)
    if (v != source) pool.push_back(v);
  std::vector<graph::node_id> corrupt;
  for (int i = 0; i < w.f; ++i) {
    const auto at = static_cast<std::ptrdiff_t>(pick.below(pool.size()));
    corrupt.push_back(pool[static_cast<std::size_t>(at)]);
    pool.erase(pool.begin() + at);
  }
  std::sort(corrupt.begin(), corrupt.end());
  in.faults = sim::fault_set(n, corrupt);
  in.coding_seed = runtime::splitmix64(s ^ 0x5eedULL);
  in.adversary_seed = runtime::splitmix64(s ^ 0xadbeefULL);
  in.loss_seed = runtime::splitmix64(s ^ 0x1055eedULL);
  rng draw(runtime::splitmix64(s ^ 0x1235813ULL));
  in.values.assign(static_cast<std::size_t>(instances), std::vector<core::word>(words));
  for (auto& value : in.values)
    for (auto& x : value) x = static_cast<core::word>(draw.below(65536));
  return in;
}

// ------------------------------------------------------------------ tracing

struct span_total {
  double self_s = 0.0;
  double incl_s = 0.0;
  double tau = 0.0;
};
using span_table = std::map<std::string, span_total>;

/// Self time of a span = its wall minus the wall of its direct children.
void fold_spans(const obs::collector& c, span_table& out) {
  const auto& spans = c.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const obs::span_record& s : spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.wall_end - s.wall_begin;
  for (const obs::span_record& s : spans) {
    span_total& t = out[s.name];
    const double wall = s.wall_end - s.wall_begin;
    t.incl_s += wall;
    t.self_s += wall - child[static_cast<std::size_t>(s.id)];
    if (s.tau_begin >= 0.0 && s.tau_end >= 0.0) t.tau += s.tau_end - s.tau_begin;
  }
}

using counter_array = std::array<std::uint64_t, obs::counter_count>;

std::uint64_t gf_words(const obs::collector& c) {
  return c.value(obs::counter::gf_axpy_words) + c.value(obs::counter::gf_scale_words);
}

/// The traced pass's collectors: one installed during set-up, one during
/// the instance loop, folded and reset after every session.
struct tracer {
  obs::collector setup;
  obs::collector loop;
  span_table setup_spans;
  span_table loop_spans;
  counter_array setup_counters{};
  counter_array loop_counters{};
  std::uint64_t refresh_gf_words = 0;  ///< GF words paid inside bench/refresh
  double setup_wall = 0.0;
  double loop_wall = 0.0;
  int sessions = 0;
  int instances = 0;
  int phases = 0;
  int convictions = 0;
  std::uint64_t claim_bits = 0;

  void fold() {
    fold_spans(setup, setup_spans);
    fold_spans(loop, loop_spans);
    for (int i = 0; i < obs::counter_count; ++i) {
      const auto c = static_cast<obs::counter>(i);
      setup_counters[static_cast<std::size_t>(i)] += setup.value(c);
      loop_counters[static_cast<std::size_t>(i)] += loop.value(c);
    }
    setup.reset();
    loop.reset();
  }
};

// ------------------------------------------------------------------ sessions

/// The deterministic quantities of one complete session. Every repetition
/// of a slot at the same seed must reproduce them exactly; the obs-derived
/// half is only known when a collector is installed (traced pass).
struct fingerprint {
  double sim_elapsed = 0.0;
  std::uint64_t bits = 0;
  int phases = 0;
  int convictions = 0;
  std::uint64_t claim_bits = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t setup_gf_words = 0;
  std::uint64_t loop_gf_words = 0;

  bool operator==(const fingerprint&) const = default;
};

struct session_result {
  int slot = 0;
  bool complete = false;
  bool ok = true;
  double setup_s = 0.0;
  double setup_speed = 1.0;  ///< speed factor around the set-up (speed_probe)
  std::vector<double> instance_s;
  std::vector<double> instance_speed;  ///< speed factor around each instance
  std::vector<double> stall_s;
  std::uint64_t delivered_bits = 0;
  int attempted = 0;
  fingerprint fp;
};

/// Cold set-up of one session: cache cleared and config copied first
/// (untimed), then the four public calls, each in a span of its own.
double timed_setup(std::optional<core::session>& s, const workload& w,
                   const graph::digraph& g, const session_inputs& in,
                   core::nab_adversary* adv) {
  s.reset();
  core::omega_cache::instance().clear();
  core::session_config cfg;
  cfg.g = g;
  cfg.f = w.f;
  cfg.source = source;
  cfg.coding_seed = in.coding_seed;
  cfg.flag_protocol = bb::bb_protocol::auto_select;
  cfg.claim_backend = w.claims;
  const auto t0 = clock_type::now();
  {
    obs::scoped_span span("bench/session");
    s.emplace(std::move(cfg), in.faults, adv);
  }
  {
    obs::scoped_span span("bench/next_rho");
    s->next_rho();
  }
  {
    obs::scoped_span span("bench/next_gamma");
    s->next_gamma();
  }
  {
    obs::scoped_span span("bench/channel_routes");
    core::omega_cache::instance().channel_routes_for(g, w.f);
  }
  return seconds_between(t0, clock_type::now());
}

void violation(const workload& w, const session_inputs& in, const std::string& what) {
  std::fprintf(stderr, "nabbench: %s slot %d: %s\n", w.name, in.slot, what.c_str());
}

/// Runs one session: timed cold set-up, then up to `max_instances` values
/// one at a time. `may_stop(k)` is asked before instance k, for k >= 1.
template <class StopRule>
session_result run_session(const workload& w, const graph::digraph& g,
                           const session_inputs& in, int max_instances,
                           const StopRule& may_stop, tracer* tr, speed_probe* probe = nullptr) {
  session_result r;
  r.slot = in.slot;
  auto adv = runtime::make_adversary(w.adversary, in.adversary_seed, 1);
  std::optional<sim::link_fault_model> model;
  std::optional<sim::scoped_link_faults> model_scope;
  if (std::string_view(w.loss) != "none") {
    model.emplace(sim::parse_loss_spec(w.loss), in.loss_seed);
    model_scope.emplace(&*model);
  }
  std::optional<core::session> s;
  std::vector<clock_type::time_point> begin;
  std::vector<clock_type::time_point> end;
  std::vector<bool> disputed;
  int barren = 0;  ///< dispute phases that found no dispute and convicted no one
  try {
    {
      obs::scoped_collector col(tr != nullptr ? &tr->setup : nullptr);
      const std::size_t mark = probe != nullptr ? probe->mark() : 0;
      r.setup_s = timed_setup(s, w, g, in, adv.get());
      if (probe != nullptr) {
        probe->tick(probe_share);
        r.setup_speed = probe->speed_around(mark, probe_window);
      }
    }
    obs::scoped_collector col(tr != nullptr ? &tr->loop : nullptr);
    for (int i = 0; i < max_instances; ++i) {
      if (i > 0 && may_stop(i)) break;
      const std::size_t mark = probe != nullptr ? probe->mark() : 0;
      const auto t0 = clock_type::now();
      {
        // Mid-stream re-analysis of G_{k+1} happens here (a no-op while G_k
        // is unchanged), so the trace can split it from the instance.
        obs::scoped_span span("bench/refresh");
        const std::uint64_t gf_before = tr != nullptr ? gf_words(tr->loop) : 0;
        if (s->current_graph().is_active(source)) {
          s->next_rho();
          s->next_gamma();
        }
        if (tr != nullptr) tr->refresh_gf_words += gf_words(tr->loop) - gf_before;
      }
      core::instance_report rep;
      {
        obs::scoped_span span("bench/run_instance");
        rep = s->run_instance(in.values[static_cast<std::size_t>(i)]);
      }
      const auto t1 = clock_type::now();
      begin.push_back(t0);
      end.push_back(t1);
      disputed.push_back(rep.dispute_phase_run);
      if (rep.dispute_phase_run && rep.new_disputes.empty() && rep.newly_convicted.empty())
        ++barren;
      r.instance_s.push_back(seconds_between(t0, t1));
      r.delivered_bits += 16 * in.values[static_cast<std::size_t>(i)].size();
      ++r.attempted;
      if (probe != nullptr) {
        probe->tick(probe_share);
        r.instance_speed.push_back(probe->speed_around(mark, probe_window));
      }
      if (!rep.agreement || !rep.validity) {
        violation(w, in, "instance " + std::to_string(i) + " broke " +
                             (rep.agreement ? "validity" : "agreement"));
        r.ok = false;
      }
    }
  } catch (const std::exception& e) {
    violation(w, in, std::string("threw: ") + e.what());
    r.ok = false;
    r.attempted = max_instances;
    return r;
  }
  r.complete = r.attempted == static_cast<int>(in.values.size());

  // Stall of a dispute phase: from the start of the instance that ran
  // Phase 3 to the end of the next one, which re-certifies G_{k+1}.
  for (std::size_t i = 0; i + 1 < disputed.size(); ++i)
    if (disputed[i]) r.stall_s.push_back(seconds_between(begin[i], end[i + 1]));

  const core::session_stats& st = s->stats();
  const core::dispute_record& rec = s->disputes();
  r.fp.sim_elapsed = st.elapsed;
  r.fp.bits = st.bits_broadcast;
  r.fp.phases = st.dispute_phases;
  r.fp.convictions = static_cast<int>(rec.convicted().size());
  r.fp.claim_bits = st.claim_bits;
  if (tr != nullptr) {
    r.fp.link_drops = tr->loop.value(obs::counter::link_drops);
    r.fp.retransmits = tr->loop.value(obs::counter::link_retransmits);
    r.fp.setup_gf_words = gf_words(tr->setup);
    r.fp.loop_gf_words = gf_words(tr->loop);
    tr->setup_wall += r.setup_s;
    for (double x : r.instance_s) tr->loop_wall += x;
    tr->sessions += 1;
    tr->instances += r.attempted;
    tr->phases += r.fp.phases;
    tr->convictions += r.fp.convictions;
    tr->claim_bits += r.fp.claim_bits;
    tr->fold();
  }

  // Paper invariants against the generated fault set.
  for (const auto& [a, b] : rec.pairs())
    if (in.faults.is_honest(a) && in.faults.is_honest(b)) {
      violation(w, in, "honest-honest dispute " + std::to_string(a) + "-" + std::to_string(b));
      r.ok = false;
    }
  for (graph::node_id v : rec.convicted())
    if (in.faults.is_honest(v)) {
      violation(w, in, "honest node " + std::to_string(v) + " convicted");
      r.ok = false;
    }
  // Erasures can raise the mismatch flag with no Byzantine evidence to
  // find; on lossy links such barren phases are exempt from the bound (the
  // fleet runner's rule) but disputes and convictions never are.
  const int phases = st.dispute_phases - (model ? barren : 0);
  if (phases > w.f * (w.f + 1)) {
    violation(w, in, std::to_string(phases) + " dispute phases exceed f(f+1)");
    r.ok = false;
  }
  if (w.adversary == adversary_kind::honest && (phases != 0 || !rec.empty())) {
    violation(w, in, "honest workload ran " + std::to_string(phases) +
                         " evidence-finding dispute phases");
    r.ok = false;
  }
  return r;
}

// ------------------------------------------------------------------ statistics

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

// ------------------------------------------------------------------ passes

/// An extra cold set-up, run between sessions.
struct extra_setup {
  int slot = 0;
  double s = 0.0;
  double speed = 1.0;  ///< speed factor around it (speed_probe)
};

struct pass_result {
  std::vector<session_result> sessions;
  std::vector<extra_setup> setup_only;
};

struct options {
  const workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

class bench {
 public:
  explicit bench(const options& opt) : w_(*opt.w) {
    rng topo_rand(opt.seed);
    g_ = runtime::build_topology(w_.topology, topo_rand);
    instances_ = opt.tiny ? std::min(w_.instances, 6) : w_.instances;
    cycle_ = opt.tiny ? std::min(w_.cycle, 2) : w_.cycle;
    const std::size_t words = opt.tiny ? std::size_t{64} : w_.words;
    min_repeats_ = opt.tiny ? 1 : 3;
    for (int slot = 0; slot < cycle_; ++slot)
      inputs_.push_back(make_inputs(w_, g_.universe(), opt.seed, slot, instances_, words));
    // The paper's bound, computed outside every timed region.
    bound_ = core::compute_bounds(g_, source, w_.f).capacity_upper_bound;
  }

  /// One untimed session per process before timing: first-touch pages, GF
  /// tables and the kernel dispatch are paid here, not by the first sample.
  bool warm_up() {
    return run_session(w_, g_, inputs_[0], instances_, [](int) { return false; }, nullptr)
        .ok;
  }

  /// Sessions cycling the slots until the budget is spent and every slot
  /// completed `min_repeats_` times. After each session, extra cold set-ups
  /// keep set-up at `setup_share` of the timed wall, so set-up samples are
  /// many and spread over the whole run.
  pass_result run_untraced(double seconds) {
    constexpr double setup_share = 1.0 / 6.0;
    pass_result out;
    const auto start = clock_type::now();
    const auto deadline = after(start, seconds);
    double setup_wall = 0.0;
    std::vector<int> completed(static_cast<std::size_t>(cycle_), 0);
    const auto done = [&] {
      return clock_type::now() >= deadline &&
             *std::min_element(completed.begin(), completed.end()) >= min_repeats_;
    };
    probe_.start();
    for (int k = 0; !done(); ++k) {
      const session_inputs& in = inputs_[static_cast<std::size_t>(k % cycle_)];
      session_result r =
          run_session(w_, g_, in, instances_, [&](int) { return done(); }, nullptr, &probe_);
      setup_wall += r.setup_s;
      if (r.complete) ++completed[static_cast<std::size_t>(in.slot)];
      while (setup_wall < setup_share * seconds_between(start, clock_type::now())) {
        auto adv = runtime::make_adversary(w_.adversary, in.adversary_seed, 1);
        std::optional<core::session> s;
        const std::size_t mark = probe_.mark();
        const double t = timed_setup(s, w_, g_, in, adv.get());
        setup_wall += t;
        probe_.tick(probe_share);
        out.setup_only.push_back({in.slot, t, probe_.speed_around(mark, probe_window)});
      }
      out.sessions.push_back(std::move(r));
    }
    return out;
  }

  /// Runs every session twice, untraced and under the tracer's collectors,
  /// alternating which goes first so drift in the machine cancels out of
  /// trace.overhead. Stops once the budget is spent and a full cycle ran.
  void run_paired(double seconds, pass_result& plain, pass_result& traced, tracer& tr) {
    const auto deadline = after(clock_type::now(), seconds);
    const auto never = [](int) { return false; };
    for (int k = 0; k < cycle_ || clock_type::now() < deadline; ++k) {
      const session_inputs& in = inputs_[static_cast<std::size_t>(k % cycle_)];
      for (int side = 0; side < 2; ++side) {
        const bool trace = (side + k) % 2 == 1;
        (trace ? traced : plain)
            .sessions.push_back(
                run_session(w_, g_, in, instances_, never, trace ? &tr : nullptr));
      }
    }
  }

  /// Prints each slot's fingerprint; every complete repetition of a slot
  /// must reproduce the first one exactly.
  bool check_fingerprints(const pass_result& p, const char* label) const {
    bool ok = true;
    std::map<int, fingerprint> first;
    for (const session_result& r : p.sessions) {
      if (!r.complete || !r.ok) continue;
      const auto [it, fresh] = first.emplace(r.slot, r.fp);
      if (!fresh && !(it->second == r.fp)) {
        std::fprintf(stderr, "nabbench: %s slot %d: %s fingerprint differs between repetitions\n",
                     w_.name, r.slot, label);
        ok = false;
      }
    }
    const bool traced = std::string_view(label) == "traced";
    for (const auto& [slot, fp] : first) {
      std::printf("fingerprint %s slot=%d capacity_fraction=%.17g sim_elapsed=%.17g "
                  "bits=%llu dispute_phases=%d convictions=%d claim_bits=%llu",
                  label, slot, fraction(fp.bits, fp.sim_elapsed), fp.sim_elapsed,
                  static_cast<unsigned long long>(fp.bits), fp.phases, fp.convictions,
                  static_cast<unsigned long long>(fp.claim_bits));
      if (traced)
        std::printf(" link_drops=%llu retransmits=%llu setup_gf_words=%llu loop_gf_words=%llu",
                    static_cast<unsigned long long>(fp.link_drops),
                    static_cast<unsigned long long>(fp.retransmits),
                    static_cast<unsigned long long>(fp.setup_gf_words),
                    static_cast<unsigned long long>(fp.loop_gf_words));
      std::printf("\n");
    }
    if (static_cast<int>(first.size()) != cycle_) {
      std::fprintf(stderr, "nabbench: %s: %s pass completed %zu of %d slots\n", w_.name,
                   label, first.size(), cycle_);
      ok = false;
    }
    // A workload that exists to exercise dispute control must exercise it.
    int phases = 0;
    for (const auto& [slot, fp] : first) phases += fp.phases;
    if (w_.adversary != adversary_kind::honest && phases == 0) {
      std::fprintf(stderr, "nabbench: %s: no dispute phase ran\n", w_.name);
      ok = false;
    }
    return ok;
  }

  /// Timings are corrected for the machine's speed, then taken as medians.
  /// Every sample is multiplied by the speed factor the probe measured
  /// around it (speed_probe), which takes out the host's slow stretches.
  /// Every operation (the cold set-up of a slot, instance i of a slot)
  /// reruns on identical inputs several times a run, and its cost is the
  /// median of its corrected repetitions. setup_s is the median of those
  /// costs over the slots; instance p50/p90 and goodput are taken over the
  /// distinct instances. The raw wall statistics print alongside.
  std::vector<metric> end_to_end(const pass_result& p) const {
    using samples = std::vector<double>;
    std::vector<samples> setup_ops(static_cast<std::size_t>(cycle_));
    std::vector<std::vector<samples>> instance_ops(
        static_cast<std::size_t>(cycle_),
        std::vector<samples>(static_cast<std::size_t>(instances_)));
    samples setups;
    samples instances;
    samples speeds;
    double loop_wall = 0.0;
    double delivered = 0.0;
    // capacity_fraction: one cycle of complete sessions, first of each slot.
    std::map<int, const fingerprint*> first;
    for (const session_result& r : p.sessions) {
      setups.push_back(r.setup_s);
      speeds.push_back(r.setup_speed);
      setup_ops[static_cast<std::size_t>(r.slot)].push_back(r.setup_s * r.setup_speed);
      auto& ops = instance_ops[static_cast<std::size_t>(r.slot)];
      for (std::size_t i = 0; i < r.instance_s.size(); ++i) {
        instances.push_back(r.instance_s[i]);
        loop_wall += r.instance_s[i];
        speeds.push_back(r.instance_speed[i]);
        ops[i].push_back(r.instance_s[i] * r.instance_speed[i]);
      }
      delivered += static_cast<double>(r.delivered_bits);
      if (r.complete) first.emplace(r.slot, &r.fp);
    }
    for (const extra_setup& e : p.setup_only) {
      setups.push_back(e.s);
      speeds.push_back(e.speed);
      setup_ops[static_cast<std::size_t>(e.slot)].push_back(e.s * e.speed);
    }

    samples setup_costs;
    for (const samples& v : setup_ops)
      if (!v.empty()) setup_costs.push_back(quantile(v, 0.5));
    samples costs;
    double cost_wall = 0.0;
    double cost_bits = 0.0;
    for (int slot = 0; slot < cycle_; ++slot)
      for (int i = 0; i < instances_; ++i) {
        const samples& v =
            instance_ops[static_cast<std::size_t>(slot)][static_cast<std::size_t>(i)];
        if (v.empty()) continue;
        costs.push_back(quantile(v, 0.5));
        cost_wall += costs.back();
        cost_bits += 16.0 * static_cast<double>(inputs_[static_cast<std::size_t>(slot)]
                                                    .values[static_cast<std::size_t>(i)]
                                                    .size());
      }

    double sim_elapsed = 0.0;
    std::uint64_t bits = 0;
    for (const auto& [slot, fp] : first) {
      sim_elapsed += fp->sim_elapsed;
      bits += fp->bits;
    }
    const std::size_t tail =
        costs.size() - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(costs.size())));
    std::printf("samples: setup=%zu instance=%zu distinct_setups=%zu distinct_instances=%zu "
                "beyond_p90=%zu probe=%zu\n",
                setups.size(), instances.size(), setup_costs.size(), costs.size(), tail,
                probe_.samples().size());
    std::printf("speed: p10=%.4g p50=%.4g p90=%.4g (per operation; probe median %.4g us)\n",
                quantile(speeds, 0.1), quantile(speeds, 0.5), quantile(speeds, 0.9),
                1e6 * quantile(probe_.samples(), 0.5));
    std::printf("raw: setup_s=%.6g instance_ms_p50=%.6g instance_ms_p90=%.6g "
                "goodput_mbit_s=%.6g\n",
                quantile(setups, 0.5), 1e3 * quantile(instances, 0.5),
                1e3 * quantile(instances, 0.9),
                loop_wall > 0.0 ? delivered / loop_wall / 1e6 : 0.0);
    return {
        {"setup_s", quantile(setup_costs, 0.5), "s"},
        {"instance_ms_p50", 1e3 * quantile(costs, 0.5), "ms"},
        {"instance_ms_p90", 1e3 * quantile(costs, 0.9), "ms"},
        {"goodput_mbit_s", cost_wall > 0.0 ? cost_bits / cost_wall / 1e6 : 0.0, "Mbit/s"},
        {"capacity_fraction", fraction(bits, sim_elapsed), "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }

  std::vector<metric> per_layer(const tracer& tr, double overhead, double stall_ms) const {
    const auto find = [](const span_table& t, const char* name) {
      const auto it = t.find(name);
      return it == t.end() ? span_total{} : it->second;
    };
    const auto self = [&](const span_table& t, const char* name) {
      return find(t, name).self_s;
    };
    // Wall spent in libnab's spans beneath the benchmark's own wrappers
    // (the rest of a timed wall is wrapper self time).
    const auto covered = [](const span_table& t) {
      double s = 0.0;
      for (const auto& [name, tot] : t)
        if (name.starts_with("bench/")) s += tot.incl_s - tot.self_s;
      return s;
    };
    const auto setup_c = [&](obs::counter c) {
      return static_cast<double>(tr.setup_counters[static_cast<std::size_t>(c)]);
    };
    const auto loop_c = [&](obs::counter c) {
      return static_cast<double>(tr.loop_counters[static_cast<std::size_t>(c)]);
    };
    const auto per = [](double x, double base) { return base > 0.0 ? x / base : 0.0; };
    const double sessions = tr.sessions;  // one cold set-up per session
    const double inst = tr.instances;
    const double phases = tr.phases;
    const auto& su = tr.setup_spans;
    const auto& lp = tr.loop_spans;

    const double setup_gf =
        setup_c(obs::counter::gf_axpy_words) + setup_c(obs::counter::gf_scale_words);
    const double loop_gf =
        loop_c(obs::counter::gf_axpy_words) + loop_c(obs::counter::gf_scale_words);
    const double refresh_gf = static_cast<double>(tr.refresh_gf_words);
    double claim_s = 0.0;
    for (const auto& [name, tot] : lp)
      if (name.starts_with("claim_backend_")) claim_s += tot.incl_s;

    return {
        // --- set-up layers, per cold set-up ---
        {"graph.connectivity_s", per(self(su, "omega_cache/fill_connectivity"), sessions), "s/setup"},
        {"omega.analyze_s", per(self(su, "omega_cache/fill_analysis"), sessions), "s/setup"},
        {"coding.generate_s", per(self(su, "coding_generate"), sessions), "s/setup"},
        {"certify.s", per(self(su, "certify"), sessions), "s/setup"},
        {"certify.gf_words", per(setup_gf, sessions), "words/setup"},
        {"certify.subgraphs", per(setup_c(obs::counter::cert_subgraphs), sessions), "count/setup"},
        {"certify.gwords_per_s", per(setup_gf, self(su, "certify")) / 1e9, "Gword/s"},
        {"plan.fill_s", per(self(su, "omega_cache/fill_plan"), sessions), "s/setup"},
        {"plan.flow_augmentations", per(setup_c(obs::counter::plan_flow_augmentations), sessions), "count/setup"},
        {"routes.fill_s", per(self(su, "omega_cache/fill_routes"), sessions), "s/setup"},
        {"routes.flow_augmentations", per(setup_c(obs::counter::route_flow_augmentations), sessions), "count/setup"},
        {"setup.coverage", per(covered(su), tr.setup_wall), "ratio"},
        // --- mid-stream re-analysis of G_{k+1}, per dispute phase ---
        {"refresh.s", per(find(lp, "bench/refresh").incl_s, phases), "s/phase"},
        {"refresh.analyze_s", per(self(lp, "omega_cache/fill_analysis"), phases), "s/phase"},
        {"refresh.certify_s", per(self(lp, "certify"), phases), "s/phase"},
        {"refresh.gf_words", per(refresh_gf, phases), "words/phase"},
        {"cache.hit_ratio", per(loop_c(obs::counter::cache_hits), loop_c(obs::counter::cache_lookups)), "ratio"},
        {"cache.lookups", per(loop_c(obs::counter::cache_lookups), sessions), "count/session"},
        // --- instance layers, per instance ---
        {"instance.self_s", per(self(lp, "instance"), inst), "s/instance"},
        {"phase1.s", per(self(lp, "phase1"), inst), "s/instance"},
        {"equality_check.s", per(self(lp, "equality_check"), inst), "s/instance"},
        {"equality_check.gf_words", per(loop_gf - refresh_gf, inst), "words/instance"},
        {"flags.s", per(self(lp, "flags"), inst), "s/instance"},
        {"flags.tau_share", per(find(lp, "flags").tau, find(lp, "instance").tau), "ratio"},
        {"phase3.s", per(self(lp, "phase3"), inst), "s/instance"},
        {"dc1.s", per(self(lp, "dc1_claims"), inst), "s/instance"},
        {"dc2.s", per(self(lp, "dc2_crosscheck"), inst), "s/instance"},
        {"dc3.s", per(self(lp, "dc3_replay"), inst), "s/instance"},
        {"dc4.s", per(self(lp, "dc4_intersection"), inst), "s/instance"},
        {"claim.s", per(claim_s, inst), "s/instance"},
        {"claim.propose_s", per(self(lp, "claim_propose"), inst), "s/instance"},
        {"claim.bits", per(static_cast<double>(tr.claim_bits), sessions), "bit/session"},
        {"claim.fallbacks", per(loop_c(obs::counter::claim_fallbacks), sessions), "count/session"},
        {"dispute.phases", per(phases, sessions), "count/session"},
        {"dispute.convictions", per(tr.convictions, sessions), "count/session"},
        {"dispute.stall_ms_p50", stall_ms, "ms"},
        {"arena.pool_hit_ratio", per(loop_c(obs::counter::arena_pool_hits), loop_c(obs::counter::arena_allocs)), "ratio"},
        {"arena.allocs_per_instance", per(loop_c(obs::counter::arena_allocs), inst), "count/instance"},
        {"net.retransmits_per_instance", per(loop_c(obs::counter::link_retransmits), inst), "count/instance"},
        {"net.retry_exhaustions", per(loop_c(obs::counter::link_retry_exhaustions), inst), "count/instance"},
        {"loop.coverage", per(covered(lp), tr.loop_wall), "ratio"},
        {"trace.overhead", overhead, "ratio"},
    };
  }

 private:
  double fraction(std::uint64_t bits, double sim_elapsed) const {
    return sim_elapsed > 0.0 ? static_cast<double>(bits) / sim_elapsed / bound_ : 0.0;
  }

  const workload& w_;
  graph::digraph g_;
  int instances_ = 0;
  int cycle_ = 0;
  int min_repeats_ = 0;
  std::vector<session_inputs> inputs_;
  double bound_ = 0.0;
  speed_probe probe_;
};

double stall_ms_p50(const pass_result& p) {
  std::vector<double> stalls;
  for (const session_result& r : p.sessions)
    stalls.insert(stalls.end(), r.stall_s.begin(), r.stall_s.end());
  return 1e3 * quantile(stalls, 0.5);
}

double pass_wall(const pass_result& p) {
  double wall = 0.0;
  for (const session_result& r : p.sessions) {
    wall += r.setup_s;
    for (double x : r.instance_s) wall += x;
  }
  return wall;
}

void tally(const pass_result& p, int& attempted, int& failed) {
  for (const session_result& r : p.sessions) {
    attempted += r.attempted;
    if (!r.ok) failed += r.attempted;
  }
}

void print_result(bool correct, int attempted, int failed, const std::vector<metric>& ms) {
  for (const metric& m : ms)
    std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                ms[i].unit.c_str());
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nabbench: %s\nusage: nabbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny]\nworkloads:",
               why);
  for (const workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

options parse(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* rest = nullptr;
    if (arg == "--workload") {
      for (const workload& w : workloads())
        if (std::string_view(w.name) == value) opt.w = &w;
      if (opt.w == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &rest, 10);
      if (*value == '\0' || *value == '-' || *rest != '\0')
        usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &rest);
      if (*value == '\0' || *rest != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0)
        usage("--seconds takes a number in (0, 600]");
    } else if (arg == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1")
        usage("--trace takes 0 or 1");
      opt.trace = std::string_view(value) == "1";
    } else {
      usage("unknown flag");
    }
  }
  if (opt.w == nullptr) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  std::printf("nabbench workload=%s seed=%llu seconds=%g trace=%d gf_backend=%s build=%s\n",
              opt.w->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, gf::gf2_16::backend_name(gf::gf2_16::backend()),
              NABBENCH_BUILD_TYPE);
  try {
    bench b(opt);
    bool correct = b.warm_up();
    int attempted = 0;
    int failed = 0;
    std::vector<metric> ms;
    if (!opt.trace) {
      const pass_result p = b.run_untraced(opt.seconds);
      correct = b.check_fingerprints(p, "untraced") && correct;
      tally(p, attempted, failed);
      std::printf("stall_ms_p50 %.6g ms (dispute phases only)\n", stall_ms_p50(p));
      ms = b.end_to_end(p);
    } else {
      pass_result plain;
      pass_result traced;
      tracer tr;
      b.run_paired(opt.seconds, plain, traced, tr);
      correct = b.check_fingerprints(plain, "untraced") &&
                b.check_fingerprints(traced, "traced") && correct;
      tally(plain, attempted, failed);
      tally(traced, attempted, failed);
      ms = b.per_layer(tr, pass_wall(traced) / pass_wall(plain) - 1.0, stall_ms_p50(plain));
    }
    std::fflush(stdout);
    print_result(correct && failed == 0, attempted, failed, ms);
    return correct && failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nabbench: %s\n", e.what());
    return 1;
  }
}
