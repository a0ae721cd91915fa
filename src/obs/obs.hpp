#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nab::obs {

/// Which contract a counter obeys. Deterministic counters are pure
/// functions of the workload — bit-identical across `--jobs` counts and
/// scheduling — and the runtime exports them inside run_record (covered by
/// the jobs-1-vs-N byte-identity contract). Machine counters describe the
/// machine, not the run, and ride with the wall-clock keys, stripped the
/// same way.
enum class counter_set : std::uint8_t { deterministic, machine };

/// The counter table: one row per counter, X(identifier, set). The
/// identifier is the counter's name everywhere — enumerator, tables, JSON
/// key — and the enum, counter_table and counter_name are generated from
/// this list, so adding a counter means adding one row. The machine rows:
/// cache_hits / cache_misses (the process-wide omega_cache is shared across
/// executor shards, so which run pays a miss depends on scheduling; the
/// lookup count is the deterministic companion) and the arena pair (the
/// per-shard arena's page state depends on what ran on the shard before).
#define NAB_OBS_COUNTERS(X)                                                             \
  /* GF(2^16) kernel work (src/gf) */                                                   \
  X(gf_axpy_words, deterministic)      /* words processed by gf2_16::axpy */            \
  X(gf_scale_words, deterministic)     /* words processed by gf2_16::scale */           \
  X(gf_mul_ops, deterministic)         /* bulk-counted scalar mul/Horner (digests) */   \
  X(gf_rows_eliminated, deterministic) /* pivot rows set by row_reduce / certifier */   \
  /* batched certifier prefix tree (core/certify) */                                    \
  X(cert_prefix_pushes, deterministic)  /* extensions pushed onto the shared basis */   \
  X(cert_prefix_pops, deterministic)    /* node extensions rewound */                   \
  X(cert_ghost_repushes, deterministic) /* ghost rows re-reduced over a new window */   \
  X(cert_subgraphs, deterministic)      /* Omega_k leaves whose rank was checked */     \
  X(cert_loo_downdates, deterministic)  /* f=1 rank downdates, one per member */        \
  /* omega_cache (core/omega_cache) */                                                  \
  X(cache_lookups, deterministic) /* queries issued by this run */                      \
  X(cache_hits, machine)          /* depends on cross-shard scheduling */               \
  X(cache_misses, machine)        /* ditto */                                           \
  /* planning layer: arborescence packing + route tables (graph, bb) */                 \
  X(plan_safety_checks, deterministic)       /* packer per-sink certificate checks */   \
  X(plan_flow_augmentations, deterministic)  /* packer unit augmenting paths */         \
  X(route_pairs, deterministic)              /* ordered pairs in the route table */     \
  X(route_flow_augmentations, deterministic) /* route-builder augmenting paths */       \
  /* Phase-3 claim backends (bb/claim_bcast) */                                         \
  X(claim_echoes, deterministic)    /* echo digests sent on the wire (collapsed) */     \
  X(claim_readys, deterministic)    /* ready digests sent on the wire (collapsed) */    \
  X(claim_fallbacks, deterministic) /* full-transcript retrieval fallbacks */           \
  /* link-fault layer (sim/link_faults + network ARQ): 0 on perfect links */            \
  X(link_drops, deterministic)             /* erased by a Gilbert-Elliott chain */      \
  X(link_retransmits, deterministic)       /* ARQ retransmissions honest senders pay */ \
  X(link_burst_spans, deterministic)       /* good -> bad transitions (burst onsets) */ \
  X(link_retry_exhaustions, deterministic) /* messages that ran out of retry budget */  \
  /* run arena (sim/run_arena) */                                                       \
  X(arena_allocs, machine)    /* arena allocations served during the run */             \
  X(arena_pool_hits, machine) /* of which from a free list */

enum class counter : int {
#define NAB_OBS_ENUMERATOR(name, set) name,
  NAB_OBS_COUNTERS(NAB_OBS_ENUMERATOR)
#undef NAB_OBS_ENUMERATOR
  count_  // sentinel: number of counters
};

inline constexpr int counter_count = static_cast<int>(counter::count_);

/// One row of the counter table.
struct counter_row {
  counter id;
  const char* name;
  counter_set set;
};

/// Every counter in enum order — what exporters and checks loop over.
inline constexpr std::array<counter_row, counter_count> counter_table{{
#define NAB_OBS_ROW(name, set) {counter::name, #name, counter_set::set},
    NAB_OBS_COUNTERS(NAB_OBS_ROW)
#undef NAB_OBS_ROW
}};

#undef NAB_OBS_COUNTERS

/// A counter's name (JSON keys, tables).
constexpr const char* counter_name(counter c) {
  return counter_table[static_cast<std::size_t>(c)].name;
}

/// One value per counter, indexed by the enum: a collector's tallies, a run
/// record's counters.
class counter_values {
 public:
  std::uint64_t& operator[](counter c) { return v_[static_cast<std::size_t>(c)]; }
  std::uint64_t operator[](counter c) const {
    return v_[static_cast<std::size_t>(c)];
  }
  bool operator==(const counter_values&) const = default;

 private:
  std::array<std::uint64_t, counter_count> v_{};
};

/// The headline GF work figure: the four gf_* kernel counters summed.
inline std::uint64_t gf_ops(const counter_values& v) {
  return v[counter::gf_axpy_words] + v[counter::gf_scale_words] +
         v[counter::gf_mul_ops] + v[counter::gf_rows_eliminated];
}

/// Invariant-margin gauges: how much headroom a run kept before a paper
/// invariant or a quorum rule would have failed. Minimum over the run —
/// the scoring signal a coverage-guided adversary search ranks runs by
/// (smaller = closer to the edge). Deterministic (workload-determined).
enum class gauge : int {
  /// min over accepted claim digests of (readys observed - 2f-1): how far
  /// the collapsed backend's accept quorum stayed above its threshold.
  quorum_slack,
  /// min over accepted claim digests of (honest echoer-holders - (f+1)):
  /// the hold-to-echo rule's surplus over the retrieval guarantee.
  hold_surplus,
  /// f(f+1) minus dispute phases actually run: the Phase-3 dispute bound's
  /// remaining budget (set by the runtime, not instrumented code).
  dispute_headroom,
  /// min over loss-affected messages of (retry budget - retries needed):
  /// how close the ARQ layer came to exhausting a retry budget and
  /// degrading an honest message to the missing-message default.
  retry_headroom,
  count_
};

inline constexpr int gauge_count = static_cast<int>(gauge::count_);

const char* gauge_name(gauge g);

/// Value a gauge reports when the run never exercised it.
inline constexpr std::int64_t gauge_unset = -1;

/// One recorded span: a named, nested interval of protocol work. `tau_*`
/// carry simulated time (-1 when the span wraps pure computation with no
/// network attached); `wall_*` are seconds since the collector's epoch.
/// Span *structure* (names, nesting, order) is deterministic for a fixed
/// workload except for omega_cache fill spans, which only appear on the
/// run that pays the miss — wall values are machine data regardless, so
/// spans live with the timing set, never inside the determinism contract.
struct span_record {
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 at top level
  int depth = 0;    ///< 0 = top level
  std::string name;
  double tau_begin = -1.0;
  double tau_end = -1.0;
  double wall_begin = 0.0;
  double wall_end = 0.0;
};

/// Per-run observability sink: fixed-size counter/gauge arrays plus the span
/// list. Thread-confined like sim::trace and sim::run_arena — one collector
/// per executor shard run, never shared, so counting needs no atomics and
/// the sharded fleet stays TSan-clean. Installation is ambient
/// (scoped_collector); with no collector installed every instrumentation
/// site reduces to one thread-local load and a branch.
class collector {
 public:
  collector();

  // --- counters ---
  void add(counter c, std::uint64_t n) { counters_[c] += n; }
  std::uint64_t value(counter c) const { return counters_[c]; }

  // --- gauges (record-minimum semantics) ---
  void gauge_min(gauge g, std::int64_t v) {
    auto& slot = gauges_[static_cast<std::size_t>(g)];
    if (slot == gauge_unset || v < slot) slot = v;
  }
  std::int64_t gauge_value(gauge g) const {
    return gauges_[static_cast<std::size_t>(g)];
  }

  // --- spans ---
  /// Opens a span under the currently open one. Returns its id.
  int open_span(std::string name, double tau_begin);
  /// Closes span `id`. Spans close strictly LIFO (scoped_span guarantees
  /// it); closing out of order is a caller bug and aborts.
  void close_span(int id, double tau_end);
  const std::vector<span_record>& spans() const { return spans_; }
  /// Id of the innermost open span (-1 when none) — parent for manual spans.
  int current_span() const {
    return open_stack_.empty() ? -1 : open_stack_.back();
  }

  /// Seconds since the collector was constructed (its wall epoch).
  double now() const;

  /// Zeroes counters, gauges, and spans (the epoch is kept).
  void reset();

 private:
  counter_values counters_;
  std::array<std::int64_t, gauge_count> gauges_;
  std::vector<span_record> spans_;
  std::vector<int> open_stack_;
  std::chrono::steady_clock::time_point epoch_;
};

/// The calling thread's ambient collector (nullptr when none is installed).
/// Mirrors sim::ambient_trace / sim::ambient_arena: instrumentation reaches
/// the sessions a fleet shard runs without threading a handle through every
/// call, and shards stay fully independent.
collector* ambient_collector();

/// Installs `c` as the calling thread's ambient collector for the lifetime
/// of the scope; restores the previous one on destruction. Scopes nest, and
/// nullptr suspends collection (e.g. around warm-up work a measurement
/// should not see).
class scoped_collector {
 public:
  explicit scoped_collector(collector* c);
  ~scoped_collector();
  scoped_collector(const scoped_collector&) = delete;
  scoped_collector& operator=(const scoped_collector&) = delete;

 private:
  collector* previous_;
};

/// Adds to a counter on the ambient collector; no-op (one thread-local load
/// and a branch) when none is installed. This is the only form
/// instrumentation sites use, which is what keeps the subsystem near-zero-
/// cost when collection is off — the PR-3 allocation budgets and the sweep
/// wall are pinned against it.
inline void count(counter c, std::uint64_t n = 1) {
  if (collector* col = ambient_collector()) col->add(c, n);
}

/// Records a minimum on an ambient gauge; no-op without a collector.
inline void gauge_min(gauge g, std::int64_t v) {
  if (collector* col = ambient_collector()) col->gauge_min(g, v);
}

/// Order-sensitive 64-bit stream signature: fold values into an accumulator
/// with signature_mix, starting from signature_seed. Deterministic (pure
/// arithmetic, splitmix64-style finalizer per step), so two runs fold to the
/// same signature iff they fed the same value sequence — which is what lets
/// a coverage-guided search treat "the deterministic counters and margin
/// gauges of this run" as a behavioral coordinate: novel signature = the
/// adversary drove the protocol through a combination of counter/gauge
/// outcomes no earlier probe produced. Collisions are the usual 2^-64 bet.
inline constexpr std::uint64_t signature_seed = 0x0b5e55ed5eedULL;

inline constexpr std::uint64_t signature_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// RAII span over the ambient collector. Constructed with the sim-time at
/// entry when the caller has a network clock (tau carries into timelines);
/// `end_tau` sets the exit sim-time before destruction (otherwise the span
/// keeps tau_end = tau_begin for pure-computation spans, or -1 when no tau
/// was ever supplied). Does nothing when no collector is installed.
class scoped_span {
 public:
  explicit scoped_span(const char* name, double tau_begin = -1.0);
  ~scoped_span();
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  /// Sets the simulated time the span ends at (call just before scope exit).
  void end_tau(double tau_end) { tau_end_ = tau_end; }

  /// Closes the span now, before scope exit — for code where the next
  /// sibling phase starts mid-scope and introducing a block would obscure
  /// the control flow. The destructor becomes a no-op afterwards.
  void close(double tau_end) {
    if (col_ == nullptr) return;
    col_->close_span(id_, tau_end);
    col_ = nullptr;
  }

 private:
  collector* col_ = nullptr;
  int id_ = -1;
  double tau_end_;
};

}  // namespace nab::obs
