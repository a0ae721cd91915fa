#include "runtime/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nab::runtime {

std::vector<std::pair<std::string, double>> wall_by_phase_of(
    const std::vector<obs::span_record>& spans) {
  // Phase rows are the "instance" span's direct children plus any top-level
  // span that is not an instance (e.g. the session constructor's
  // connectivity fill). Deeper spans (claim sub-rounds, certify under
  // refresh_graph) are already counted inside their parent phase.
  std::map<std::string, double> acc;
  for (const obs::span_record& s : spans) {
    if (s.depth > 1 || s.name == "instance") continue;
    acc[s.name] += s.wall_end - s.wall_begin;
  }
  return {acc.begin(), acc.end()};  // std::map: sorted by name
}

json run_record::to_json(bool include_timing) const {
  json corrupt_ids = json::array();
  for (int v : corrupt) corrupt_ids.push(json::num(v));
  json j = json::object();
  j.set("run_index", json::num(run_index))
      .set("scenario", json::str(scenario))
      .set("family", json::str(family))
      .set("seed", json::str(hex_seed(seed)))
      .set("topology", json::str(topology))
      .set("nodes", json::num(nodes))
      .set("f", json::num(f))
      .set("adversary", json::str(adversary))
      .set("propagation", json::str(propagation))
      .set("flag_protocol", json::str(flag_protocol))
      .set("claim_backend", json::str(claim_backend))
      .set("loss", json::str(loss))
      .set("instances", json::num(instances))
      .set("words", json::num(words))
      .set("corrupt", std::move(corrupt_ids))
      .set("gamma", json::num(gamma))
      .set("rho", json::num(rho))
      .set("sim_elapsed", json::num(sim_elapsed))
      .set("bits_broadcast", json::num(bits_broadcast))
      .set("throughput", json::num(throughput))
      .set("tau_mean", json::num(tau_mean))
      .set("dispute_phases", json::num(dispute_phases))
      .set("disputes", json::num(disputes))
      .set("convictions", json::num(convictions))
      .set("mismatch_instances", json::num(mismatch_instances))
      .set("phase1_only_instances", json::num(phase1_only_instances))
      .set("default_outcome_instances", json::num(default_outcome_instances))
      .set("dc1_claim_bits", json::num(dc1_claim_bits))
      .set("gf_ops", json::num(obs::gf_ops(counters)));
  for (const obs::counter_row& row : obs::counter_table)
    if (row.set == obs::counter_set::deterministic)
      j.set(row.name, json::num(counters[row.id]));
  for (const obs::gauge_row& row : obs::gauge_table)
    j.set(row.name, json::num(gauges[row.id]));
  j.set("pipeline_depth", json::num(pipeline_depth))
      .set("pipeline_speedup", json::num(pipeline_speedup))
      .set("agreement", json::boolean(agreement))
      .set("validity", json::boolean(validity))
      .set("dispute_sound", json::boolean(dispute_sound))
      .set("conviction_sound", json::boolean(conviction_sound))
      .set("dispute_bound", json::boolean(dispute_bound))
      .set("ok", json::boolean(ok()));
  if (include_timing) {
    // One nested object so cross-jobs document diffing (the determinism CI)
    // can drop the whole machine-set layer by stripping a single key.
    json wall = json::object();
    for (const auto& [phase, seconds] : timing.wall_by_phase)
      wall.set(phase, json::num(seconds));
    json t = json::object();
    t.set("wall_seconds_by_phase", std::move(wall));
    for (const obs::counter_row& row : obs::counter_table)
      if (row.set == obs::counter_set::machine)
        t.set(row.name, json::num(timing.counters[row.id]));
    j.set("timing", std::move(t));
  }
  return j;
}

sweep_summary summarize(const std::vector<run_record>& records) {
  sweep_summary s;
  s.runs = static_cast<int>(records.size());
  if (records.empty()) return s;
  double sum = 0.0;
  s.min_throughput = records.front().throughput;
  s.max_throughput = records.front().throughput;
  for (const run_record& r : records) {
    if (!r.ok()) ++s.failed_runs;
    s.total_instances += r.instances;
    s.total_dispute_phases += r.dispute_phases;
    sum += r.throughput;
    s.min_throughput = std::min(s.min_throughput, r.throughput);
    s.max_throughput = std::max(s.max_throughput, r.throughput);
  }
  s.mean_throughput = sum / static_cast<double>(records.size());
  return s;
}

json sweep_document(const std::string& sweep_name, std::uint64_t base_seed, int jobs,
                    const std::vector<run_record>& records, double wall_seconds,
                    const std::map<std::string, double>* family_wall_seconds) {
  const sweep_summary s = summarize(records);
  json runs = json::array();
  // Per-run timing rides with the wall keys: omitted in determinism mode
  // (wall_seconds < 0), present in normal reporting.
  for (const run_record& r : records) runs.push(r.to_json(wall_seconds >= 0.0));
  json summary = json::object();
  summary.set("runs", json::num(s.runs))
      .set("failed_runs", json::num(s.failed_runs))
      .set("total_instances", json::num(s.total_instances))
      .set("total_dispute_phases", json::num(s.total_dispute_phases))
      .set("min_throughput", json::num(s.min_throughput))
      .set("mean_throughput", json::num(s.mean_throughput))
      .set("max_throughput", json::num(s.max_throughput));
  json doc = json::object();
  doc.set("bench", json::str("runtime"))
      .set("sweep", json::str(sweep_name))
      .set("base_seed", json::str(hex_seed(base_seed)));
  // jobs and wall time describe the machine, not the workload: callers that
  // need cross-thread-count comparability (the determinism contract) pass
  // wall_seconds < 0 and compare the resulting documents byte for byte.
  if (wall_seconds >= 0.0) {
    doc.set("jobs", json::num(jobs));
    doc.set("wall_seconds", json::num(wall_seconds));
    if (family_wall_seconds != nullptr) {
      json by_family = json::object();
      for (const auto& [family, wall] : *family_wall_seconds)
        by_family.set(family, json::num(wall));
      doc.set("wall_seconds_by_family", std::move(by_family));
    }
  }
  doc.set("summary", std::move(summary)).set("runs", std::move(runs));
  return doc;
}

json trace_document(const std::string& sweep_name, std::uint64_t base_seed,
                    const std::vector<run_record>& records) {
  json runs = json::array();
  for (const run_record& r : records) {
    if (r.traffic.empty()) continue;
    const auto n = static_cast<std::size_t>(r.nodes);
    NAB_ASSERT(r.traffic.size() == n * n, "traffic matrix shape mismatch");
    json links = json::array();
    for (std::size_t u = 0; u < n; ++u)
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t bits = r.traffic[u * n + v];
        if (bits == 0) continue;
        json link = json::object();
        link.set("from", json::num(static_cast<std::int64_t>(u)))
            .set("to", json::num(static_cast<std::int64_t>(v)))
            .set("bits", json::num(bits));
        links.push(std::move(link));
      }
    json run = json::object();
    run.set("run_index", json::num(r.run_index))
        .set("scenario", json::str(r.scenario))
        .set("nodes", json::num(r.nodes))
        .set("dc1_claim_bits", json::num(r.dc1_claim_bits))
        .set("links", std::move(links));
    runs.push(std::move(run));
  }
  json doc = json::object();
  doc.set("bench", json::str("runtime-trace"))
      .set("sweep", json::str(sweep_name))
      .set("base_seed", json::str(hex_seed(base_seed)))
      .set("runs", std::move(runs));
  return doc;
}

json timeline_document(const std::string& sweep_name, std::uint64_t base_seed,
                       const std::vector<run_record>& records) {
  json events = json::array();
  for (const run_record& r : records) {
    if (r.timing.spans.empty()) continue;
    // Chrome-trace metadata: each run renders as its own process, labelled
    // with the scenario so the timeline is navigable without the records.
    {
      json args = json::object();
      args.set("name", json::str("run " + std::to_string(r.run_index) + ": " +
                                 r.scenario));
      json meta = json::object();
      meta.set("name", json::str("process_name"))
          .set("ph", json::str("M"))
          .set("pid", json::num(r.run_index))
          .set("tid", json::num(0))
          .set("args", std::move(args));
      events.push(std::move(meta));
    }
    for (const obs::span_record& s : r.timing.spans) {
      json args = json::object();
      args.set("depth", json::num(s.depth));
      if (s.tau_begin >= 0.0) {
        args.set("tau_begin", json::num(s.tau_begin));
        args.set("tau_end", json::num(s.tau_end));
      }
      json ev = json::object();
      ev.set("name", json::str(s.name))
          .set("ph", json::str("X"))
          .set("ts", json::num(s.wall_begin * 1e6))
          .set("dur", json::num((s.wall_end - s.wall_begin) * 1e6))
          .set("pid", json::num(r.run_index))
          .set("tid", json::num(0))
          .set("args", std::move(args));
      events.push(std::move(ev));
    }
  }
  json doc = json::object();
  doc.set("bench", json::str("runtime-timeline"))
      .set("sweep", json::str(sweep_name))
      .set("base_seed", json::str(hex_seed(base_seed)))
      .set("displayTimeUnit", json::str("ms"))
      .set("traceEvents", std::move(events));
  return doc;
}

}  // namespace nab::runtime
