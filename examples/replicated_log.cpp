// Replicated log: the paper's motivating application (replicated
// fault-tolerant state machines, Section 1). Six replicas agree on a stream
// of commands through repeated NAB instances — with the broadcaster
// ROTATING across replicas (every replica proposes in turn, like a real
// replicated service) — while one replica is Byzantine and mounts the
// stealthiest dispute-farming attack the model allows. Every honest
// replica's log stays identical, and throughput recovers as dispute control
// exhausts the attacker's options.
//
//   ./examples/replicated_log [commands=40]

#include <cstdio>
#include <string>
#include <vector>

#include "core/nab.hpp"
#include "graph/generators.hpp"
#include "runtime/fleet_cli.hpp"
#include "util/error.hpp"

namespace {

/// Encodes a textual command into 16-bit words (fixed 16-word record).
std::vector<nab::core::word> encode_command(const std::string& cmd) {
  std::vector<nab::core::word> words(16, 0);
  for (std::size_t i = 0; i < cmd.size() && i < 32; ++i) {
    words[i / 2] = static_cast<nab::core::word>(words[i / 2] |
                                                (static_cast<unsigned char>(cmd[i])
                                                 << (8 * (i % 2))));
  }
  return words;
}

std::string decode_command(const std::vector<nab::core::word>& words) {
  std::string out;
  for (nab::core::word w : words) {
    for (int b = 0; b < 2; ++b) {
      const char c = static_cast<char>((w >> (8 * b)) & 0xFF);
      if (c != 0) out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nab;
  int commands = 40;
  if (argc > 1) {
    try {
      commands = runtime::parse_int_flag("commands", argv[1]);
      if (commands < 1)
        throw error("commands must be at least 1, got '" + std::string(argv[1]) + "'");
    } catch (const error& e) {
      std::fprintf(stderr, "replicated_log: %s\n"
                   "usage: replicated_log [commands=40]\n", e.what());
      return 2;
    }
  }

  graph::digraph g = graph::complete(6, 2);
  sim::fault_set faults(g.universe(), {3});
  core::stealth_disputer adversary;
  core::session session({.g = g, .f = 1, .source = 0}, faults, &adversary);

  // Each replica applies agreed commands to its own log.
  std::vector<std::vector<std::string>> logs(static_cast<std::size_t>(g.universe()));

  std::printf("replicated_log: %d commands through NAB on K6, replica 3 Byzantine\n",
              commands);
  int disputes_seen = 0;
  for (int i = 0; i < commands; ++i) {
    // Rotate the proposer over the replicas still in G_k. A convicted
    // replica's turn yields the agreed default (skipped by the log logic).
    const auto active = session.current_graph().active_nodes();
    const graph::node_id proposer = active[static_cast<std::size_t>(i) % active.size()];
    const std::string cmd = "SET k" + std::to_string(i) + "=" + std::to_string(i * i);
    const auto r = session.run_instance(encode_command(cmd), proposer);
    if (!r.agreement || !r.validity) {
      std::printf("  BROKEN at command %d\n", i);
      return 1;
    }
    for (graph::node_id v : session.current_graph().active_nodes())
      if (faults.is_honest(v)) {
        // Default outcomes (convicted proposer) append a no-op marker so the
        // logs stay aligned.
        logs[static_cast<std::size_t>(v)].push_back(
            r.default_outcome
                ? "NOP"
                : decode_command(r.outputs[static_cast<std::size_t>(v)]));
      }
    if (r.dispute_phase_run) {
      ++disputes_seen;
      std::printf("  command %2d: dispute control ran (new pairs:", i);
      for (const auto& [a, b] : r.new_disputes) std::printf(" {%d,%d}", a, b);
      std::printf("%s)\n", r.newly_convicted.empty() ? "" : ", conviction!");
    }
  }

  // All honest logs must be identical and contain every command.
  const auto& reference = logs[0];
  bool identical = static_cast<int>(reference.size()) == commands;
  for (graph::node_id v = 1; v < g.universe(); ++v) {
    if (faults.is_corrupt(v)) continue;
    identical = identical && logs[static_cast<std::size_t>(v)] == reference;
  }

  std::printf("  honest logs identical: %s (%zu entries each)\n",
              identical ? "yes" : "NO", reference.size());
  std::printf("  sample tail: \"%s\"\n", reference.back().c_str());
  std::printf("  dispute-control rounds: %d (bound f(f+1) = 2)\n", disputes_seen);
  std::printf("  convicted replicas:");
  for (graph::node_id v : session.disputes().convicted()) std::printf(" %d", v);
  std::printf("\n  measured throughput: %.3f bits/unit-time over %d instances\n",
              session.stats().throughput(), session.stats().instances);
  return identical ? 0 : 1;
}
