#include "core/adversary.hpp"

#include "sim/wire.hpp"

namespace nab::core {
namespace {

// Sanity bounds on a claim blob: entries per section, 16-bit words per entry.
constexpr std::uint64_t max_claim_entries = 1u << 20;
constexpr std::uint64_t max_claim_words = 1u << 24;

}  // namespace

std::uint64_t node_claims::bits() const {
  std::uint64_t total = 0;
  for (const auto& [key, c] : p1_sent) total += 48 + 16 * c.size();
  for (const auto& [key, c] : p1_received) total += 48 + 16 * c.size();
  for (const auto& [key, c] : p2_sent) total += 32 + c.bits();
  for (const auto& [key, c] : p2_received) total += 32 + c.bits();
  return total + 64;
}

sim::payload node_claims::pack() const {
  sim::payload out;
  auto pack_p1 = [&](const auto& section) {
    sim::wire::put(out, section.size());
    for (const auto& [key, c] : section) {
      sim::wire::put(out, std::get<0>(key), std::get<1>(key), std::get<2>(key));
      sim::wire::put_run16(out, c);
    }
  };
  auto pack_p2 = [&](const auto& section) {
    sim::wire::put(out, section.size());
    for (const auto& [key, c] : section) {
      sim::wire::put(out, key.first, key.second, c.count, c.slices);
      sim::wire::put_run16(out, c.words);
    }
  };
  pack_p1(p1_sent);
  pack_p1(p1_received);
  pack_p2(p2_sent);
  pack_p2(p2_received);
  return out;
}

bool node_claims::unpack(const sim::payload& words, node_claims& out) {
  out = node_claims{};
  sim::wire::reader in(words);
  auto read_count = [&](std::uint64_t& n) {
    return in.get(n) && n <= max_claim_entries;
  };
  auto unpack_p1 = [&](auto& section) {
    std::uint64_t n = 0;
    if (!read_count(n)) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      int tree = 0;
      graph::node_id from = 0, to = 0;
      chunk c;
      if (!in.get(tree, from, to) || !in.get_run16(c, max_claim_words)) return false;
      section[{tree, from, to}] = std::move(c);
    }
    return true;
  };
  auto unpack_p2 = [&](auto& section) {
    std::uint64_t n = 0;
    if (!read_count(n)) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      graph::node_id from = 0, to = 0;
      coded_symbols c;
      if (!in.get(from, to, c.count, c.slices)) return false;
      if (c.count < 0 || c.slices < 0) return false;
      if (!in.get_run16(c.words, max_claim_words)) return false;
      if (c.words.size() != static_cast<std::size_t>(c.count) * c.slices) return false;
      section[{from, to}] = std::move(c);
    }
    return true;
  };
  return unpack_p1(out.p1_sent) && unpack_p1(out.p1_received) &&
         unpack_p2(out.p2_sent) && unpack_p2(out.p2_received) && in.at_end();
}

}  // namespace nab::core
