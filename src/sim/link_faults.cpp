#include "sim/link_faults.hpp"

#include <charconv>

#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::sim {

namespace {

/// One splitmix64 step: advance the stream state, return the mixed output.
std::uint64_t next_u64(std::uint64_t& state) {
  state += splitmix64_gamma;
  return splitmix64_finalize(state);
}

/// Uniform double in [0, 1) from the top 53 bits.
double u01(std::uint64_t r) {
  return static_cast<double>(r >> 11) * 0x1.0p-53;
}

/// Initial stream state for link `index`: the seed xored with a per-link
/// multiple of the golden gamma, then mixed so streams of adjacent links are
/// decorrelated (without the mix, stream i would be stream j shifted by
/// i - j steps).
std::uint64_t link_stream_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix64_finalize(seed ^ (splitmix64_gamma * (index + 1)));
}

bool parse_probability(std::string_view field, double& out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto res = std::from_chars(begin, end, out);
  return res.ec == std::errc() && res.ptr == end && out >= 0.0 && out <= 1.0;
}

}  // namespace

std::vector<std::string> loss_preset_names() {
  return {"zero", "light", "bursty", "heavy"};
}

link_fault_params parse_loss_spec(std::string_view spec) {
  link_fault_params p;
  if (spec == "zero") return p;  // inert: attached but unable to perturb
  if (spec == "light") {
    p.p_loss_good = 0.005;
    p.p_loss_bad = 0.25;
    p.p_good_to_bad = 0.02;
    p.p_bad_to_good = 0.5;
    return p;
  }
  if (spec == "bursty") {
    p.p_loss_good = 0.01;
    p.p_loss_bad = 0.5;
    p.p_good_to_bad = 0.05;
    p.p_bad_to_good = 0.25;
    return p;
  }
  if (spec == "heavy") {
    p.p_loss_good = 0.05;
    p.p_loss_bad = 0.7;
    p.p_good_to_bad = 0.1;
    p.p_bad_to_good = 0.2;
    p.jitter = 0.25;
    return p;
  }
  if (spec.find(',') == std::string_view::npos)
    throw error("unknown loss preset \"" + std::string(spec) +
                "\" (want zero, light, bursty, heavy, or a custom "
                "p_good,p_bad,p_g2b,p_b2g tuple)");
  // Custom 4-tuple: p_good,p_bad,p_g2b,p_b2g — each a probability in [0, 1].
  double fields[4];
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t comma = spec.find(',', pos);
    const bool last = i == 3;
    if (last != (comma == std::string_view::npos) ||
        !parse_probability(spec.substr(pos, last ? std::string_view::npos : comma - pos),
                           fields[i]))
      throw error("malformed loss spec \"" + std::string(spec) +
                  "\" (custom form takes exactly four comma-separated "
                  "probabilities in [0,1]: p_good,p_bad,p_g2b,p_b2g)");
    pos = comma + 1;
  }
  p.p_loss_good = fields[0];
  p.p_loss_bad = fields[1];
  p.p_good_to_bad = fields[2];
  p.p_bad_to_good = fields[3];
  return p;
}

link_fault_model::link_fault_model(link_fault_params params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

link_fault_model::chain& link_fault_model::link_chain(graph::node_id u,
                                                      graph::node_id v,
                                                      int universe) {
  NAB_ASSERT(u >= 0 && v >= 0 && u < universe && v < universe,
             "link_fault_model link out of range");
  const std::size_t n = static_cast<std::size_t>(universe);
  if (chains_.size() < n * n) chains_.resize(n * n);
  const std::size_t index = static_cast<std::size_t>(u) * n + v;
  chain& c = chains_[index];
  if (c.rng == 0) c.rng = link_stream_seed(seed_, index) | 1ULL;
  return c;
}

bool link_fault_model::erase(graph::node_id u, graph::node_id v, int universe) {
  chain& c = link_chain(u, v, universe);
  const double p_loss = c.bad ? params_.p_loss_bad : params_.p_loss_good;
  const bool lost = u01(next_u64(c.rng)) < p_loss;
  if (lost) obs::count(obs::counter::link_drops);
  const double transition = u01(next_u64(c.rng));
  if (c.bad) {
    if (transition < params_.p_bad_to_good) c.bad = false;
  } else if (transition < params_.p_good_to_bad) {
    c.bad = true;
    obs::count(obs::counter::link_burst_spans);
  }
  return lost;
}

double link_fault_model::time_dilation(graph::node_id u, graph::node_id v,
                                       int universe) const {
  if (params_.jitter <= 0.0) return 1.0;
  NAB_ASSERT(u >= 0 && v >= 0 && u < universe && v < universe,
             "link_fault_model link out of range");
  const std::uint64_t index =
      static_cast<std::uint64_t>(u) * static_cast<std::uint64_t>(universe) + v;
  // Independent of the erasure stream: re-mix the link seed under a distinct
  // salt so reading the dilation never perturbs drop sequences.
  const std::uint64_t draw =
      splitmix64_finalize(link_stream_seed(seed_, index) ^ 0xd11a7ed0ULL);
  return 1.0 + params_.jitter * u01(draw);
}

bool link_fault_model::in_bad_state(graph::node_id u, graph::node_id v,
                                    int universe) const {
  const std::size_t n = static_cast<std::size_t>(universe);
  const std::size_t index = static_cast<std::size_t>(u) * n + v;
  if (index >= chains_.size()) return false;
  return chains_[index].bad;
}

}  // namespace nab::sim
