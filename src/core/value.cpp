#include "core/value.hpp"

#include "util/assert.hpp"

namespace nab::core {

value_vector::value_vector(int rho, int slices)
    : rho_(rho), slices_(slices),
      words_(static_cast<std::size_t>(rho) * slices, 0) {
  NAB_ASSERT(rho > 0 && slices > 0, "value_vector shape must be positive");
}

value_vector value_vector::reshape(const std::vector<word>& words, int rho) {
  NAB_ASSERT(rho > 0, "reshape requires rho > 0");
  const std::size_t per_symbol = (words.size() + rho - 1) / rho;
  value_vector out(rho, static_cast<int>(per_symbol == 0 ? 1 : per_symbol));
  for (std::size_t i = 0; i < words.size(); ++i) out.words_[i] = words[i];
  return out;
}

value_vector value_vector::random(int rho, int slices, rng& rand) {
  value_vector out(rho, slices);
  for (auto& w : out.words_) w = static_cast<word>(rand.below(65536));
  return out;
}

word value_vector::symbol(int s, int slice) const {
  NAB_ASSERT(s >= 0 && s < rho_ && slice >= 0 && slice < slices_,
             "symbol index out of range");
  return words_[static_cast<std::size_t>(s) * slices_ + slice];
}

void value_vector::set_symbol(int s, int slice, word v) {
  NAB_ASSERT(s >= 0 && s < rho_ && slice >= 0 && slice < slices_,
             "symbol index out of range");
  words_[static_cast<std::size_t>(s) * slices_ + slice] = v;
}

std::vector<word> value_vector::symbol_words(int s) const {
  NAB_ASSERT(s >= 0 && s < rho_, "symbol index out of range");
  return {words_.begin() + static_cast<std::ptrdiff_t>(s) * slices_,
          words_.begin() + static_cast<std::ptrdiff_t>(s + 1) * slices_};
}

}  // namespace nab::core
