#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/run_arena.hpp"

namespace nab::sim::wire {

// The transport codec of every classical-BB payload: a payload is a run of
// 64-bit transport words, and items follow each other with no framing beyond
// their own length words. Three encodings:
//
//   word      one transport word (an index, a node id, a digest)
//   run       [len, words...]              len transport words
//   run16     [len, ⌈len/4⌉ packed words]  len 16-bit words
//
// 16-bit words pack four per transport word, low word first; the last word
// is zero-padded, and decoding zero-fills past the payload's end.
//
// The item layouts built from them (q = instance index):
//
//   EIG label item        [q, run(label ids), run(value)]   bb/eig.cpp
//   collapsed propose     [q, digest, run(transcript)]      bb/claim_bcast.cpp
//   echo, ready           [q, digest]
//   retrieval request     [q]
//   retrieval response    [q, run(transcript)]
//   node_claims           4 sections [count, entries...]    core/adversary.cpp
//     p1 entry            [tree, from, to, run16(chunk)]
//     p2 entry            [from, to, count, slices, run16(coded words)]
//   DC1 source input      packed 16-bit words, no length     core/dispute.cpp
//                         (one zero word for an empty input)
//
// Claim digests, the hunt's payload perturbation and EIG value interning all
// read these words, so a layout change moves every record.

/// 16-bit words per transport word.
inline constexpr std::size_t lanes = 4;

/// Transport words holding n 16-bit words.
constexpr std::size_t words16(std::size_t n) { return (n + lanes - 1) / lanes; }

/// The i-th 16-bit word of a packed run, placed in its lane of a transport
/// word (lane i % 4, low lane first); the rest of the word is zero.
constexpr std::uint64_t to_lane(std::uint16_t w, std::size_t i) {
  return static_cast<std::uint64_t>(w) << (16 * (i % lanes));
}

/// The i-th 16-bit word of a packed run, read from its transport word.
constexpr std::uint16_t lane(std::uint64_t word, std::size_t i) {
  return static_cast<std::uint16_t>(word >> (16 * (i % lanes)));
}

/// Appends each argument as one transport word.
template <typename... Ts>
void put(payload& out, Ts... ws) {
  (out.push_back(static_cast<std::uint64_t>(ws)), ...);
}

/// Appends [len, words...]; the elements convert to transport words.
template <typename Range>
void put_run(payload& out, const Range& r) {
  out.push_back(r.size());
  out.insert(out.end(), r.begin(), r.end());
}

/// Appends the 16-bit words of `ws` packed, without a length.
template <typename Words16>
void put16(payload& out, const Words16& ws) {
  const std::size_t base = out.size();
  out.resize(base + words16(ws.size()), 0);
  for (std::size_t i = 0; i < ws.size(); ++i) out[base + i / lanes] |= to_lane(ws[i], i);
}

/// Appends [len, packed 16-bit words...].
template <typename Words16>
void put_run16(payload& out, const Words16& ws) {
  out.push_back(ws.size());
  put16(out, ws);
}

/// Fills `out` (already sized) with the 16-bit words packed from
/// in[first] on; words past the payload's end read as zero.
template <typename Words16>
void get16(const payload& in, std::size_t first, Words16& out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t w = first + i / lanes;
    out[i] = w < in.size() ? lane(in[w], i) : 0;
  }
}

/// Read cursor over one payload. A read that runs short, or whose length
/// word overruns the payload, fails and parks the cursor at the end, so a
/// tampered batch yields exactly its well-formed prefix items.
class reader {
 public:
  explicit reader(const payload& in) : in_(in) {}
  reader(payload&&) = delete;  // the cursor must not outlive its payload

  /// True once every word is consumed or a read failed.
  bool at_end() const { return pos_ == in_.size(); }

  /// Reads one transport word into each argument, cast to its type.
  template <typename... Ts>
  bool get(Ts&... out) {
    return (get_one(out) && ...);
  }

  /// Reads [len, words...] into `out`.
  template <typename Vec>
  bool get_run(Vec& out) {
    std::uint64_t len = 0;
    if (!get_one(len) || len > in_.size() - pos_) return fail();
    const auto first = in_.begin() + static_cast<std::ptrdiff_t>(pos_);
    out.assign(first, first + static_cast<std::ptrdiff_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  /// Reads [len, packed 16-bit words...] into `out`; len above `max_len`
  /// fails.
  template <typename Words16>
  bool get_run16(Words16& out, std::uint64_t max_len) {
    std::uint64_t len = 0;
    if (!get_one(len) || len > max_len || words16(len) > in_.size() - pos_)
      return fail();
    out.resize(static_cast<std::size_t>(len));
    get16(in_, pos_, out);
    pos_ += words16(len);
    return true;
  }

 private:
  template <typename T>
  bool get_one(T& out) {
    if (pos_ == in_.size()) return false;
    out = static_cast<T>(in_[pos_++]);
    return true;
  }

  bool fail() {
    pos_ = in_.size();
    return false;
  }

  const payload& in_;
  std::size_t pos_ = 0;
};

}  // namespace nab::sim::wire
