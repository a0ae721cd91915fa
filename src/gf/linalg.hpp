#pragma once

#include <vector>

#include "gf/matrix.hpp"
#include "obs/obs.hpp"

namespace nab::gf {

namespace detail {

/// Fields may expose batched row kernels (axpy: dst += coeff*src, scale:
/// v *= coeff) that hoist the scalar's table lookup out of the loop —
/// gf2_16 does. Elimination dispatches to them when present.
template <class F>
concept has_row_kernels = requires(typename F::value_type* d,
                                   const typename F::value_type* s,
                                   typename F::value_type c, std::size_t n) {
  F::axpy(d, s, c, n);
  F::scale(d, c, n);
};

template <class F>
void row_axpy(typename F::value_type* dst, const typename F::value_type* src,
              typename F::value_type coeff, std::size_t n) {
  if constexpr (has_row_kernels<F>) {
    F::axpy(dst, src, coeff, n);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      dst[i] = F::add(dst[i], F::mul(coeff, src[i]));
  }
}

template <class F>
void row_scale(typename F::value_type* v, typename F::value_type coeff,
               std::size_t n) {
  if constexpr (has_row_kernels<F>) {
    F::scale(v, coeff, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) v[i] = F::mul(v[i], coeff);
  }
}

}  // namespace detail

/// In-place reduction to row echelon form by Gaussian elimination.
/// Returns the rank; `pivot_cols`, if non-null, receives the pivot column of
/// each nonzero row. O(rows * cols * min(rows, cols)) field operations; the
/// inner loops run on the field's batched row kernels when it provides them.
template <class F>
std::size_t row_reduce(matrix<F>& m, std::vector<std::size_t>* pivot_cols = nullptr) {
  using V = typename F::value_type;
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < rows; ++col) {
    // Find a pivot in this column at or below `rank`.
    std::size_t pivot = rank;
    while (pivot < rows && m.at(pivot, col) == F::zero()) ++pivot;
    if (pivot == rows) continue;
    // Swap the pivot row up.
    if (pivot != rank)
      for (std::size_t c = col; c < cols; ++c) std::swap(m.at(pivot, c), m.at(rank, c));
    // Normalize the pivot row from the pivot column on (everything left of
    // it is already zero in both rows).
    const std::size_t tail = cols - col;
    V* prow = m.row_ptr(rank) + col;
    detail::row_scale<F>(prow, F::inv(prow[0]), tail);
    // Eliminate the column from every other row.
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == rank) continue;
      V* row = m.row_ptr(r) + col;
      const V factor = row[0];
      if (factor == F::zero()) continue;
      detail::row_axpy<F>(row, prow, F::neg(factor), tail);
    }
    if (pivot_cols != nullptr) pivot_cols->push_back(col);
    ++rank;
  }
  obs::count(obs::counter::gf_rows_eliminated, rank);
  return rank;
}

/// Rank of a matrix (operates on a copy).
template <class F>
std::size_t rank(matrix<F> m) {
  return row_reduce(m);
}

}  // namespace nab::gf
