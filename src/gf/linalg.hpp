#pragma once

#include <utility>
#include <vector>

#include "gf/gf2_16.hpp"
#include "gf/matrix.hpp"
#include "obs/obs.hpp"

namespace nab::gf {

/// In-place reduction to row echelon form by Gaussian elimination over
/// GF(2^16). Returns the rank; `pivot_cols`, if non-null, receives the pivot
/// column of each nonzero row. O(rows * cols * min(rows, cols)) field
/// operations, whose inner loops run on gf2_16's row kernels.
inline std::size_t row_reduce(matrix<gf2_16>& m,
                              std::vector<std::size_t>* pivot_cols = nullptr) {
  using V = gf2_16::value_type;
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < rows; ++col) {
    // Find a pivot in this column at or below `rank`.
    std::size_t pivot = rank;
    while (pivot < rows && m.at(pivot, col) == 0) ++pivot;
    if (pivot == rows) continue;
    // Swap the pivot row up.
    if (pivot != rank)
      for (std::size_t c = col; c < cols; ++c) std::swap(m.at(pivot, c), m.at(rank, c));
    // Normalize the pivot row from the pivot column on (everything left of
    // it is already zero in both rows).
    const std::size_t tail = cols - col;
    V* prow = m.row_ptr(rank) + col;
    gf2_16::scale(prow, gf2_16::inv(prow[0]), tail);
    // Eliminate the column from every other row (-factor = factor in
    // characteristic 2).
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == rank) continue;
      V* row = m.row_ptr(r) + col;
      const V factor = row[0];
      if (factor == 0) continue;
      gf2_16::axpy(row, prow, factor, tail);
    }
    if (pivot_cols != nullptr) pivot_cols->push_back(col);
    ++rank;
  }
  obs::count(obs::counter::gf_rows_eliminated, rank);
  return rank;
}

/// Rank of a matrix (operates on a copy).
inline std::size_t rank(matrix<gf2_16> m) { return row_reduce(m); }

}  // namespace nab::gf
