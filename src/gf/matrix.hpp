#pragma once

#include <cstddef>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nab::gf {

/// Dense row-major matrix over a binary extension field.
///
/// `F` is a stateless field tag (gf2_16, gf2m<M>) exposing
/// value_type, zero/one, add/sub/mul/inv/div. Elimination (gf/linalg.hpp)
/// is over gf2_16 alone; gf2m matrices are only built and multiplied (the
/// Theorem-1 miss-rate test in tests/paper). The matrix owns its storage;
/// copying is explicit and cheap enough for the sizes NAB needs (the largest
/// matrices are the (n-f-1)*rho square certification matrices, well under
/// 10^3 x 10^3).
template <class F>
class matrix {
 public:
  using field = F;
  using value_type = typename F::value_type;

  matrix() = default;

  /// rows x cols zero matrix.
  matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, F::zero()) {}

  static matrix identity(std::size_t n) {
    matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = F::one();
    return m;
  }

  /// Matrix with entries drawn independently and uniformly from F — exactly
  /// the coding-matrix distribution of Theorem 1.
  static matrix random(std::size_t rows, std::size_t cols, rng& rand) {
    matrix m(rows, cols);
    for (auto& v : m.data_)
      v = static_cast<value_type>(rand.below(F::order));
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  value_type& at(std::size_t r, std::size_t c) {
    NAB_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const value_type& at(std::size_t r, std::size_t c) const {
    NAB_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Contiguous storage of row r (rows are row-major) — row_reduce runs
  /// gf2_16's row kernels (axpy / scale) directly on these.
  value_type* row_ptr(std::size_t r) {
    NAB_ASSERT(r < rows_, "matrix row out of range");
    return data_.data() + r * cols_;
  }
  const value_type* row_ptr(std::size_t r) const {
    NAB_ASSERT(r < rows_, "matrix row out of range");
    return data_.data() + r * cols_;
  }

  bool operator==(const matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

  matrix transpose() const {
    matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
    return t;
  }

  /// Entry-wise sum. Precondition: identical shapes.
  friend matrix operator+(const matrix& a, const matrix& b) {
    NAB_ASSERT(a.rows_ == b.rows_ && a.cols_ == b.cols_, "matrix shape mismatch in +");
    matrix out(a.rows_, a.cols_);
    for (std::size_t i = 0; i < a.data_.size(); ++i)
      out.data_[i] = F::add(a.data_[i], b.data_[i]);
    return out;
  }

  /// Matrix product. Precondition: a.cols() == b.rows().
  friend matrix operator*(const matrix& a, const matrix& b) {
    NAB_ASSERT(a.cols_ == b.rows_, "matrix shape mismatch in *");
    matrix out(a.rows_, b.cols_);
    for (std::size_t r = 0; r < a.rows_; ++r) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const value_type arv = a.at(r, k);
        if (arv == F::zero()) continue;
        for (std::size_t c = 0; c < b.cols_; ++c) {
          out.at(r, c) = F::add(out.at(r, c), F::mul(arv, b.at(k, c)));
        }
      }
    }
    return out;
  }

  /// Copy of the given columns, in the given order.
  matrix select_columns(const std::vector<std::size_t>& cols) const {
    matrix out(rows_, cols.size());
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t j = 0; j < cols.size(); ++j) {
        NAB_ASSERT(cols[j] < cols_, "select_columns index out of range");
        out.at(r, j) = at(r, cols[j]);
      }
    return out;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<value_type> data_;
};

}  // namespace nab::gf
