// Dense row-major matrix container used throughout AKS.
//
// `MatrixT<T>` is deliberately minimal: contiguous storage, bounds-checked
// element access in debug-style accessors, row views via std::span, and the
// handful of structural operations (resize, fill, row extraction) the ML and
// dataset layers need. Numerical algorithms live in `aks::ml::linalg`, not
// here, to keep the container free of policy.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace aks::common {

template <typename T>
class MatrixT {
 public:
  MatrixT() = default;

  MatrixT(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  /// Build from nested initializer lists; all rows must have equal length.
  MatrixT(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      AKS_CHECK(r.size() == cols_, "ragged initializer: row has " << r.size()
                                   << " elements, expected " << cols_);
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws Error on out-of-range indices.
  [[nodiscard]] T& at(std::size_t r, std::size_t c) {
    AKS_CHECK(r < rows_ && c < cols_, "matrix index (" << r << "," << c
              << ") out of range for " << rows_ << "x" << cols_);
    return (*this)(r, c);
  }
  [[nodiscard]] const T& at(std::size_t r, std::size_t c) const {
    AKS_CHECK(r < rows_ && c < cols_, "matrix index (" << r << "," << c
              << ") out of range for " << rows_ << "x" << cols_);
    return (*this)(r, c);
  }

  [[nodiscard]] std::span<T> row(std::size_t r) {
    AKS_CHECK(r < rows_, "row " << r << " out of range for " << rows_ << " rows");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    AKS_CHECK(r < rows_, "row " << r << " out of range for " << rows_ << " rows");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::vector<T> col(std::size_t c) const {
    AKS_CHECK(c < cols_, "col " << c << " out of range for " << cols_ << " cols");
    std::vector<T> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
    return out;
  }

  [[nodiscard]] std::span<T> data() noexcept { return data_; }
  [[nodiscard]] std::span<const T> data() const noexcept { return data_; }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  void resize(std::size_t rows, std::size_t cols, T init = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, init);
  }

  /// Returns a new matrix containing the given rows in the given order.
  [[nodiscard]] MatrixT select_rows(std::span<const std::size_t> indices) const {
    MatrixT out(indices.size(), cols_);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      AKS_CHECK(indices[i] < rows_, "select_rows: index " << indices[i]
                << " out of range for " << rows_ << " rows");
      auto src = row(indices[i]);
      std::copy(src.begin(), src.end(), out.row(i).begin());
    }
    return out;
  }

  [[nodiscard]] MatrixT transposed() const {
    MatrixT out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    return out;
  }

  [[nodiscard]] bool operator==(const MatrixT& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using Matrix = MatrixT<double>;
using FMatrix = MatrixT<float>;

}  // namespace aks::common
