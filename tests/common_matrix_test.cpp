#include "common/matrix.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace aks::common {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizedConstructionInitialises) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 5.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), Error);
}

TEST(Matrix, ElementWriteThroughParens) {
  Matrix m(2, 2);
  m(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), Error);
  EXPECT_THROW((void)m.at(0, 2), Error);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, RowSpanAliasesStorage) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
}

TEST(Matrix, RowOutOfRangeThrows) {
  Matrix m(2, 3);
  EXPECT_THROW((void)m.row(2), Error);
}

TEST(Matrix, ColExtraction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const auto col = m.col(1);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_DOUBLE_EQ(col[0], 2.0);
  EXPECT_DOUBLE_EQ(col[1], 4.0);
  EXPECT_THROW((void)m.col(2), Error);
}

TEST(Matrix, FillOverwritesAll) {
  Matrix m(3, 3, 1.0);
  m.fill(0.0);
  for (const double v : m.data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Matrix, ResizeDiscardsContents) {
  Matrix m(2, 2, 5.0);
  m.resize(3, 1, 2.0);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_DOUBLE_EQ(m(2, 0), 2.0);
}

TEST(Matrix, SelectRowsReorders) {
  Matrix m{{1.0}, {2.0}, {3.0}};
  const std::size_t idx[] = {2, 0, 2};
  const Matrix s = m.select_rows(idx);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(s(2, 0), 3.0);
}

TEST(Matrix, SelectRowsOutOfRangeThrows) {
  Matrix m(2, 1);
  const std::size_t idx[] = {5};
  EXPECT_THROW((void)m.select_rows(idx), Error);
}

TEST(Matrix, TransposedSwapsIndices) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      EXPECT_DOUBLE_EQ(t(c, r), m(r, c));
}

TEST(Matrix, EqualityComparesShapeAndData) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0, 2.0}};
  Matrix c{{1.0}, {2.0}};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(FMatrix, FloatSpecialisationWorks) {
  FMatrix m(2, 2, 0.5f);
  m(0, 1) = 2.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 0.5f);
}

}  // namespace
}  // namespace aks::common
