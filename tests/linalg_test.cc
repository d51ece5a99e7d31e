#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/backend.h"
#include "linalg/csr.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"

namespace fedgta {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.GaussianInit(rng, 1.0f);
  return m;
}

// Reference O(n^3) GEMM for verification.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b, bool ta, bool tb) {
  const int64_t m = ta ? a.cols() : a.rows();
  const int64_t k = ta ? a.rows() : a.cols();
  const int64_t n = tb ? b.rows() : b.cols();
  Matrix c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a(p, i) : a(i, p);
        const float bv = tb ? b(j, p) : b(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  EXPECT_FLOAT_EQ(m(2, 3), 2.5f);
  m(1, 2) = -1.0f;
  EXPECT_FLOAT_EQ(m(1, 2), -1.0f);
}

TEST(MatrixTest, RowSpanViewsUnderlyingData) {
  Matrix m(2, 3);
  auto row = m.Row(1);
  row[2] = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0f);
  const Matrix& cm = m;
  EXPECT_FLOAT_EQ(cm.Row(1)[2], 7.0f);
}

TEST(MatrixTest, FillAndResize) {
  Matrix m(2, 2, 1.0f);
  m.Fill(3.0f);
  EXPECT_FLOAT_EQ(m(0, 0), 3.0f);
  m.ResizeDiscard(4, 5);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_FLOAT_EQ(m(3, 4), 0.0f);
}

TEST(MatrixTest, ArithmeticOperators) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 2.0f);
  a += b;
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a(1, 1), 1.0f);
  a *= 4.0f;
  EXPECT_FLOAT_EQ(a(0, 1), 4.0f);
  a.Axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a(0, 0), 5.0f);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0f;
  m(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.FrobeniusNormSquared(), 25.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, AllClose) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 1.0f);
  EXPECT_TRUE(a.AllClose(b));
  b(1, 1) += 1e-3f;
  EXPECT_FALSE(a.AllClose(b, 1e-4f));
  EXPECT_TRUE(a.AllClose(b, 1e-2f));
  Matrix c(2, 3);
  EXPECT_FALSE(a.AllClose(c));
}

TEST(MatrixTest, GlorotInitWithinBounds) {
  Rng rng(1);
  Matrix m(30, 50);
  m.GlorotInit(rng);
  const float bound = std::sqrt(6.0f / 80.0f);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), bound);
  }
  // Not all zero.
  EXPECT_GT(m.FrobeniusNorm(), 0.1);
}

struct GemmCase {
  bool ta;
  bool tb;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  Rng rng(7);
  const auto [ta, tb] = GetParam();
  const int64_t m = 17, k = 23, n = 9;
  Matrix a = ta ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
  Matrix b = tb ? RandomMatrix(n, k, rng) : RandomMatrix(k, n, rng);
  Matrix got = MatMul(a, b, ta ? Transpose::kYes : Transpose::kNo,
                      tb ? Transpose::kYes : Transpose::kNo);
  Matrix want = NaiveMatMul(a, b, ta, tb);
  EXPECT_TRUE(got.AllClose(want, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTest,
                         ::testing::Values(GemmCase{false, false},
                                           GemmCase{true, false},
                                           GemmCase{false, true},
                                           GemmCase{true, true}));

TEST(GemmTest, AlphaBetaAccumulation) {
  Rng rng(3);
  Matrix a = RandomMatrix(4, 5, rng);
  Matrix b = RandomMatrix(5, 3, rng);
  Matrix c(4, 3, 1.0f);
  Gemm(a, Transpose::kNo, b, Transpose::kNo, 2.0f, 0.5f, &c);
  Matrix want = NaiveMatMul(a, b, false, false);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(c(i, j), 2.0f * want(i, j) + 0.5f, 1e-4f);
    }
  }
}

TEST(GemmTest, LargeParallelPathMatchesNaive) {
  Rng rng(11);
  Matrix a = RandomMatrix(150, 64, rng);
  Matrix b = RandomMatrix(64, 40, rng);
  Matrix got = MatMul(a, b);
  Matrix want = NaiveMatMul(a, b, false, false);
  EXPECT_TRUE(got.AllClose(want, 1e-2f));
}

// ---------------------------------------------------------------------------
// The reference kernels are the bitwise oracle. These cases pin them to the
// plain one-row-at-a-time ikj loop, bit for bit.

// The plain reference GEMM loop: one output row at a time, B read in place
// through its strides.
void PlainReferenceGemmRows(const linalg::GemmCall& call, int64_t row_begin,
                            int64_t row_end) {
  const int64_t n = call.n;
  const int64_t k = call.k;
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* c_row = call.c + i * n;
    if (call.beta == 0.0f) {
      std::fill(c_row, c_row + n, 0.0f);
    } else if (call.beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) c_row[j] *= call.beta;
    }
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = call.alpha * call.a.At(i, p);
      if (a_ip == 0.0f) continue;
      if (call.b.col_stride == 1) {
        const float* b_row = call.b.base + p * call.b.row_stride;
        for (int64_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
      } else {
        for (int64_t j = 0; j < n; ++j) c_row[j] += a_ip * call.b.At(p, j);
      }
    }
  }
}

bool BitwiseEqual(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Operands of one GEMM case, stored as the dispatch layer (ops.cc) views
// them. A_eff has ~1/3 zero entries and an all-zero column `kZeroCol`,
// whose B_eff row holds an Inf: a kernel that does not skip zero a_ip
// writes NaN.
struct KernelOperands {
  static constexpr int64_t kZeroCol = 2;
  std::vector<float> a, b, c0;
  linalg::GemmCall call;

  KernelOperands(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                 float alpha, float beta, uint64_t seed) {
    Rng rng(seed);
    a.resize(static_cast<size_t>(m * k));
    b.resize(static_cast<size_t>(k * n));
    c0.resize(static_cast<size_t>(m * n));
    for (float& v : a) v = rng.Bernoulli(0.33) ? 0.0f : rng.Normal(0.0f, 1.0f);
    for (float& v : b) v = rng.Normal(0.0f, 1.0f);
    for (float& v : c0) v = rng.Normal(0.0f, 1.0f);
    call.a = {a.data(), ta ? 1 : k, ta ? m : 1};
    call.b = {b.data(), tb ? 1 : n, tb ? k : 1};
    for (int64_t i = 0; i < m; ++i) {
      a[static_cast<size_t>(i * call.a.row_stride +
                            kZeroCol * call.a.col_stride)] = 0.0f;
    }
    b[static_cast<size_t>(kZeroCol * call.b.row_stride +
                          (n / 2) * call.b.col_stride)] =
        std::numeric_limits<float>::infinity();
    call.m = m;
    call.n = n;
    call.k = k;
    call.alpha = alpha;
    call.beta = beta;
  }

  /// C after running `kernel` over `splits` (consecutive row-range ends).
  template <typename Kernel>
  std::vector<float> Run(Kernel kernel, const std::vector<int64_t>& splits) {
    std::vector<float> c = c0;
    linalg::GemmCall run = call;
    run.c = c.data();
    int64_t lo = 0;
    for (int64_t hi : splits) {
      kernel(run, lo, hi);
      lo = hi;
    }
    return c;
  }
};

template <typename Check>
void ForEachKernelCase(Check check) {
  uint64_t seed = 100;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const float alpha : {1.0f, 0.5f}) {
        for (const float beta : {0.0f, 1.0f, -0.5f}) {
          for (const int64_t m : {int64_t{1}, int64_t{13}}) {
            for (const int64_t n : {3, 40, 64, 300}) {
              SCOPED_TRACE(testing::Message()
                           << "ta=" << ta << " tb=" << tb << " alpha="
                           << alpha << " beta=" << beta << " m=" << m
                           << " n=" << n);
              KernelOperands ops(ta, tb, m, n, /*k=*/29, alpha, beta, ++seed);
              check(ops);
            }
          }
        }
      }
    }
  }
}

TEST(ReferenceKernelTest, GemmMatchesPlainLoopBitwise) {
  const linalg::Backend* reference = linalg::FindBackend("reference");
  ASSERT_NE(reference, nullptr);
  auto kernel = [reference](const linalg::GemmCall& call, int64_t lo,
                            int64_t hi) { reference->GemmRows(call, lo, hi); };
  ForEachKernelCase([&](KernelOperands& ops) {
    const int64_t m = ops.call.m;
    const std::vector<float> want = ops.Run(PlainReferenceGemmRows, {m});
    for (float v : want) ASSERT_FALSE(std::isnan(v)) << "zero a_ip not skipped";
    EXPECT_TRUE(BitwiseEqual(ops.Run(kernel, {m}), want));
    if (m > 2) {
      // Row ranges of 1, 2 and the rest: single-row and panelled paths.
      EXPECT_TRUE(BitwiseEqual(ops.Run(kernel, {1, 3, m}), want));
    }
  });
}

TEST(OpsTest, AddRowBroadcast) {
  Matrix m(2, 3, 1.0f);
  Matrix bias(1, 3);
  bias(0, 0) = 1.0f;
  bias(0, 1) = 2.0f;
  bias(0, 2) = 3.0f;
  AddRowBroadcast(bias, &m);
  EXPECT_FLOAT_EQ(m(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 2), 4.0f);
}

TEST(OpsTest, ColumnSums) {
  Matrix m(3, 2);
  m(0, 0) = 1.0f;
  m(1, 0) = 2.0f;
  m(2, 0) = 3.0f;
  m(0, 1) = -1.0f;
  Matrix sums = ColumnSums(m);
  EXPECT_FLOAT_EQ(sums(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(sums(0, 1), -1.0f);
}

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  Rng rng(5);
  Matrix m = RandomMatrix(20, 7, rng);
  m *= 10.0f;  // stress numerical stability
  RowSoftmaxInPlace(&m);
  for (int64_t i = 0; i < m.rows(); ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < m.cols(); ++j) {
      EXPECT_GE(m(i, j), 0.0f);
      sum += m(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(OpsTest, RowSoftmaxStableForHugeLogits) {
  Matrix m(1, 3);
  m(0, 0) = 1000.0f;
  m(0, 1) = 999.0f;
  m(0, 2) = -1000.0f;
  RowSoftmaxInPlace(&m);
  EXPECT_TRUE(std::isfinite(m(0, 0)));
  EXPECT_GT(m(0, 0), m(0, 1));
  EXPECT_NEAR(m(0, 2), 0.0f, 1e-6f);
}

TEST(OpsTest, RowArgmax) {
  Matrix m(2, 3);
  m(0, 1) = 5.0f;
  m(1, 2) = 2.0f;
  const std::vector<int> argmax = RowArgmax(m);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_EQ(argmax[1], 2);
}

TEST(OpsTest, ReluForwardAndBackward) {
  Matrix m(1, 4);
  m(0, 0) = -2.0f;
  m(0, 1) = 3.0f;
  m(0, 2) = 0.0f;
  m(0, 3) = -0.5f;
  Matrix pre = m;
  ReluInPlace(&m);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 3.0f);
  Matrix grad(1, 4, 1.0f);
  ReluBackwardInPlace(pre, &grad);
  EXPECT_FLOAT_EQ(grad(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(grad(0, 2), 0.0f);  // gradient 0 at exactly 0
}

// The branchy loop ReluBackwardInPlace replaced.
TEST(OpsTest, ReluBackwardMatchesBranchyLoopOnSignedZerosAndNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> pres{nan,  -nan, 0.0f, -0.0f, -1.0f, 1.0f,
                                -inf, inf,  1e-45f, -1e-45f};
  const std::vector<float> grads{2.5f, -0.0f, nan, -3.0f, inf};
  Matrix pre(static_cast<int64_t>(pres.size()),
             static_cast<int64_t>(grads.size()));
  Matrix grad(pre.rows(), pre.cols());
  for (int64_t r = 0; r < pre.rows(); ++r) {
    for (int64_t c = 0; c < pre.cols(); ++c) {
      pre(r, c) = pres[static_cast<size_t>(r)];
      grad(r, c) = grads[static_cast<size_t>(c)];
    }
  }
  Matrix expected = grad;
  for (int64_t i = 0; i < expected.size(); ++i) {
    if (pre.data()[i] <= 0.0f) expected.data()[i] = 0.0f;
  }
  ReluBackwardInPlace(pre, &grad);
  for (int64_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(grad.data()[i]),
              std::bit_cast<uint32_t>(expected.data()[i]))
        << "pre " << pre.data()[i] << " grad " << expected.data()[i];
  }
  // A NaN pre-activation keeps its gradient.
  EXPECT_EQ(grad(0, 0), 2.5f);
  EXPECT_EQ(grad(1, 0), 2.5f);
}

// DropoutForward's element loop before it drew its words in blocks: one
// std::bernoulli_distribution(rate) per element on the std engine.
void ReferenceDropout(float rate, std::mt19937_64& engine, Matrix* m,
                      Matrix* mask) {
  *mask = Matrix(m->rows(), m->cols());
  const float keep_scale = 1.0f / (1.0f - rate);
  for (int64_t i = 0; i < m->size(); ++i) {
    if (std::bernoulli_distribution(rate)(engine)) {
      mask->data()[i] = 0.0f;
      m->data()[i] = 0.0f;
    } else {
      mask->data()[i] = keep_scale;
      m->data()[i] *= keep_scale;
    }
  }
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  if (a.size() == 0) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

std::string EngineText(const std::mt19937_64& engine) {
  std::ostringstream os;
  os << engine;
  return os.str();
}

TEST(OpsTest, DropoutForwardMatchesPerElementBernoulliBitwise) {
  const std::vector<std::pair<int64_t, int64_t>> shapes{
      {0, 64}, {1, 1}, {1, 511}, {1, 512}, {1, 513}, {100, 100}};
  for (float rate : {1e-7f, 0.3f, 0.5f, 0.9f}) {
    for (const auto& [rows, cols] : shapes) {
      SCOPED_TRACE(testing::Message() << "rate " << rate << " shape " << rows
                                      << "x" << cols);
      Rng rng(17);
      std::mt19937_64 ref(17);
      // Start mid-block so the draws cross the engine's 312-word twist.
      for (int i = 0; i < 200; ++i) ASSERT_EQ(rng.engine()(), ref());
      Rng init(3);
      Matrix m = RandomMatrix(rows, cols, init);
      Matrix expected = m;
      Matrix mask;
      Matrix expected_mask;
      DropoutForward(rate, rng, &m, &mask);
      ReferenceDropout(rate, ref, &expected, &expected_mask);
      ExpectBitwiseEqual(m, expected);
      ExpectBitwiseEqual(mask, expected_mask);
      EXPECT_EQ(rng.SaveState(), EngineText(ref));
    }
  }
}

// Inverse of MT19937-64's output tempering, so a test can choose the words
// the engine will return next.
uint64_t Untemper(uint64_t y) {
  y ^= y >> 43;
  y ^= (y << 37) & 0xfff7eee000000000ULL;
  uint64_t x = y;
  for (int i = 0; i < 4; ++i) x = y ^ ((x << 17) & 0x71d67fffeda60000ULL);
  y = x;
  for (int i = 0; i < 3; ++i) x = y ^ ((x >> 29) & 0x5555555555555555ULL);
  return x;
}

// The drop test's threshold on the raw word: every word within 1,100 of
// rate * 2^64 (more than half a double ulp at 2^63, where uint64 -> double
// rounding decides) drops exactly when std::bernoulli_distribution says so.
TEST(OpsTest, DropoutThresholdMatchesBernoulliAtTheRoundingBoundary) {
  for (float rate : {1e-7f, 0.3f, 0.5f, 0.7f, 0.9f}) {
    const uint64_t center = static_cast<uint64_t>(
        std::ldexp(static_cast<double>(rate), 64));
    for (int64_t start = -1100; start < 1100;
         start += static_cast<int64_t>(Mt19937_64::kStateSize)) {
      std::ostringstream text;
      for (size_t i = 0; i < Mt19937_64::kStateSize; ++i) {
        const uint64_t word =
            center + static_cast<uint64_t>(start + static_cast<int64_t>(i));
        text << Untemper(word) << ' ';
      }
      text << 0;
      Rng rng(1);
      ASSERT_TRUE(rng.LoadState(text.str()).ok());
      std::mt19937_64 ref;
      std::istringstream(text.str()) >> ref;
      ASSERT_EQ(ref(), center + static_cast<uint64_t>(start));
      std::istringstream(text.str()) >> ref;
      Matrix m(1, static_cast<int64_t>(Mt19937_64::kStateSize), 1.0f);
      Matrix expected = m;
      Matrix mask;
      Matrix expected_mask;
      DropoutForward(rate, rng, &m, &mask);
      ReferenceDropout(rate, ref, &expected, &expected_mask);
      ExpectBitwiseEqual(mask, expected_mask);
      ExpectBitwiseEqual(m, expected);
    }
  }
}

TEST(OpsTest, DropoutStatisticsAndMask) {
  Rng rng(9);
  Matrix m(100, 100, 1.0f);
  Matrix mask;
  DropoutForward(0.4f, rng, &m, &mask);
  int64_t zeros = 0;
  for (int64_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] == 0.0f) {
      ++zeros;
      EXPECT_FLOAT_EQ(mask.data()[i], 0.0f);
    } else {
      EXPECT_NEAR(m.data()[i], 1.0f / 0.6f, 1e-5f);
    }
  }
  const double rate = static_cast<double>(zeros) / static_cast<double>(m.size());
  EXPECT_NEAR(rate, 0.4, 0.03);

  Matrix grad(100, 100, 2.0f);
  DropoutBackward(mask, &grad);
  for (int64_t i = 0; i < grad.size(); ++i) {
    if (mask.data()[i] == 0.0f) {
      EXPECT_FLOAT_EQ(grad.data()[i], 0.0f);
    }
  }
}

TEST(OpsTest, DropoutRateZeroIsIdentity) {
  Rng rng(1);
  Matrix m(4, 4, 2.0f);
  Matrix mask;
  DropoutForward(0.0f, rng, &m, &mask);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(m.data()[i], 2.0f);
    EXPECT_FLOAT_EQ(mask.data()[i], 1.0f);
  }
}

TEST(OpsTest, VectorHelpers) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{4.0f, -5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b), 12.0);
  EXPECT_NEAR(L2Norm(a), std::sqrt(14.0), 1e-9);
  std::vector<float> y{0.0f, 0.0f, 0.0f};
  Axpy(2.0f, a, y);
  EXPECT_FLOAT_EQ(y[2], 6.0f);
}

TEST(OpsTest, CosineSimilarityProperties) {
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{0.0f, 1.0f};
  const std::vector<float> c{2.0f, 0.0f};
  const std::vector<float> zero{0.0f, 0.0f};
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-9);  // scale invariant
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero), 0.0);
}

TEST(OpsTest, ComputeMeanStd) {
  const MeanStd ms = ComputeMeanStd({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(ms.mean, 5.0);
  EXPECT_DOUBLE_EQ(ms.stddev, 2.0);
  EXPECT_DOUBLE_EQ(ComputeMeanStd({}).mean, 0.0);
  EXPECT_DOUBLE_EQ(ComputeMeanStd({3.0}).stddev, 0.0);
}

TEST(CsrTest, FromCooSumsDuplicates) {
  CsrMatrix m = CsrMatrix::FromCoo(
      3, 3, {{0, 1, 1.0f}, {0, 1, 2.0f}, {2, 0, 5.0f}, {1, 1, 1.0f}});
  EXPECT_EQ(m.nnz(), 3);
  Matrix dense = m.ToDense();
  EXPECT_FLOAT_EQ(dense(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(dense(2, 0), 5.0f);
  EXPECT_FLOAT_EQ(dense(1, 1), 1.0f);
}

TEST(CsrTest, RowAccessors) {
  CsrMatrix m = CsrMatrix::FromCoo(2, 4, {{0, 3, 2.0f}, {0, 1, 1.0f}});
  EXPECT_EQ(m.RowNnz(0), 2);
  EXPECT_EQ(m.RowNnz(1), 0);
  const auto cols = m.RowCols(0);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 1);  // sorted
  EXPECT_EQ(cols[1], 3);
  const auto sums = m.RowSums();
  EXPECT_FLOAT_EQ(sums[0], 3.0f);
  EXPECT_FLOAT_EQ(sums[1], 0.0f);
}

TEST(CsrTest, MultiplyMatchesDense) {
  Rng rng(13);
  std::vector<CooEntry> entries;
  for (int i = 0; i < 200; ++i) {
    entries.push_back({static_cast<int32_t>(rng.UniformInt(0, 29)),
                       static_cast<int32_t>(rng.UniformInt(0, 19)),
                       rng.Normal()});
  }
  CsrMatrix sparse = CsrMatrix::FromCoo(30, 20, entries);
  Matrix dense = RandomMatrix(20, 8, rng);
  Matrix got = sparse * dense;
  Matrix want = NaiveMatMul(sparse.ToDense(), dense, false, false);
  EXPECT_TRUE(got.AllClose(want, 1e-3f));
}

TEST(CsrTest, TransposedMatchesDenseTranspose) {
  Rng rng(17);
  std::vector<CooEntry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({static_cast<int32_t>(rng.UniformInt(0, 9)),
                       static_cast<int32_t>(rng.UniformInt(0, 14)),
                       rng.Normal()});
  }
  CsrMatrix m = CsrMatrix::FromCoo(10, 15, entries);
  CsrMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 15);
  EXPECT_EQ(t.cols(), 10);
  Matrix md = m.ToDense();
  Matrix td = t.ToDense();
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t j = 0; j < 15; ++j) {
      EXPECT_FLOAT_EQ(md(i, j), td(j, i));
    }
  }
}

TEST(CsrTest, EmptyMatrix) {
  CsrMatrix m = CsrMatrix::FromCoo(4, 4, {});
  EXPECT_EQ(m.nnz(), 0);
  Matrix dense(4, 2, 1.0f);
  Matrix out = m * dense;
  EXPECT_EQ(out.rows(), 4);
  EXPECT_DOUBLE_EQ(out.FrobeniusNorm(), 0.0);
}

}  // namespace
}  // namespace fedgta
