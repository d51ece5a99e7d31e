// Backend-equivalence suite: every registered kernel backend must agree
// with the "reference" oracle within floating-point reassociation
// tolerance (1e-4 relative), across all four GEMM transpose combinations,
// alpha/beta variants, odd shapes, SIMD-width straddlers, and the SpMM
// corner cases (empty rows, dense rows, duplicate-merged COO). Also pins
// the within-backend determinism contract: a backend's output must be
// bit-identical for any row chunking, and the GatherDots contract: each
// output equals the backend's own GemmRows element bit for bit. The
// reference backend's Axpy must equal the scalar base loop, and
// the simd backend's portable and AVX2+FMA variants must write the same
// bits on every kernel.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/backend.h"
#include "linalg/csr.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"

namespace fedgta {
namespace {

constexpr float kRelTol = 1e-4f;
constexpr float kAbsTol = 1e-5f;

std::vector<std::string> NonReferenceBackends() {
  std::vector<std::string> names;
  for (const std::string& name : linalg::ListBackends()) {
    if (name != "reference") names.push_back(name);
  }
  return names;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.GaussianInit(rng, 1.0f);
  return m;
}

/// `abs_scale` widens the absolute floor for long reductions: a k-term sum
/// of O(1) values can cancel to a tiny result while its roundoff scales
/// with sqrt(k), so GEMM checks pass sqrt(k) here.
void ExpectAllCloseRel(const Matrix& got, const Matrix& want,
                       const std::string& context, float abs_scale = 1.0f) {
  ASSERT_EQ(got.rows(), want.rows()) << context;
  ASSERT_EQ(got.cols(), want.cols()) << context;
  for (int64_t r = 0; r < got.rows(); ++r) {
    for (int64_t c = 0; c < got.cols(); ++c) {
      const float w = want(r, c);
      const float g = got(r, c);
      ASSERT_LE(std::abs(g - w), kAbsTol * abs_scale + kRelTol * std::abs(w))
          << context << " at (" << r << ", " << c << "): got " << g
          << " want " << w;
    }
  }
}

/// Runs C = alpha*A_eff*B_eff + beta*C through the public dispatch under
/// `backend` and compares against the same call under "reference".
void CheckGemm(const std::string& backend, int64_t m, int64_t n, int64_t k,
               Transpose ta, Transpose tb, float alpha, float beta,
               Rng& rng) {
  const Matrix a = ta == Transpose::kNo ? RandomMatrix(m, k, rng)
                                        : RandomMatrix(k, m, rng);
  const Matrix b = tb == Transpose::kNo ? RandomMatrix(k, n, rng)
                                        : RandomMatrix(n, k, rng);
  const Matrix c0 = RandomMatrix(m, n, rng);

  Matrix want = c0;
  {
    linalg::ScopedBackend scope("reference");
    Gemm(a, ta, b, tb, alpha, beta, &want);
  }
  Matrix got = c0;
  {
    linalg::ScopedBackend scope(backend);
    Gemm(a, ta, b, tb, alpha, beta, &got);
  }
  const std::string context =
      backend + " gemm m=" + std::to_string(m) + " n=" + std::to_string(n) +
      " k=" + std::to_string(k) +
      " ta=" + std::to_string(ta == Transpose::kYes) +
      " tb=" + std::to_string(tb == Transpose::kYes) +
      " alpha=" + std::to_string(alpha) + " beta=" + std::to_string(beta);
  ExpectAllCloseRel(got, want, context,
                    1.0f + std::sqrt(static_cast<float>(k)));
}

TEST(BackendEquivalence, GemmOddShapesAllTransposesAlphaBeta) {
  const struct {
    float alpha;
    float beta;
  } scalings[] = {{1.0f, 0.0f}, {0.5f, 1.0f}, {2.0f, -0.5f}};
  for (const std::string& backend : NonReferenceBackends()) {
    Rng rng(1234);
    for (int64_t m = 1; m <= 9; ++m) {
      for (int64_t n = 1; n <= 9; ++n) {
        for (int64_t k = 1; k <= 9; ++k) {
          CheckGemm(backend, m, n, k, Transpose::kNo, Transpose::kNo, 1.0f,
                    0.0f, rng);
        }
      }
    }
    // All transpose combos and alpha/beta variants over a shape set that
    // straddles the microkernel widths (MR/NR = 4/8/8x8) and the odd range
    // the issue calls out: 1..17 plus 31/32/33.
    const int64_t shapes[] = {1, 2, 3, 5, 7, 8, 9, 12, 13, 15, 16, 17,
                              31, 32, 33};
    for (int64_t s : shapes) {
      for (const auto ta : {Transpose::kNo, Transpose::kYes}) {
        for (const auto tb : {Transpose::kNo, Transpose::kYes}) {
          for (const auto& sc : scalings) {
            CheckGemm(backend, s, 33 - (s % 3), s + 2, ta, tb, sc.alpha,
                      sc.beta, rng);
            CheckGemm(backend, 17, s, 31, ta, tb, sc.alpha, sc.beta, rng);
          }
        }
      }
    }
  }
}

TEST(BackendEquivalence, GemmTiledPanelsAndParallelPath) {
  // Shapes crossing the cache-blocking constants (KC=256, MC=96, NC=512)
  // and big enough to take the ParallelForChunked path.
  const struct {
    int64_t m, n, k;
  } shapes[] = {{37, 19, 300}, {100, 64, 257}, {70, 520, 33}, {130, 40, 512}};
  for (const std::string& backend : NonReferenceBackends()) {
    Rng rng(99);
    for (const auto& s : shapes) {
      for (const auto ta : {Transpose::kNo, Transpose::kYes}) {
        for (const auto tb : {Transpose::kNo, Transpose::kYes}) {
          CheckGemm(backend, s.m, s.n, s.k, ta, tb, 1.0f, 0.0f, rng);
        }
      }
      CheckGemm(backend, s.m, s.n, s.k, Transpose::kNo, Transpose::kNo,
                0.5f, 1.0f, rng);
    }
  }
}

TEST(BackendEquivalence, GemmChunkInvarianceWithinBackend) {
  // The determinism contract: for a fixed backend, GemmRows output must be
  // bit-identical for any row chunking (this is what keeps multi-threaded
  // runs reproducible per backend).
  Rng rng(7);
  const int64_t m = 45, n = 37, k = 301;
  const Matrix a = RandomMatrix(m, k, rng);
  const Matrix b = RandomMatrix(k, n, rng);
  for (const std::string& name : linalg::ListBackends()) {
    const linalg::Backend* backend = linalg::FindBackend(name);
    ASSERT_NE(backend, nullptr) << name;
    linalg::GemmCall call;
    call.a = {a.data(), k, 1};
    call.b = {b.data(), n, 1};
    call.m = m;
    call.n = n;
    call.k = k;
    call.alpha = 1.0f;
    call.beta = 0.0f;
    Matrix whole(m, n);
    call.c = whole.data();
    backend->GemmRows(call, 0, m);
    Matrix chunked(m, n);
    call.c = chunked.data();
    // Deliberately ragged chunk boundaries.
    const int64_t cuts[] = {0, 1, 7, 8, 20, 33, m};
    for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
      backend->GemmRows(call, cuts[i], cuts[i + 1]);
    }
    EXPECT_EQ(std::memcmp(whole.data(), chunked.data(),
                          sizeof(float) * static_cast<size_t>(m * n)),
              0)
        << name << " output depends on chunk boundaries";
  }
}

CsrMatrix MakeTestCsr(int64_t rows, int64_t cols, Rng& rng) {
  std::vector<CooEntry> entries;
  for (int32_t r = 0; r < rows; ++r) {
    if (r % 5 == 1) continue;  // empty rows
    if (r % 7 == 0) {
      // Dense row.
      for (int32_t c = 0; c < cols; ++c) {
        entries.push_back({r, c, rng.Uniform(-1.0f, 1.0f)});
      }
      continue;
    }
    const int64_t nnz = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < nnz; ++i) {
      const int32_t c = static_cast<int32_t>(rng.UniformInt(0, cols - 1));
      entries.push_back({r, c, rng.Uniform(-1.0f, 1.0f)});
      if (i == 0) {
        // Duplicate entry — FromCoo must merge, all backends must agree.
        entries.push_back({r, c, rng.Uniform(-1.0f, 1.0f)});
      }
    }
  }
  return CsrMatrix::FromCoo(rows, cols, std::move(entries));
}

TEST(BackendEquivalence, SpmmCornerCases) {
  Rng rng(4321);
  const int64_t rows = 64, inner = 48;
  const CsrMatrix csr = MakeTestCsr(rows, inner, rng);
  for (const int64_t f : {1, 7, 8, 9, 16, 33}) {
    const Matrix dense = RandomMatrix(inner, f, rng);
    Matrix want;
    {
      linalg::ScopedBackend scope("reference");
      csr.Multiply(dense, &want);
    }
    for (const std::string& backend : NonReferenceBackends()) {
      Matrix got;
      {
        linalg::ScopedBackend scope(backend);
        csr.Multiply(dense, &got);
      }
      ExpectAllCloseRel(got, want, backend + " spmm f=" + std::to_string(f));
    }
  }
}

TEST(BackendEquivalence, SpmmOverwritesStaleScratch) {
  // Kernels must overwrite their rows: feeding a scratch matrix full of
  // garbage must give the same result as a fresh one (this is what lets
  // the dispatch layer use EnsureShape instead of a zero-fill).
  Rng rng(777);
  const CsrMatrix csr = MakeTestCsr(32, 24, rng);
  const Matrix dense = RandomMatrix(24, 9, rng);
  for (const std::string& name : linalg::ListBackends()) {
    linalg::ScopedBackend scope(name);
    Matrix fresh;
    csr.Multiply(dense, &fresh);
    Matrix stale(32, 9, 1e30f);
    csr.Multiply(dense, &stale);
    EXPECT_TRUE(stale.AllClose(fresh, 0.0f)) << name;
  }
}

TEST(BackendEquivalence, VectorOpsMatchReference) {
  Rng rng(55);
  const Matrix x = RandomMatrix(1, 1003, rng);
  const Matrix y0 = RandomMatrix(1, 1003, rng);
  const linalg::Backend* reference = linalg::FindBackend("reference");
  ASSERT_NE(reference, nullptr);
  const double want_dot = reference->Dot(x.Row(0), y0.Row(0));
  Matrix want_axpy = y0;
  reference->Axpy(0.75f, x.Row(0), want_axpy.Row(0));
  const Matrix m = RandomMatrix(57, 33, rng);
  std::vector<float> want_sums(33);
  reference->ColumnSums(m.data(), 57, 33, want_sums.data());
  Matrix want_softmax = m;
  reference->RowSoftmaxRows(want_softmax.data(), 33, 0, 57);

  for (const std::string& name : NonReferenceBackends()) {
    const linalg::Backend* backend = linalg::FindBackend(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_NEAR(backend->Dot(x.Row(0), y0.Row(0)), want_dot,
                1e-4 * std::abs(want_dot) + 1e-6)
        << name;
    Matrix got_axpy = y0;
    backend->Axpy(0.75f, x.Row(0), got_axpy.Row(0));
    ExpectAllCloseRel(got_axpy, want_axpy, name + " axpy");
    std::vector<float> got_sums(33);
    backend->ColumnSums(m.data(), 57, 33, got_sums.data());
    for (size_t i = 0; i < got_sums.size(); ++i) {
      EXPECT_LE(std::abs(got_sums[i] - want_sums[i]),
                kAbsTol + kRelTol * std::abs(want_sums[i]))
          << name << " column " << i;
    }
    Matrix got_softmax = m;
    backend->RowSoftmaxRows(got_softmax.data(), 33, 0, 57);
    ExpectAllCloseRel(got_softmax, want_softmax, name + " softmax");
  }
}

/// Both variants of the simd backend this host can run: portable always,
/// AVX2+FMA where cpuid reports it.
std::vector<std::unique_ptr<linalg::Backend>> SimdVariants() {
  std::vector<std::unique_ptr<linalg::Backend>> variants;
  variants.push_back(linalg::internal::MakeSimdVariantBackend(
      linalg::internal::SimdVariant::kPortable));
  if (linalg::internal::SimdAvx2Supported()) {
    variants.push_back(linalg::internal::MakeSimdVariantBackend(
        linalg::internal::SimdVariant::kAvx2));
  }
  return variants;
}

// The GatherDots contract (linalg/backend.h): for every backend, each
// output is bitwise element (0, j) of that backend's GemmRows on the
// gathered rows. Rows with zero entries exercise the skipped products;
// widths straddle the eight-candidate blocks of the reference kernel, and
// the index lists repeat and run out of order. The simd backend's two ISA
// variants are held to their backend's GemmRows as well.
TEST(BackendEquivalence, GatherDotsBitwiseEqualToGemmRowsElement) {
  std::vector<std::pair<std::string, const linalg::Backend*>> backends;
  for (const std::string& name : linalg::ListBackends()) {
    backends.emplace_back(name, linalg::FindBackend(name));
    ASSERT_NE(backends.back().second, nullptr) << name;
  }
  const std::vector<std::unique_ptr<linalg::Backend>> simd_variants =
      SimdVariants();
  for (const auto& variant : simd_variants) {
    backends.emplace_back(variant->description(), variant.get());
  }

  const int64_t rows = 40;
  Rng rng(2024);
  for (const int64_t d : {1, 7, 8, 150, 257, 300}) {
    Matrix table = RandomMatrix(rows, d, rng);
    std::vector<float> row(static_cast<size_t>(d));
    for (int64_t p = 0; p < d; ++p) {
      // Every third entry zero (one of them negative zero).
      row[static_cast<size_t>(p)] =
          p % 3 == 1 ? (p == 1 ? -0.0f : 0.0f) : rng.Normal();
    }
    for (const int64_t count : {0, 1, 7, 8, 9, 700}) {
      // Unsorted, and with repeats once count passes the table height.
      std::vector<int32_t> idx(static_cast<size_t>(count));
      for (int64_t j = 0; j < count; ++j) {
        idx[static_cast<size_t>(j)] =
            static_cast<int32_t>((j * 17 + 5) % rows);
      }
      if (count > 1) idx[1] = idx[0];
      Matrix gathered(std::max<int64_t>(count, 1), d);
      for (int64_t j = 0; j < count; ++j) {
        std::copy_n(table.data() + int64_t{idx[static_cast<size_t>(j)]} * d,
                    d, gathered.data() + j * d);
      }
      for (const auto& [name, backend] : backends) {
        SCOPED_TRACE(testing::Message()
                     << name << " d=" << d << " count=" << count);
        std::vector<float> want(static_cast<size_t>(count) + 1, -1.0f);
        linalg::GemmCall call;
        call.a = {row.data(), d, 1};
        call.b = {gathered.data(), 1, d};
        call.m = 1;
        call.n = count;
        call.k = d;
        call.c = want.data();
        if (count > 0) backend->GemmRows(call, 0, 1);
        // The sentinel past the end must survive: no write beyond count.
        std::vector<float> got(static_cast<size_t>(count) + 1, -1.0f);
        backend->GatherDots(row.data(), table.data(), d, idx, got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              sizeof(float) * got.size()),
                  0);
      }
    }
  }
}

// The reference backend's Axpy kernel must write the scalar base loop's
// bits, signed zeros and subnormals included, for lengths around the
// vector widths.
TEST(BackendEquivalence, ReferenceAxpyVariantsBitwiseEqual) {
  const linalg::Backend* reference = linalg::FindBackend("reference");
  ASSERT_NE(reference, nullptr);
  // Zero, negative zero, subnormals of both signs, then normal values.
  const float special[] = {0.0f, -0.0f, 1e-40f, -3e-39f, 1e-45f};
  Rng rng(77);
  for (const size_t n : {0, 1, 7, 8, 9, 1024, 1031}) {
    // One sentinel past the end of y, which must survive.
    std::vector<float> x(n + 1);
    std::vector<float> y0(n + 1, -1.0f);
    for (size_t i = 0; i < n; ++i) {
      x[i] = i % 3 == 0 ? special[i % 5] : rng.Normal();
      y0[i] = i % 4 == 1 ? special[(i + 2) % 5] : rng.Normal();
    }
    const std::span<const float> xs(x.data(), n);
    for (const float alpha : {0.75f, -1.5f, 1e-30f, -0.0f}) {
      std::vector<float> want = y0;
      reference->Backend::Axpy(alpha, xs, std::span<float>(want.data(), n));
      SCOPED_TRACE(testing::Message() << "n=" << n << " alpha=" << alpha);
      std::vector<float> got = y0;
      reference->Axpy(alpha, xs, std::span<float>(got.data(), n));
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), sizeof(float) * got.size()), 0);
    }
  }
}

/// Fills `v` with normal draws, salted with zeros, a negative zero and
/// subnormals at fixed positions.
void FillSpecial(std::span<float> v, Rng& rng) {
  const float special[] = {0.0f, -0.0f, 1e-40f, -3e-39f};
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 5 == 2 ? special[(i / 5) % 4] : rng.Normal();
  }
}

void ExpectBitwiseEqual(std::span<const float> got,
                        std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  if (got.empty()) return;  // memcmp must not see an empty vector's null
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.size()),
            0);
}

// The simd backend's contract (linalg/backend.h): its portable variant,
// which every host can run, writes the bits of its AVX2+FMA variant on
// every kernel, so its floats do not depend on the host. Shapes straddle
// the microkernel tiles (4x8 portable, 8x8 AVX2), the 256-deep k-panels,
// the 96-row and 512-column blocks and the 8-float vectors.
TEST(BackendEquivalence, SimdVariantsBitwiseEqual) {
  if (!linalg::internal::SimdAvx2Supported()) {
    GTEST_SKIP() << "host has no AVX2+FMA: only the portable variant runs";
  }
  const auto portable = linalg::internal::MakeSimdVariantBackend(
      linalg::internal::SimdVariant::kPortable);
  const auto avx2 = linalg::internal::MakeSimdVariantBackend(
      linalg::internal::SimdVariant::kAvx2);
  ASSERT_EQ(portable->description(), "simd(portable)");
  ASSERT_EQ(avx2->description(), "simd(avx2+fma)");
  Rng rng(31);

  const struct {
    int64_t m, n, k;
  } shapes[] = {{1, 1, 1},    {3, 5, 7},     {9, 17, 257},
                {13, 7, 600}, {100, 33, 31}, {5, 515, 300}};
  const struct {
    float alpha, beta;
  } scalings[] = {{1.0f, 0.0f}, {0.5f, 1.0f}, {-1.25f, 0.75f}};
  for (const auto& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        for (const auto& sc : scalings) {
          SCOPED_TRACE(testing::Message()
                       << "gemm m=" << s.m << " n=" << s.n << " k=" << s.k
                       << " ta=" << ta << " tb=" << tb
                       << " alpha=" << sc.alpha << " beta=" << sc.beta);
          std::vector<float> a(static_cast<size_t>(s.m * s.k));
          std::vector<float> b(static_cast<size_t>(s.k * s.n));
          std::vector<float> c0(static_cast<size_t>(s.m * s.n));
          FillSpecial(a, rng);
          FillSpecial(b, rng);
          FillSpecial(c0, rng);
          linalg::GemmCall call;
          call.a = ta ? linalg::GemmView{a.data(), 1, s.m}
                      : linalg::GemmView{a.data(), s.k, 1};
          call.b = tb ? linalg::GemmView{b.data(), 1, s.k}
                      : linalg::GemmView{b.data(), s.n, 1};
          call.m = s.m;
          call.n = s.n;
          call.k = s.k;
          call.alpha = sc.alpha;
          call.beta = sc.beta;
          std::vector<float> want = c0;
          call.c = want.data();
          avx2->GemmRows(call, 0, s.m);
          std::vector<float> got = c0;
          call.c = got.data();
          portable->GemmRows(call, 0, s.m);
          ExpectBitwiseEqual(got, want);
        }
      }
    }
  }

  // Row r stores r % 8 entries (odd counts included), duplicates merged.
  std::vector<CooEntry> entries;
  const int64_t rows = 40, inner = 30;
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t e = 0; e < r % 8; ++e) {
      entries.push_back({r, static_cast<int32_t>((r * 7 + e * 11) % inner),
                         rng.Uniform(-1.0f, 1.0f)});
    }
  }
  const CsrMatrix csr = CsrMatrix::FromCoo(rows, inner, std::move(entries));
  for (const int64_t f : {1, 7, 8, 9, 13, 33}) {
    SCOPED_TRACE(testing::Message() << "spmm f=" << f);
    std::vector<float> dense(static_cast<size_t>(inner * f));
    FillSpecial(dense, rng);
    linalg::SpmmCall call;
    call.row_ptr = csr.row_ptr().data();
    call.col_idx = csr.col_idx().data();
    call.values = csr.values().data();
    call.dense = dense.data();
    call.f = f;
    std::vector<float> want(static_cast<size_t>(rows * f), 1e30f);
    call.out = want.data();
    avx2->SpmmRows(call, 0, rows);
    std::vector<float> got(static_cast<size_t>(rows * f), -1e30f);
    call.out = got.data();
    portable->SpmmRows(call, 0, rows);
    ExpectBitwiseEqual(got, want);
  }

  const int64_t lengths[] = {0, 1, 7, 8, 9, 1031};
  for (const int64_t n : lengths) {
    SCOPED_TRACE(testing::Message() << "length " << n);
    const size_t len = static_cast<size_t>(n);
    std::vector<float> x(len);
    std::vector<float> y0(len);
    FillSpecial(x, rng);
    FillSpecial(y0, rng);

    const double want_dot = avx2->Dot(x, y0);
    const double got_dot = portable->Dot(x, y0);
    EXPECT_EQ(std::memcmp(&got_dot, &want_dot, sizeof(double)), 0)
        << got_dot << " vs " << want_dot;

    for (const float alpha : {0.75f, -1.5f, 1e-30f, -0.0f}) {
      std::vector<float> want = y0;
      avx2->Axpy(alpha, x, want);
      std::vector<float> got = y0;
      portable->Axpy(alpha, x, got);
      ExpectBitwiseEqual(got, want);
    }

    // GatherDots: d = n over a 20-row table, then n candidates of a
    // 9-wide one.
    for (const auto& [d, count] :
         {std::pair{n, int64_t{20}}, std::pair{int64_t{9}, n}}) {
      SCOPED_TRACE(testing::Message()
                   << "gather d=" << d << " count=" << count);
      const int64_t table_rows = 20;
      std::vector<float> table(static_cast<size_t>(table_rows * d));
      std::vector<float> row(static_cast<size_t>(d));
      FillSpecial(table, rng);
      FillSpecial(row, rng);
      std::vector<int32_t> idx(static_cast<size_t>(count));
      for (int64_t j = 0; j < count; ++j) {
        idx[static_cast<size_t>(j)] =
            static_cast<int32_t>((j * 13 + 3) % table_rows);
      }
      std::vector<float> want(static_cast<size_t>(count));
      avx2->GatherDots(row.data(), table.data(), d, idx, want.data());
      std::vector<float> got(static_cast<size_t>(count));
      portable->GatherDots(row.data(), table.data(), d, idx, got.data());
      ExpectBitwiseEqual(got, want);
    }

    // ColumnSums of 5 x n and n x 9.
    for (const auto& [rows, cols] :
         {std::pair{int64_t{5}, n}, std::pair{n, int64_t{9}}}) {
      SCOPED_TRACE(testing::Message() << "sums " << rows << " x " << cols);
      std::vector<float> m(static_cast<size_t>(rows * cols));
      FillSpecial(m, rng);
      std::vector<float> want(static_cast<size_t>(cols));
      avx2->ColumnSums(m.data(), rows, cols, want.data());
      std::vector<float> got(static_cast<size_t>(cols));
      portable->ColumnSums(m.data(), rows, cols, got.data());
      ExpectBitwiseEqual(got, want);
    }
  }
}

// The simd portable variant computes each fused step in double arithmetic
// instead of calling std::fma (backend_simd.cc). Its Axpy, one fused step
// per element, must give std::fma's bits on every host: for float bit
// patterns drawn from the whole finite range, for sums that cancel to a few
// ulps, for exact float midpoints that a nonzero addend far below them
// breaks (naive double rounding gets these wrong), and for zeros, signed
// zeros, subnormals, infinities, NaN and overflow.
TEST(BackendEquivalence, SimdPortableFusedStepMatchesStdFma) {
  const auto portable = linalg::internal::MakeSimdVariantBackend(
      linalg::internal::SimdVariant::kPortable);
  Rng rng(37);
  const auto any_finite = [&rng] {
    for (;;) {
      const uint32_t bits = static_cast<uint32_t>(
          rng.UniformInt(0, int64_t{std::numeric_limits<uint32_t>::max()}));
      float f;
      std::memcpy(&f, &bits, sizeof f);
      if (std::isfinite(f)) return f;
    }
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float special[] = {0.0f,
                           -0.0f,
                           1.0f,
                           -1.0f,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::min(),
                           std::numeric_limits<float>::max(),
                           -std::numeric_limits<float>::max(),
                           inf,
                           -inf,
                           std::numeric_limits<float>::quiet_NaN()};
  const float mid = 1.0f + std::ldexp(1.0f, -12);  // mid * mid is a midpoint

  std::vector<float> alphas = {mid, -mid};
  for (const float s : special) alphas.push_back(s);
  while (alphas.size() < 48) alphas.push_back(any_finite());
  const size_t n = 2048;
  int64_t mismatches = 0;
  for (size_t round = 0; round < alphas.size(); ++round) {
    const float alpha = alphas[round];
    std::vector<float> x(n);
    std::vector<float> y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = any_finite();
      switch (i % 4) {
        case 0:
          y[i] = any_finite();
          break;
        case 1:  // -alpha * x to within a few ulps: heavy cancellation
          y[i] = -(alpha * x[i]) *
                 (1.0f + std::ldexp(static_cast<float>(rng.UniformInt(-8, 8)),
                                    -23));
          break;
        case 2:  // alpha * x exact midpoints broken by a far smaller addend
          x[i] = alpha == mid || alpha == -mid ? mid : x[i];
          y[i] = std::ldexp(static_cast<float>(rng.UniformInt(-1, 1)),
                            static_cast<int>(rng.UniformInt(-149, -60)));
          break;
        default:
          x[i] = special[i / 4 % std::size(special)];
          y[i] = special[i / 44 % std::size(special)];
      }
    }
    std::vector<float> got = y;
    portable->Axpy(alpha, x, got);
    for (size_t i = 0; i < n; ++i) {
      const float want = std::fma(alpha, x[i], y[i]);
      if (std::isnan(want) && std::isnan(got[i])) continue;
      if (std::memcmp(&want, &got[i], sizeof(float)) != 0 &&
          ++mismatches <= 10) {
        ADD_FAILURE() << std::hexfloat << "fma(" << alpha << ", " << x[i]
                      << ", " << y[i] << ") = " << want << ", portable "
                      << got[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(BackendRegistry, ListFindAndSelection) {
  EXPECT_EQ(linalg::ListBackends(),
            (std::vector<std::string>{"reference", "simd"}));
  EXPECT_EQ(linalg::FindBackend("no-such-backend"), nullptr);
  EXPECT_FALSE(linalg::SetActiveBackend("no-such-backend").ok());
  const std::string before(linalg::ActiveBackendName());
  {
    linalg::ScopedBackend scope("reference");
    EXPECT_EQ(linalg::ActiveBackendName(), "reference");
  }
  EXPECT_EQ(linalg::ActiveBackendName(), before);
}

TEST(BackendRegistry, MatrixEnsureShapeReusesStorage) {
  Matrix m(3, 4, 7.0f);
  const float* ptr = m.data();
  m.EnsureShape(4, 3);  // same element count: storage reused, no zeroing
  EXPECT_EQ(m.data(), ptr);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 3);
  m.ResizeDiscard(2, 2);
  EXPECT_FLOAT_EQ(m(1, 1), 0.0f);
}

}  // namespace
}  // namespace fedgta
