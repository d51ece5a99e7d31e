#include "linalg/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/thread_pool.h"
#include "linalg/backend.h"
#include "obs/phase.h"

namespace fedgta {

void Gemm(const Matrix& a, Transpose trans_a, const Matrix& b,
          Transpose trans_b, float alpha, float beta, Matrix* c) {
  FEDGTA_PHASE_SCOPE("gemm");
  FEDGTA_CHECK(c != nullptr);
  const int64_t m = trans_a == Transpose::kNo ? a.rows() : a.cols();
  const int64_t ka = trans_a == Transpose::kNo ? a.cols() : a.rows();
  const int64_t kb = trans_b == Transpose::kNo ? b.rows() : b.cols();
  const int64_t n = trans_b == Transpose::kNo ? b.cols() : b.rows();
  FEDGTA_CHECK_EQ(ka, kb) << "GEMM inner dimensions mismatch";
  FEDGTA_CHECK_EQ(c->rows(), m);
  FEDGTA_CHECK_EQ(c->cols(), n);

  linalg::GemmCall call;
  call.a = {a.data(), trans_a == Transpose::kNo ? a.cols() : int64_t{1},
            trans_a == Transpose::kNo ? int64_t{1} : a.cols()};
  call.b = {b.data(), trans_b == Transpose::kNo ? b.cols() : int64_t{1},
            trans_b == Transpose::kNo ? int64_t{1} : b.cols()};
  call.m = m;
  call.n = n;
  call.k = ka;
  call.alpha = alpha;
  call.beta = beta;
  call.c = c->data();

  const linalg::Backend& backend = linalg::ActiveBackend();
  const int64_t work = m * n * ka;
  if (work < (1 << 16)) {
    backend.GemmRows(call, 0, m);
    return;
  }
  // Each chunk writes disjoint output rows and every backend's GemmRows is
  // row-independent with a chunk-invariant per-element accumulation order,
  // so the result is identical for any chunking — including the inline
  // single-chunk execution ParallelForChunked falls back to when this GEMM
  // already runs on a pool worker (a client task of the round executor).
  ParallelForChunked(
      0, m,
      [&](int64_t lo, int64_t hi) { backend.GemmRows(call, lo, hi); },
      /*min_chunk=*/std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, n * ka)));
}

void GemmRowBlockABt(const Matrix& a, int64_t row_begin, int64_t row_end,
                     const Matrix& b, Matrix* c) {
  FEDGTA_PHASE_SCOPE("gemm");
  FEDGTA_CHECK(c != nullptr);
  FEDGTA_CHECK(row_begin >= 0 && row_begin <= row_end &&
               row_end <= a.rows());
  FEDGTA_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = row_end - row_begin;
  const int64_t n = b.rows();
  const int64_t k = a.cols();
  FEDGTA_CHECK_EQ(c->rows(), m);
  FEDGTA_CHECK_EQ(c->cols(), n);
  if (m == 0 || n == 0) return;

  linalg::GemmCall call;
  call.a = {a.data() + row_begin * k, k, 1};
  call.b = {b.data(), 1, k};  // transposed view, as MatMul(.., kYes) builds
  call.m = m;
  call.n = n;
  call.k = k;
  call.alpha = 1.0f;
  call.beta = 0.0f;
  call.c = c->data();

  const linalg::Backend& backend = linalg::ActiveBackend();
  if (m * n * k < (1 << 16)) {
    backend.GemmRows(call, 0, m);
    return;
  }
  ParallelForChunked(
      0, m,
      [&](int64_t lo, int64_t hi) { backend.GemmRows(call, lo, hi); },
      /*min_chunk=*/std::max<int64_t>(
          1, (1 << 15) / std::max<int64_t>(1, n * k)));
}

Matrix MatMul(const Matrix& a, const Matrix& b, Transpose trans_a,
              Transpose trans_b) {
  const int64_t m = trans_a == Transpose::kNo ? a.rows() : a.cols();
  const int64_t n = trans_b == Transpose::kNo ? b.cols() : b.rows();
  Matrix c(m, n);
  Gemm(a, trans_a, b, trans_b, 1.0f, 0.0f, &c);
  return c;
}

void AddRowBroadcast(const Matrix& bias, Matrix* m) {
  FEDGTA_CHECK(m != nullptr);
  FEDGTA_CHECK_EQ(bias.rows(), 1);
  FEDGTA_CHECK_EQ(bias.cols(), m->cols());
  const int64_t cols = m->cols();
  const float* b = bias.data();
  for (int64_t r = 0; r < m->rows(); ++r) {
    float* row = m->data() + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += b[c];
  }
}

Matrix ColumnSums(const Matrix& m) {
  Matrix out(1, m.cols());
  linalg::ActiveBackend().ColumnSums(m.data(), m.rows(), m.cols(),
                                     out.data());
  return out;
}

void RowSoftmaxInPlace(Matrix* m) {
  FEDGTA_CHECK(m != nullptr);
  const int64_t cols = m->cols();
  if (cols == 0) return;
  const linalg::Backend& backend = linalg::ActiveBackend();
  float* data = m->data();
  ParallelForChunked(0, m->rows(),
                     [&backend, data, cols](int64_t lo, int64_t hi) {
                       backend.RowSoftmaxRows(data, cols, lo, hi);
                     });
}

std::vector<int> RowArgmax(const Matrix& m) {
  std::vector<int> out(static_cast<size_t>(m.rows()));
  const int64_t cols = m.cols();
  FEDGTA_CHECK_GT(cols, 0);
  for (int64_t r = 0; r < m.rows(); ++r) {
    const float* row = m.data() + r * cols;
    int best = 0;
    for (int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = static_cast<int>(c);
    }
    out[static_cast<size_t>(r)] = best;
  }
  return out;
}

void ReluInPlace(Matrix* m) {
  FEDGTA_CHECK(m != nullptr);
  float* data = m->data();
  const int64_t size = m->size();
  for (int64_t i = 0; i < size; ++i) data[i] = std::max(0.0f, data[i]);
}

void ReluBackwardInPlace(const Matrix& pre_activation, Matrix* grad) {
  FEDGTA_CHECK(grad != nullptr);
  FEDGTA_CHECK_EQ(pre_activation.rows(), grad->rows());
  FEDGTA_CHECK_EQ(pre_activation.cols(), grad->cols());
  const float* pre = pre_activation.data();
  float* g = grad->data();
  const int64_t size = grad->size();
  // A select, not a branch on the (random) sign; a NaN pre keeps g.
  for (int64_t i = 0; i < size; ++i) g[i] = pre[i] <= 0.0f ? 0.0f : g[i];
}

namespace {

// std::bernoulli_distribution(rate) on a 64-bit engine (libstdc++) is true
// exactly when double(u) / 2^64 < rate for the drawn word u: its
// generate_canonical<double, 53> takes one word and divides by 2^64, and a
// quotient that rounds to 1 is never below a rate < 1. The uint64 -> double
// rounding is monotone, so that holds exactly for u below the least u with
// double(u) >= rate * 2^64, found here by bisection.
uint64_t DropThreshold(float rate) {
  const double bound = std::ldexp(static_cast<double>(rate), 64);
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};  // double(hi) == 2^64 > bound
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) >= bound) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

void DropoutForward(float rate, Rng& rng, Matrix* m, Matrix* mask) {
  FEDGTA_CHECK(m != nullptr && mask != nullptr);
  FEDGTA_CHECK_GE(rate, 0.0f);
  FEDGTA_CHECK_LT(rate, 1.0f);
  // Every element of the mask is written below, so the cheaper
  // contents-unspecified resize is safe here.
  mask->EnsureShape(m->rows(), m->cols());
  if (rate == 0.0f) {
    mask->Fill(1.0f);
    return;
  }
  const float keep_scale = 1.0f / (1.0f - rate);
  const uint32_t keep_bits = std::bit_cast<uint32_t>(keep_scale);
  const uint64_t drop_below = DropThreshold(rate);
  float* data = m->data();
  float* mk = mask->data();
  const int64_t size = m->size();
  // One engine word per element, drawn in blocks: the same words, masks and
  // final engine state as one rng.Bernoulli(rate) per element.
  constexpr int64_t kBlock = 512;
  uint64_t words[kBlock];
  for (int64_t begin = 0; begin < size; begin += kBlock) {
    const int64_t len = std::min(kBlock, size - begin);
    rng.engine().Fill(words, static_cast<size_t>(len));
    float* d = data + begin;
    float* k = mk + begin;
    // Selects through an all-ones/all-zeros bit mask: a dropped element is
    // +0, as before, and the compiler cannot turn the select into a branch
    // on the (random) draw.
    for (int64_t i = 0; i < len; ++i) {
      const uint32_t keep = 0u - static_cast<uint32_t>(words[i] >= drop_below);
      k[i] = std::bit_cast<float>(keep_bits & keep);
      d[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(d[i] * keep_scale) &
                                  keep);
    }
  }
}

void DropoutBackward(const Matrix& mask, Matrix* grad) {
  FEDGTA_CHECK(grad != nullptr);
  FEDGTA_CHECK_EQ(mask.rows(), grad->rows());
  FEDGTA_CHECK_EQ(mask.cols(), grad->cols());
  const float* mk = mask.data();
  float* g = grad->data();
  const int64_t size = grad->size();
  for (int64_t i = 0; i < size; ++i) g[i] *= mk[i];
}

double Dot(std::span<const float> a, std::span<const float> b) {
  FEDGTA_CHECK_EQ(a.size(), b.size());
  return linalg::ActiveBackend().Dot(a, b);
}

double L2Norm(std::span<const float> a) { return std::sqrt(Dot(a, a)); }

double CosineSimilarity(std::span<const float> a, std::span<const float> b) {
  const double na = L2Norm(a);
  const double nb = L2Norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  FEDGTA_CHECK_EQ(x.size(), y.size());
  linalg::ActiveBackend().Axpy(alpha, x, y);
}

void RowNormalizeInPlace(Matrix* m, bool l1) {
  FEDGTA_CHECK(m != nullptr);
  const int64_t cols = m->cols();
  for (int64_t r = 0; r < m->rows(); ++r) {
    float* row = m->data() + r * cols;
    double norm = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      norm += l1 ? std::fabs(row[j]) : static_cast<double>(row[j]) * row[j];
    }
    if (!l1) norm = std::sqrt(norm);
    if (norm <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / norm);
    for (int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

MeanStd ComputeMeanStd(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  double sum = 0.0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - out.mean) * (v - out.mean);
  out.stddev = std::sqrt(var / static_cast<double>(values.size()));
  return out;
}

}  // namespace fedgta
