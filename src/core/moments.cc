#include "core/moments.h"

#include <algorithm>

#include "common/check.h"
#include "obs/phase.h"

namespace fedgta {

std::vector<float> MixedMoments(const std::vector<Matrix>& y_hops,
                                int moment_order) {
  FEDGTA_PHASE_SCOPE("moments");
  FEDGTA_CHECK(!y_hops.empty());
  FEDGTA_CHECK_GE(moment_order, 1);
  const int64_t n = y_hops.front().rows();
  const int64_t c = y_hops.front().cols();
  FEDGTA_CHECK_GT(n, 0);
  FEDGTA_CHECK_GT(c, 0);

  const size_t orders = static_cast<size_t>(moment_order);
  const size_t classes = static_cast<size_t>(c);
  std::vector<float> moments;
  moments.reserve(y_hops.size() * orders * classes);
  // One sweep per hop: each row's mean once, its deviations d, and the
  // powers d^o as a running product, summed into acc[(o - 1) * c + j].
  std::vector<double> acc(orders * classes);
  std::vector<double> dev(classes);
  std::vector<double> power(classes);
  for (const Matrix& y : y_hops) {
    FEDGTA_CHECK_EQ(y.rows(), n);
    FEDGTA_CHECK_EQ(y.cols(), c);
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      const float* row = y.data() + i * c;
      double mean = 0.0;
      for (int64_t j = 0; j < c; ++j) mean += row[j];
      mean /= static_cast<double>(c);
      for (size_t j = 0; j < classes; ++j) {
        dev[j] = static_cast<double>(row[j]) - mean;
        power[j] = dev[j];
        acc[j] += dev[j];
      }
      for (size_t o = 1; o < orders; ++o) {
        double* sum = acc.data() + o * classes;
        for (size_t j = 0; j < classes; ++j) {
          power[j] *= dev[j];
          sum[j] += power[j];
        }
      }
    }
    for (double sum : acc) {
      moments.push_back(static_cast<float>(sum / static_cast<double>(n)));
    }
  }
  return moments;
}

}  // namespace fedgta
