#include "nn/linear.h"

namespace fedgta {

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng& rng)
    : w_(in_dim, out_dim),
      b_(1, out_dim),
      dw_(in_dim, out_dim),
      db_(1, out_dim) {
  w_.GlorotInit(rng);
}

Matrix Linear::Forward(Matrix x) {
  FEDGTA_CHECK_EQ(x.cols(), w_.rows());
  cached_input_ = std::move(x);
  Matrix y = MatMul(cached_input_, w_);
  AddRowBroadcast(b_, &y);
  return y;
}

Matrix Linear::Backward(const Matrix& dy) {
  BackwardParams(dy);
  return MatMul(dy, w_, Transpose::kNo, Transpose::kYes);
}

void Linear::BackwardParams(const Matrix& dy) {
  FEDGTA_CHECK_EQ(dy.cols(), w_.cols());
  FEDGTA_CHECK_EQ(dy.rows(), cached_input_.rows())
      << "Backward without matching Forward";
  Gemm(cached_input_, Transpose::kYes, dy, Transpose::kNo, 1.0f, 1.0f, &dw_);
  db_ += ColumnSums(dy);
}

std::vector<ParamRef> Linear::Params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

void Linear::ZeroGrad() {
  dw_.SetZero();
  db_.SetZero();
}

}  // namespace fedgta
