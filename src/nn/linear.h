#ifndef FEDGTA_NN_LINEAR_H_
#define FEDGTA_NN_LINEAR_H_

#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "nn/parameters.h"

namespace fedgta {

/// Fully connected layer Y = X W + b with manual backprop. Forward caches
/// the input; Backward accumulates dW, db and returns dX. A first layer,
/// whose dX nobody reads, calls BackwardParams instead.
class Linear {
 public:
  /// Glorot-initialized weights, zero bias.
  Linear(int64_t in_dim, int64_t out_dim, Rng& rng);

  /// Y = X W + b. X is n x in_dim. The layer keeps X for Backward: pass an
  /// rvalue to hand it over without a copy.
  Matrix Forward(Matrix x);

  /// Accumulates dW += X^T dY, db += column-sums(dY); returns dX = dY W^T.
  /// Must follow a Forward call with matching shapes.
  Matrix Backward(const Matrix& dy);

  /// Backward without dX: accumulates dW and db only.
  void BackwardParams(const Matrix& dy);

  std::vector<ParamRef> Params();
  void ZeroGrad();

  int64_t in_dim() const { return w_.rows(); }
  int64_t out_dim() const { return w_.cols(); }

  const Matrix& weight() const { return w_; }
  const Matrix& bias() const { return b_; }
  /// The X of the last Forward.
  const Matrix& input() const { return cached_input_; }

 private:
  Matrix w_;   // in x out
  Matrix b_;   // 1 x out
  Matrix dw_;
  Matrix db_;
  Matrix cached_input_;
};

}  // namespace fedgta

#endif  // FEDGTA_NN_LINEAR_H_
