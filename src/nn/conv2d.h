/**
 * @file
 * 2-d convolution layer (implicit-GEMM lowering).
 */

#ifndef CQ_NN_CONV2D_H
#define CQ_NN_CONV2D_H

#include "common/rng.h"
#include "nn/layer.h"
#include "tensor/tensor_ops.h"

namespace cq::nn {

/**
 * Convolution over NCHW inputs. Forward and backward run the
 * implicit-GEMM kernels conv2dForward / conv2dWeightGrad /
 * conv2dInputGrad: patch tiles are packed straight from the input
 * into the GEMM, as the PE array's CONV instruction reads input tiles,
 * and no (N*P*Q, C*R*S) patch matrix is ever built. The layer caches
 * its input (C*H*W per image) for the weight gradient, and doubles as
 * the functional reference for the CONV instruction.
 */
class Conv2d : public Layer
{
  public:
    Conv2d(std::string name, Conv2dGeometry geometry, Rng &rng,
           bool bias = true);

    const std::string &name() const override { return name_; }
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_output) override;
    std::vector<Param *> params() override;

    const Conv2dGeometry &geometry() const { return geom_; }
    Param &weight() { return weight_; }

  private:
    std::string name_;
    Conv2dGeometry geom_;
    bool hasBias_;
    /** Stored as (C*R*S, K) so forward is cols x weight. */
    Param weight_;
    Param bias_;
    Tensor cachedInput_;
};

} // namespace cq::nn

#endif // CQ_NN_CONV2D_H
