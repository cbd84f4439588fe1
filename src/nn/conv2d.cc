/**
 * @file
 * Implementation of the convolution layer.
 */

#include "nn/conv2d.h"

#include <cmath>

#include "common/logging.h"

namespace cq::nn {

Conv2d::Conv2d(std::string name, Conv2dGeometry geometry, Rng &rng,
               bool bias)
    : name_(std::move(name)),
      geom_(geometry),
      hasBias_(bias),
      weight_(name_ + ".weight",
              {geometry.inChannels * geometry.kernelH * geometry.kernelW,
               geometry.outChannels}),
      bias_(name_ + ".bias", {geometry.outChannels})
{
    const std::size_t fan_in =
        geom_.inChannels * geom_.kernelH * geom_.kernelW;
    const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
    weight_.value.fillUniform(rng, -bound, bound);
}

Tensor
Conv2d::forward(const Tensor &input)
{
    CQ_ASSERT_MSG(input.ndim() == 4 && input.dim(1) == geom_.inChannels,
                  "%s: bad input shape %s", name_.c_str(),
                  shapeToString(input.shape()).c_str());
    cachedInput_ = input;
    return conv2dForward(input, weight_.value,
                         hasBias_ ? &bias_.value : nullptr, geom_);
}

Tensor
Conv2d::backward(const Tensor &grad_output)
{
    CQ_ASSERT(grad_output.ndim() == 4);
    CQ_ASSERT(cachedInput_.numel() > 0);
    CQ_ASSERT(grad_output.dim(1) == geom_.outChannels);

    accumulate(weight_.grad,
               conv2dWeightGrad(cachedInput_, grad_output, geom_));
    // dBias = dY summed per channel over (image, oy, ox) in order.
    if (hasBias_) {
        const std::size_t n = grad_output.dim(0), k = grad_output.dim(1);
        const std::size_t pixels = grad_output.dim(2) * grad_output.dim(3);
        for (std::size_t kk = 0; kk < k; ++kk)
            for (std::size_t in = 0; in < n; ++in) {
                const float *plane =
                    grad_output.data() + (in * k + kk) * pixels;
                for (std::size_t px = 0; px < pixels; ++px)
                    bias_.grad[kk] += plane[px];
            }
    }
    return conv2dInputGrad(grad_output, weight_.value, cachedInput_.shape(),
                           geom_);
}

std::vector<Param *>
Conv2d::params()
{
    if (hasBias_)
        return {&weight_, &bias_};
    return {&weight_};
}

} // namespace cq::nn
