/**
 * @file
 * A small dense N-dimensional float tensor.
 *
 * This is the numeric substrate for the DNN training framework and the
 * software reference for the accelerator's functional model. Only FP32
 * elements are stored; quantized representations live in src/quant.
 */

#ifndef CQ_TENSOR_TENSOR_H
#define CQ_TENSOR_TENSOR_H

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace cq {

/** Shape of a tensor: extent of each dimension, outermost first. */
using Shape = std::vector<std::size_t>;

/** Number of elements covered by a shape (1 for the empty shape). */
std::size_t shapeNumel(const Shape &shape);

/** Render a shape as "[a, b, c]" for messages. */
std::string shapeToString(const Shape &shape);

/**
 * Dense row-major FP32 tensor.
 *
 * Semantics are value-like: copying a Tensor copies its storage. The
 * element count is fixed by the shape; reshape() is only a metadata
 * change and requires an identical element count.
 */
class Tensor
{
  public:
    /** An empty 0-element tensor. */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Tensor of the given shape filled with @p value. */
    Tensor(Shape shape, float value);

    /** Build from explicit data; data.size() must equal numel(shape). */
    Tensor(Shape shape, std::vector<float> data);

    /** @name Shape and storage access */
    /** @{ */
    const Shape &shape() const { return shape_; }
    std::size_t ndim() const { return shape_.size(); }
    std::size_t numel() const { return data_.size(); }
    std::size_t dim(std::size_t i) const;
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::vector<float> &vec() { return data_; }
    const std::vector<float> &vec() const { return data_; }
    /** @} */

    /** Linear element access. */
    float &operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** 2-d access for matrices: element (row, col). */
    float &at2(std::size_t r, std::size_t c)
    {
        return data_[index2(r, c)];
    }
    float at2(std::size_t r, std::size_t c) const
    {
        return data_[index2(r, c)];
    }

    /** 4-d access (n, c, h, w) for image tensors. */
    float &at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w)
    {
        return data_[index4(n, c, h, w)];
    }
    float at4(std::size_t n, std::size_t c, std::size_t h,
              std::size_t w) const
    {
        return data_[index4(n, c, h, w)];
    }

    /** Change the shape without touching data; numel must match. */
    Tensor &reshape(Shape shape);

    /** Fill every element with @p value. */
    void fill(float value);

    /** Fill with N(mean, stddev) samples from @p rng. */
    void fillGaussian(Rng &rng, float mean, float stddev);

    /** Fill with U[lo, hi) samples from @p rng. */
    void fillUniform(Rng &rng, float lo, float hi);

    /** Apply @p fn elementwise in place. */
    void apply(const std::function<float(float)> &fn);

    /** @name Reductions */
    /** @{ */
    float sum() const;
    float mean() const;
    float maxAbs() const;
    float min() const;
    float max() const;
    /** Squared L2 norm. */
    float sumSquares() const;
    /** @} */

    /** True when shapes and all elements match exactly. */
    bool operator==(const Tensor &other) const;

  private:
    /** Bounds-checked linear index of element (r, c). */
    std::size_t index2(std::size_t r, std::size_t c) const
    {
        CQ_ASSERT(ndim() == 2 && r < shape_[0] && c < shape_[1]);
        return r * shape_[1] + c;
    }

    /** Bounds-checked linear index of element (n, c, h, w). */
    std::size_t index4(std::size_t n, std::size_t c, std::size_t h,
                       std::size_t w) const
    {
        CQ_ASSERT(ndim() == 4);
        CQ_ASSERT(n < shape_[0] && c < shape_[1] && h < shape_[2] &&
                  w < shape_[3]);
        return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
    }

    Shape shape_;
    std::vector<float> data_;
};

} // namespace cq

#endif // CQ_TENSOR_TENSOR_H
