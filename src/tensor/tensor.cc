/**
 * @file
 * Implementation of the dense tensor.
 */

#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.h"

namespace cq {

std::size_t
shapeNumel(const Shape &shape)
{
    std::size_t n = 1;
    for (std::size_t d : shape)
        n *= d;
    return n;
}

std::string
shapeToString(const Shape &shape)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i)
            os << ", ";
        os << shape[i];
    }
    os << "]";
    return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), 0.0f)
{
}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), value)
{
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    CQ_ASSERT_MSG(data_.size() == shapeNumel(shape_),
                  "data size %zu != shape numel %zu",
                  data_.size(), shapeNumel(shape_));
}

std::size_t
Tensor::dim(std::size_t i) const
{
    CQ_ASSERT(i < shape_.size());
    return shape_[i];
}

Tensor &
Tensor::reshape(Shape shape)
{
    CQ_ASSERT_MSG(shapeNumel(shape) == data_.size(),
                  "reshape %s -> %s changes element count",
                  shapeToString(shape_).c_str(),
                  shapeToString(shape).c_str());
    shape_ = std::move(shape);
    return *this;
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::fillGaussian(Rng &rng, float mean, float stddev)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.gaussian(mean, stddev));
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &v : data_)
        v = static_cast<float>(rng.uniform(lo, hi));
}

void
Tensor::apply(const std::function<float(float)> &fn)
{
    for (auto &v : data_)
        v = fn(v);
}

float
Tensor::sum() const
{
    double s = 0.0;
    for (float v : data_)
        s += v;
    return static_cast<float>(s);
}

float
Tensor::mean() const
{
    return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float
Tensor::maxAbs() const
{
    float m = 0.0f;
    for (float v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

float
Tensor::min() const
{
    float m = data_.empty() ? 0.0f : data_[0];
    for (float v : data_)
        m = std::min(m, v);
    return m;
}

float
Tensor::max() const
{
    float m = data_.empty() ? 0.0f : data_[0];
    for (float v : data_)
        m = std::max(m, v);
    return m;
}

float
Tensor::sumSquares() const
{
    double s = 0.0;
    for (float v : data_)
        s += static_cast<double>(v) * v;
    return static_cast<float>(s);
}

bool
Tensor::operator==(const Tensor &other) const
{
    return shape_ == other.shape_ && data_ == other.data_;
}

} // namespace cq
