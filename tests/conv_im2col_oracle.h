/**
 * @file
 * Test-only oracle: convolution lowered through an explicit patch
 * matrix (im2col -> GEMM -> col2im).
 *
 * im2col and col2im are the library functions the implicit-GEMM
 * convolution kernels replaced, kept verbatim apart from the
 * namespace and the dropped trace spans; convForward / convBackward
 * are Conv2d::forward / backward as they were written on top of them.
 * Tests require cq::conv2dForward, conv2dWeightGrad and
 * conv2dInputGrad (and nn::Conv2d) to match this path bit for bit.
 */

#ifndef CQ_TESTS_CONV_IM2COL_ORACLE_H
#define CQ_TESTS_CONV_IM2COL_ORACLE_H

#include <cstddef>

#include "common/logging.h"
#include "common/threadpool.h"
#include "tensor/abft.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace cq::oracle {

/**
 * im2col: unfold convolution input patches into a matrix of shape
 * (N*P*Q, C*R*S) so convolution becomes matmul with the (C*R*S, K)
 * reshaped kernel.
 */
inline Tensor
im2col(const Tensor &input, const Conv2dGeometry &g)
{
    CQ_ASSERT_MSG(input.ndim() == 4, "im2col: expects NCHW, got %s",
                  shapeToString(input.shape()).c_str());
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    CQ_ASSERT_MSG(c == g.inChannels,
                  "im2col: input %s has %zu channels, geometry wants %zu",
                  shapeToString(input.shape()).c_str(), c, g.inChannels);
    const std::size_t p = g.outH(h), q = g.outW(w);
    const std::size_t patch = c * g.kernelH * g.kernelW;

    Tensor cols({n * p * q, patch});
    float *out = cols.data();
    parallelFor(0, n * p * q, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
            const std::size_t in = r / (p * q);
            const std::size_t oy = (r / q) % p;
            const std::size_t ox = r % q;
            float *row = out + r * patch;
            std::size_t idx = 0;
            for (std::size_t ic = 0; ic < c; ++ic) {
                for (std::size_t ky = 0; ky < g.kernelH; ++ky) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                        static_cast<std::ptrdiff_t>(g.pad);
                    for (std::size_t kx = 0; kx < g.kernelW; ++kx) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(
                                ox * g.stride + kx) -
                            static_cast<std::ptrdiff_t>(g.pad);
                        float v = 0.0f;
                        if (iy >= 0 && ix >= 0 &&
                            iy < static_cast<std::ptrdiff_t>(h) &&
                            ix < static_cast<std::ptrdiff_t>(w)) {
                            v = input.at4(in, ic,
                                          static_cast<std::size_t>(iy),
                                          static_cast<std::size_t>(ix));
                        }
                        row[idx++] = v;
                    }
                }
            }
        }
    });
    return cols;
}

/**
 * col2im: inverse scatter-add of im2col. Each (image, channel) plane
 * takes its patches in (oy, ox, ky, kx) order.
 */
inline Tensor
col2im(const Tensor &cols, const Shape &inputShape, const Conv2dGeometry &g)
{
    CQ_ASSERT_MSG(inputShape.size() == 4, "col2im: expects NCHW, got %s",
                  shapeToString(inputShape).c_str());
    const std::size_t n = inputShape[0], c = inputShape[1];
    const std::size_t h = inputShape[2], w = inputShape[3];
    const std::size_t p = g.outH(h), q = g.outW(w);
    const std::size_t patch = c * g.kernelH * g.kernelW;
    CQ_ASSERT_MSG(cols.ndim() == 2 && cols.dim(0) == n * p * q &&
                      cols.dim(1) == patch,
                  "col2im: cols %s incompatible with input %s "
                  "(want [%zu, %zu])",
                  shapeToString(cols.shape()).c_str(),
                  shapeToString(inputShape).c_str(), n * p * q, patch);

    Tensor out(inputShape);
    const float *in = cols.data();
    parallelFor(0, n * c, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t plane = lo; plane < hi; ++plane) {
            const std::size_t inn = plane / c;
            const std::size_t ic = plane % c;
            const std::size_t patch_base = ic * g.kernelH * g.kernelW;
            for (std::size_t oy = 0; oy < p; ++oy) {
                for (std::size_t ox = 0; ox < q; ++ox) {
                    const float *row =
                        in + ((inn * p + oy) * q + ox) * patch;
                    std::size_t idx = patch_base;
                    for (std::size_t ky = 0; ky < g.kernelH; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                            static_cast<std::ptrdiff_t>(g.pad);
                        for (std::size_t kx = 0; kx < g.kernelW; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(
                                    ox * g.stride + kx) -
                                static_cast<std::ptrdiff_t>(g.pad);
                            const float v = row[idx++];
                            if (iy >= 0 && ix >= 0 &&
                                iy < static_cast<std::ptrdiff_t>(h) &&
                                ix < static_cast<std::ptrdiff_t>(w)) {
                                out.at4(inn, ic,
                                        static_cast<std::size_t>(iy),
                                        static_cast<std::size_t>(ix)) += v;
                            }
                        }
                    }
                }
            }
        }
    });
    return out;
}

/**
 * The (N*P*Q, K) product of a convolution forward, plus @p bias
 * (may be nullptr), relayed out to (N, K, P, Q).
 */
inline Tensor
rowsToNchw(Tensor flat, const Tensor *bias, std::size_t n, std::size_t p,
           std::size_t q)
{
    const std::size_t k = flat.dim(1);
    if (bias != nullptr) {
        for (std::size_t r = 0; r < flat.dim(0); ++r)
            for (std::size_t kk = 0; kk < k; ++kk)
                flat.at2(r, kk) += (*bias)[kk];
    }
    Tensor out({n, k, p, q});
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t oy = 0; oy < p; ++oy)
            for (std::size_t ox = 0; ox < q; ++ox) {
                const std::size_t row = (in * p + oy) * q + ox;
                for (std::size_t kk = 0; kk < k; ++kk)
                    out.at4(in, kk, oy, ox) = flat.at2(row, kk);
            }
    return out;
}

/** Conv2d::forward on the explicit patch matrix. */
inline Tensor
convForward(const Tensor &input, const Tensor &weight, const Tensor *bias,
            const Conv2dGeometry &g)
{
    const Tensor flat = matmul(im2col(input, g), weight);
    return rowsToNchw(flat, bias, input.dim(0), g.outH(input.dim(2)),
                      g.outW(input.dim(3)));
}

/** What Conv2d::backward produces. */
struct ConvGrads
{
    Tensor dw;    ///< cols^T * dY (before accumulation into the grad)
    Tensor dbias; ///< @p dbias_in plus dY's per-channel sums
    Tensor dx;
};

/** Conv2d::backward on the explicit patch matrix. */
inline ConvGrads
convBackward(const Tensor &input, const Tensor &grad_output,
             const Tensor &weight, const Conv2dGeometry &g,
             Tensor dbias_in)
{
    const std::size_t n = grad_output.dim(0), k = grad_output.dim(1);
    const std::size_t p = grad_output.dim(2), q = grad_output.dim(3);
    Tensor flat({n * p * q, k});
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t oy = 0; oy < p; ++oy)
            for (std::size_t ox = 0; ox < q; ++ox) {
                const std::size_t row = (in * p + oy) * q + ox;
                for (std::size_t kk = 0; kk < k; ++kk)
                    flat.at2(row, kk) = grad_output.at4(in, kk, oy, ox);
            }
    ConvGrads out;
    out.dw = matmulTransA(im2col(input, g), flat);
    out.dbias = std::move(dbias_in);
    for (std::size_t r = 0; r < flat.dim(0); ++r)
        for (std::size_t kk = 0; kk < k; ++kk)
            out.dbias[kk] += flat.at2(r, kk);
    out.dx = col2im(matmulTransB(flat, weight), input.shape(), g);
    return out;
}

} // namespace cq::oracle

#endif // CQ_TESTS_CONV_IM2COL_ORACLE_H
