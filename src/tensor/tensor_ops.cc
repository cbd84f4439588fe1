/**
 * @file
 * Implementation of tensor operations.
 */

#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/threadpool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/abft.h"

namespace cq {

namespace {

void
checkSameShape(const Tensor &a, const Tensor &b, const char *op)
{
    CQ_ASSERT_MSG(a.shape() == b.shape(), "%s: shape mismatch %s vs %s",
                  op, shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
}

/** Minimum elements per chunk for elementwise loops. */
constexpr std::size_t kElementwiseGrain = 1 << 14;

/** Minimum scalar operations worth shipping to another thread. */
constexpr std::size_t kMinParallelWork = 1 << 15;

/**
 * Grain (rows per chunk) for a loop whose every index costs
 * @p work_per_row scalar operations: small matrices stay serial,
 * large ones split into one chunk per thread.
 */
std::size_t
rowGrain(std::size_t work_per_row)
{
    return std::max<std::size_t>(
        1, kMinParallelWork / std::max<std::size_t>(work_per_row, 1));
}

/**
 * The one float GEMM kernel, and its accumulation contract
 * (DESIGN.md §4.4): rows [lo, hi) of the m x n product C = A * B,
 * where A's element (i, kk) sits at a[i * a_row_stride +
 * kk * a_k_stride] and B is k x n row-major. Each output row is
 * cleared, then accumulated in FP32 in ascending kk order, skipping
 * every kk whose A element is zero. Rows are independent, so any row
 * range -- a pool chunk or one ABFT retry row -- yields the same bits.
 */
void
gemmRows(const float *a, std::size_t a_row_stride, std::size_t a_k_stride,
         const float *b, float *c, std::size_t k, std::size_t n,
         std::size_t lo, std::size_t hi)
{
    for (std::size_t i = lo; i < hi; ++i) {
        const float *arow = a + i * a_row_stride;
        float *crow = c + i * n;
        std::fill(crow, crow + n, 0.0f);
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk * a_k_stride];
            if (av == 0.0f)
                continue;
            const float *brow = b + kk * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/**
 * The m x n product of A (strided as in gemmRows) and the k x n
 * matrix @p b, chunked over output rows on the pool.
 */
Tensor
gemm(const float *a, std::size_t a_row_stride, std::size_t a_k_stride,
     const Tensor &b, std::size_t m)
{
    const std::size_t k = b.dim(0), n = b.dim(1);
    static obs::Counter &calls =
        obs::MetricRegistry::instance().counter("gemm.calls");
    static obs::Counter &macs =
        obs::MetricRegistry::instance().counter("gemm.macs");
    calls.inc();
    macs.add(static_cast<double>(m) * static_cast<double>(k) *
             static_cast<double>(n));
    Tensor c({m, n});
    parallelFor(0, m, rowGrain(k * n), [&](std::size_t lo, std::size_t hi) {
        gemmRows(a, a_row_stride, a_k_stride, b.data(), c.data(), k, n,
                 lo, hi);
    });
    return c;
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "add");
    Tensor c(a.shape());
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        c[i] = a[i] + b[i];
                });
    return c;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "sub");
    Tensor c(a.shape());
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        c[i] = a[i] - b[i];
                });
    return c;
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "mul");
    Tensor c(a.shape());
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        c[i] = a[i] * b[i];
                });
    return c;
}

Tensor
scale(const Tensor &a, float s)
{
    Tensor c(a.shape());
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        c[i] = a[i] * s;
                });
    return c;
}

void
accumulate(Tensor &a, const Tensor &b, float s)
{
    checkSameShape(a, b, "accumulate");
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        a[i] += b[i] * s;
                });
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    CQ_ASSERT_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "matmul: expects rank-2 operands, got %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    const std::size_t m = a.dim(0), k = a.dim(1);
    CQ_ASSERT_MSG(b.dim(0) == k, "matmul: inner dims disagree, %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    // Inside an ABFT scope the product is checksum-verified; the
    // checksum pass recurses into this function scope-suspended.
    if (const abft::AbftConfig *cfg = abft::AbftScope::active())
        return abft::abftMatmul(a, b, *cfg);
    CQ_TRACE_SCOPE("gemm.matmul");
    return gemm(a.data(), k, 1, b, m);
}

void
matmulRows(const Tensor &a, const Tensor &b, Tensor &c, std::size_t lo,
           std::size_t hi)
{
    CQ_ASSERT(c.ndim() == 2 && c.dim(0) == a.dim(0) &&
              c.dim(1) == b.dim(1) && hi <= c.dim(0));
    gemmRows(a.data(), a.dim(1), 1, b.data(), c.data(), a.dim(1),
             b.dim(1), lo, hi);
}

Tensor
matmulTransA(const Tensor &a, const Tensor &b)
{
    CQ_ASSERT_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "matmulTransA: expects rank-2 operands, got %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    const std::size_t k = a.dim(0), m = a.dim(1);
    CQ_ASSERT_MSG(b.dim(0) == k,
                  "matmulTransA: A^T rows %zu != B rows %zu (%s^T x %s)",
                  k, b.dim(0), shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    CQ_TRACE_SCOPE("gemm.matmulTransA");
    return gemm(a.data(), 1, m, b, m);
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    CQ_ASSERT_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "matmulTransB: expects rank-2 operands, got %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    const std::size_t m = a.dim(0), k = a.dim(1);
    CQ_ASSERT_MSG(b.dim(1) == k,
                  "matmulTransB: A cols %zu != B^T rows %zu (%s x %s^T)",
                  k, b.dim(1), shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    CQ_TRACE_SCOPE("gemm.matmulTransB");
    // Pack B^T into k x n so the kernel streams its rows.
    return gemm(a.data(), k, 1, transpose(b), m);
}

Tensor
transpose(const Tensor &a)
{
    CQ_ASSERT_MSG(a.ndim() == 2, "transpose: expects rank 2, got %s",
                  shapeToString(a.shape()).c_str());
    const std::size_t m = a.dim(0), n = a.dim(1);
    Tensor c({n, m});
    const float *pa = a.data();
    float *pc = c.data();
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            pc[j * m + i] = pa[i * n + j];
    return c;
}

std::size_t
Conv2dGeometry::outH(std::size_t h) const
{
    CQ_ASSERT_MSG(h + 2 * pad >= kernelH,
                  "conv geometry: height %zu + 2*pad %zu < kernelH %zu",
                  h, pad, kernelH);
    return (h + 2 * pad - kernelH) / stride + 1;
}

std::size_t
Conv2dGeometry::outW(std::size_t w) const
{
    CQ_ASSERT_MSG(w + 2 * pad >= kernelW,
                  "conv geometry: width %zu + 2*pad %zu < kernelW %zu",
                  w, pad, kernelW);
    return (w + 2 * pad - kernelW) / stride + 1;
}

Tensor
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

    CQ_TRACE_SCOPE("tensor.im2col");
    Tensor cols({n * p * q, patch});
    float *out = cols.data();
    // Every patch row of the output is written by exactly one index,
    // so chunking the flattened (n, oy, ox) space is race-free.
    parallelFor(0, n * p * q, rowGrain(patch),
                [&](std::size_t lo, std::size_t hi) {
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

Tensor
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

    CQ_TRACE_SCOPE("tensor.col2im");
    Tensor out(inputShape);
    const float *in = cols.data();
    // Overlapping patches accumulate into the same input pixels, so
    // the parallel dimension is the (image, channel) plane: each plane
    // is touched by exactly one chunk, and inside a plane the patches
    // are walked in the same (oy, ox, ky, kx) order as the serial
    // loop, keeping every pixel's accumulation order fixed.
    parallelFor(0, n * c, rowGrain(p * q * g.kernelH * g.kernelW),
                [&](std::size_t lo, std::size_t hi) {
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

double
rectilinearDistance(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "rectilinearDistance");
    double d = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        d += std::fabs(static_cast<double>(a[i]) - b[i]);
    return d;
}

double
cosineSimilarity(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "cosineSimilarity");
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        dot += static_cast<double>(a[i]) * b[i];
        na += static_cast<double>(a[i]) * a[i];
        nb += static_cast<double>(b[i]) * b[i];
    }
    if (na == 0.0 || nb == 0.0)
        return na == nb ? 1.0 : 0.0;
    return dot / (std::sqrt(na) * std::sqrt(nb));
}

double
meanBias(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "meanBias");
    if (a.numel() == 0)
        return 0.0;
    double d = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        d += static_cast<double>(a[i]) - b[i];
    return d / static_cast<double>(a.numel());
}

double
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "maxAbsDiff");
    double d = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        d = std::max(d, std::fabs(static_cast<double>(a[i]) - b[i]));
    return d;
}

double
rmse(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "rmse");
    if (a.numel() == 0)
        return 0.0;
    double s = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        s += d * d;
    }
    return std::sqrt(s / static_cast<double>(a.numel()));
}

} // namespace cq
