/**
 * @file
 * Implementation of tensor operations.
 */

#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

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
 * Columns [j0, j0 + W) of one gemmRows output row, summed in a local
 * accumulator block the compiler keeps in registers.
 */
template <std::size_t W>
void
gemmRowBlock(const float *arow, std::size_t a_k_stride, const float *b,
             float *crow, std::size_t k, std::size_t n, std::size_t j0)
{
    float acc[W] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk * a_k_stride];
        if (av == 0.0f)
            continue;
        const float *brow = b + kk * n + j0;
        for (std::size_t j = 0; j < W; ++j)
            acc[j] += av * brow[j];
    }
    std::copy(acc, acc + W, crow + j0);
}

/**
 * The one float GEMM kernel, and its accumulation contract
 * (DESIGN.md §4.4): rows [lo, hi) of the m x n product C = A * B,
 * where A's element (i, kk) sits at a[i * a_row_stride +
 * kk * a_k_stride] and B is k x n row-major. Each output row is
 * cleared, then accumulated in FP32 in ascending kk order, skipping
 * every kk whose A element is zero. Rows are independent, so any row
 * range -- a pool chunk or one ABFT retry row -- yields the same bits.
 * Columns are summed 16, then 8, at a time in register blocks; each
 * element still sees the same operations in the same order.
 */
void
gemmRows(const float *a, std::size_t a_row_stride, std::size_t a_k_stride,
         const float *b, float *c, std::size_t k, std::size_t n,
         std::size_t lo, std::size_t hi)
{
    constexpr std::size_t kBlock = 16;
    for (std::size_t i = lo; i < hi; ++i) {
        const float *arow = a + i * a_row_stride;
        float *crow = c + i * n;
        std::size_t j0 = 0;
        for (; j0 + kBlock <= n; j0 += kBlock)
            gemmRowBlock<kBlock>(arow, a_k_stride, b, crow, k, n, j0);
        if (j0 + kBlock / 2 <= n) {
            gemmRowBlock<kBlock / 2>(arow, a_k_stride, b, crow, k, n, j0);
            j0 += kBlock / 2;
        }
        if (j0 == n)
            continue;
        std::fill(crow + j0, crow + n, 0.0f);
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk * a_k_stride];
            if (av == 0.0f)
                continue;
            const float *brow = b + kk * n;
            for (std::size_t j = j0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/** Count one m x k x n float GEMM in gemm.calls / gemm.macs. */
void
countGemm(std::size_t m, std::size_t k, std::size_t n)
{
    static obs::Counter &calls =
        obs::MetricRegistry::instance().counter("gemm.calls");
    static obs::Counter &macs =
        obs::MetricRegistry::instance().counter("gemm.macs");
    calls.inc();
    macs.add(static_cast<double>(m) * static_cast<double>(k) *
             static_cast<double>(n));
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
    countGemm(m, k, n);
    Tensor c({m, n});
    parallelFor(0, m, rowGrain(k * n), [&](std::size_t lo, std::size_t hi) {
        gemmRows(a, a_row_stride, a_k_stride, b.data(), c.data(), k, n,
                 lo, hi);
    });
    return c;
}

/** Output rows the forward convolution packs and multiplies at once. */
constexpr std::size_t kConvTileRows = 64;

/** The extents of one convolution: input (n, c, h, w), kernel (k, c,
 *  r, s), output (n, k, p, q). */
struct ConvDims
{
    std::size_t n, c, h, w, k, r, s, p, q, stride, pad;

    std::size_t patch() const { return c * r * s; }
    std::size_t pixels() const { return p * q; }
    std::size_t rows() const { return n * p * q; }
};

ConvDims
convDims(const Shape &input, const Conv2dGeometry &g, const char *op)
{
    CQ_ASSERT_MSG(input.size() == 4, "%s: expects NCHW, got %s", op,
                  shapeToString(input).c_str());
    CQ_ASSERT_MSG(input[1] == g.inChannels,
                  "%s: input %s has %zu channels, geometry wants %zu", op,
                  shapeToString(input).c_str(), input[1], g.inChannels);
    return {input[0],         input[1],         input[2],
            input[3],         g.outChannels,    g.kernelH,
            g.kernelW,        g.outH(input[2]), g.outW(input[3]),
            g.stride,         g.pad};
}

void
checkConvOperand(const Tensor &t, const Shape &want, const char *op,
                 const char *what)
{
    CQ_ASSERT_MSG(t.shape() == want, "%s: %s %s, want %s", op, what,
                  shapeToString(t.shape()).c_str(),
                  shapeToString(want).c_str());
}

/**
 * Whether coordinate @p padded of the zero-padded input (o * stride +
 * tap) lies inside the input, i.e. at padded - pad in [0, extent).
 */
bool
inImage(std::size_t padded, std::size_t pad, std::size_t extent)
{
    return padded >= pad && padded - pad < extent;
}

/**
 * Write patch row @p row = (image, oy, ox) of the input @p x into
 * @p out: C*R*S values in (c, ky, kx) order, 0 where the tap falls in
 * the padding.
 */
void
packPatchRow(const float *x, const ConvDims &d, std::size_t row, float *out)
{
    const std::size_t img = row / d.pixels();
    const std::size_t oy = (row / d.q) % d.p, ox = row % d.q;
    const float *image = x + img * d.c * d.h * d.w;
    for (std::size_t ic = 0; ic < d.c; ++ic) {
        for (std::size_t ky = 0; ky < d.r; ++ky) {
            float *dst = out + (ic * d.r + ky) * d.s;
            const std::size_t iy = oy * d.stride + ky;
            if (!inImage(iy, d.pad, d.h)) {
                std::fill(dst, dst + d.s, 0.0f);
                continue;
            }
            // Element-wise: a std::copy of S (often 3) floats costs a
            // memmove call per kernel row.
            const float *src = image + (ic * d.h + iy - d.pad) * d.w;
            for (std::size_t kx = 0; kx < d.s; ++kx) {
                const std::size_t ix = ox * d.stride + kx;
                dst[kx] = inImage(ix, d.pad, d.w) ? src[ix - d.pad] : 0.0f;
            }
        }
    }
}

/**
 * Write patch-matrix column @p tap = (c, ky, kx) of the input @p x
 * into @p out: its N*P*Q values in (image, oy, ox) order, 0 where the
 * tap falls in the padding.
 */
void
gatherTapColumn(const float *x, const ConvDims &d, std::size_t tap,
                float *out)
{
    const std::size_t ic = tap / (d.r * d.s);
    const std::size_t ky = (tap / d.s) % d.r, kx = tap % d.s;
    for (std::size_t img = 0; img < d.n; ++img) {
        const float *plane = x + (img * d.c + ic) * d.h * d.w;
        for (std::size_t oy = 0; oy < d.p; ++oy) {
            float *dst = out + (img * d.p + oy) * d.q;
            const std::size_t iy = oy * d.stride + ky;
            if (!inImage(iy, d.pad, d.h)) {
                std::fill(dst, dst + d.q, 0.0f);
                continue;
            }
            const float *src = plane + (iy - d.pad) * d.w;
            for (std::size_t ox = 0; ox < d.q; ++ox) {
                const std::size_t ix = ox * d.stride + kx;
                dst[ox] = inImage(ix, d.pad, d.w) ? src[ix - d.pad] : 0.0f;
            }
        }
    }
}

/**
 * Scatter-add one image's (P*Q, C*R*S) patch-gradient slab into its
 * (C, H, W) planes at @p dx. Each plane takes its patches in (oy, ox,
 * ky, kx) order, the order of the explicit patch-matrix scatter, so
 * every pixel's sum is formed in the same sequence whatever the
 * tiling.
 */
void
scatterPatchSlab(const float *slab, const ConvDims &d, float *dx)
{
    for (std::size_t ic = 0; ic < d.c; ++ic) {
        float *plane = dx + ic * d.h * d.w;
        for (std::size_t px = 0; px < d.pixels(); ++px) {
            const std::size_t oy = px / d.q, ox = px % d.q;
            const float *row = slab + px * d.patch() + ic * d.r * d.s;
            for (std::size_t ky = 0; ky < d.r; ++ky) {
                const std::size_t iy = oy * d.stride + ky;
                if (!inImage(iy, d.pad, d.h))
                    continue;
                float *dst = plane + (iy - d.pad) * d.w;
                for (std::size_t kx = 0; kx < d.s; ++kx) {
                    const std::size_t ix = ox * d.stride + kx;
                    if (inImage(ix, d.pad, d.w))
                        dst[ix - d.pad] += row[ky * d.s + kx];
                }
            }
        }
    }
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
conv2dForward(const Tensor &input, const Tensor &weight, const Tensor *bias,
              const Conv2dGeometry &g, abft::AbftReport *report)
{
    const ConvDims d = convDims(input.shape(), g, "conv2dForward");
    const std::size_t patch = d.patch(), rows = d.rows(), pixels = d.pixels();
    checkConvOperand(weight, {patch, d.k}, "conv2dForward", "weight");
    if (bias != nullptr)
        checkConvOperand(*bias, {d.k}, "conv2dForward", "bias");

    CQ_TRACE_SCOPE("gemm.conv2dForward");
    countGemm(rows, patch, d.k);
    Tensor out({d.n, d.k, d.p, d.q});
    // Epilogue: product rows [lo, hi) at acc, plus the bias, into the
    // NCHW output.
    const auto epilogue = [&](const float *acc, std::size_t lo,
                              std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
            const float *arow = acc + (r - lo) * d.k;
            float *dst = out.data() + (r / pixels) * d.k * pixels +
                         r % pixels;
            for (std::size_t kk = 0; kk < d.k; ++kk)
                dst[kk * pixels] =
                    bias != nullptr ? arow[kk] + (*bias)[kk] : arow[kk];
        }
    };

    // Under ABFT the whole (N*P*Q, K) product is kept for the check;
    // otherwise each tile's product lives only in a tile accumulator.
    const abft::AbftConfig *cfg = abft::AbftScope::active();
    Tensor product = cfg != nullptr ? Tensor({rows, d.k}) : Tensor();
    const std::size_t tiles = (rows + kConvTileRows - 1) / kConvTileRows;
    parallelFor(0, tiles, rowGrain(kConvTileRows * patch * d.k),
                [&](std::size_t lo, std::size_t hi) {
        std::vector<float> panel(kConvTileRows * patch);
        std::vector<float> acc(cfg != nullptr ? 0 : kConvTileRows * d.k);
        for (std::size_t t = lo; t < hi; ++t) {
            const std::size_t r0 = t * kConvTileRows;
            const std::size_t r1 = std::min(rows, r0 + kConvTileRows);
            for (std::size_t r = r0; r < r1; ++r)
                packPatchRow(input.data(), d, r,
                             panel.data() + (r - r0) * patch);
            float *dst = cfg != nullptr ? product.data() + r0 * d.k
                                        : acc.data();
            gemmRows(panel.data(), patch, 1, weight.data(), dst, patch, d.k,
                     0, r1 - r0);
            if (cfg == nullptr)
                epilogue(dst, r0, r1);
        }
    });
    if (cfg == nullptr)
        return out;

    // The checksums and retries see the same A rows abftMatmul() sees
    // on the explicit patch matrix, re-packed one row at a time.
    std::vector<float> row(patch);
    const auto packRow = [&](std::size_t i) {
        packPatchRow(input.data(), d, i, row.data());
        return static_cast<const float *>(row.data());
    };
    abft::checkProduct(
        product, *cfg,
        [&] {
            return abft::predictChecksums<float>(packRow, weight.data(),
                                                 rows, patch, d.k);
        },
        [&](Tensor &c, std::size_t i) {
            gemmRows(packRow(i), 0, 1, weight.data(), c.data() + i * d.k,
                     patch, d.k, 0, 1);
        },
        report);
    parallelFor(0, rows, rowGrain(d.k), [&](std::size_t lo, std::size_t hi) {
        epilogue(product.data() + lo * d.k, lo, hi);
    });
    return out;
}

Tensor
conv2dWeightGrad(const Tensor &input, const Tensor &grad_output,
                 const Conv2dGeometry &g)
{
    const ConvDims d = convDims(input.shape(), g, "conv2dWeightGrad");
    const std::size_t patch = d.patch(), rows = d.rows(), pixels = d.pixels();
    checkConvOperand(grad_output, {d.n, d.k, d.p, d.q}, "conv2dWeightGrad",
                     "grad_output");

    CQ_TRACE_SCOPE("gemm.conv2dWeightGrad");
    countGemm(patch, rows, d.k);
    // dY as (N*P*Q, K) rows: the B operand.
    Tensor dy({rows, d.k});
    parallelFor(0, d.n, rowGrain(pixels * d.k),
                [&](std::size_t lo, std::size_t hi) {
        for (std::size_t img = lo; img < hi; ++img) {
            const float *src = grad_output.data() + img * d.k * pixels;
            float *dst = dy.data() + img * pixels * d.k;
            for (std::size_t kk = 0; kk < d.k; ++kk)
                for (std::size_t px = 0; px < pixels; ++px)
                    dst[px * d.k + kk] = src[kk * pixels + px];
        }
    });
    // Row (c, ky, kx) of dW is that tap's patch-matrix column times
    // dY, reduced over the N*P*Q rows in ascending order.
    Tensor dw({patch, d.k});
    parallelFor(0, patch, rowGrain(rows * d.k),
                [&](std::size_t lo, std::size_t hi) {
        std::vector<float> column(rows);
        for (std::size_t tap = lo; tap < hi; ++tap) {
            gatherTapColumn(input.data(), d, tap, column.data());
            gemmRows(column.data(), 0, 1, dy.data(), dw.data() + tap * d.k,
                     rows, d.k, 0, 1);
        }
    });
    return dw;
}

Tensor
conv2dInputGrad(const Tensor &grad_output, const Tensor &weight,
                const Shape &input_shape, const Conv2dGeometry &g)
{
    const ConvDims d = convDims(input_shape, g, "conv2dInputGrad");
    const std::size_t patch = d.patch(), pixels = d.pixels();
    checkConvOperand(grad_output, {d.n, d.k, d.p, d.q}, "conv2dInputGrad",
                     "grad_output");
    checkConvOperand(weight, {patch, d.k}, "conv2dInputGrad", "weight");

    CQ_TRACE_SCOPE("gemm.conv2dInputGrad");
    countGemm(d.rows(), d.k, patch);
    const Tensor wt = transpose(weight);
    Tensor dx(input_shape);
    // One image at a time: its (P*Q, C*R*S) slab of dY * W^T, read
    // straight from dY's (channel, pixel) planes, then scattered into
    // its own planes, so images are independent.
    parallelFor(0, d.n, rowGrain(pixels * d.k * patch),
                [&](std::size_t lo, std::size_t hi) {
        std::vector<float> slab(pixels * patch);
        for (std::size_t img = lo; img < hi; ++img) {
            gemmRows(grad_output.data() + img * d.k * pixels, 1, pixels,
                     wt.data(), slab.data(), d.k, patch, 0, pixels);
            scatterPatchSlab(slab.data(), d,
                             dx.data() + img * d.c * d.h * d.w);
        }
    });
    return dx;
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
