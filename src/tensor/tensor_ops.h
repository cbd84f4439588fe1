/**
 * @file
 * Free-function operations on tensors: BLAS-like kernels, implicit-GEMM
 * convolution and reductions used by the NN framework and the
 * accelerator functional model.
 */

#ifndef CQ_TENSOR_TENSOR_OPS_H
#define CQ_TENSOR_TENSOR_OPS_H

#include <cstddef>

#include "tensor/tensor.h"

namespace cq {

namespace abft {
struct AbftReport;
} // namespace abft

/** c = a + b (elementwise; shapes must match). */
Tensor add(const Tensor &a, const Tensor &b);

/** c = a - b (elementwise; shapes must match). */
Tensor sub(const Tensor &a, const Tensor &b);

/** c = a * b (elementwise; shapes must match). */
Tensor mul(const Tensor &a, const Tensor &b);

/** c = a * s (scalar multiply). */
Tensor scale(const Tensor &a, float s);

/** a += b * s (axpy-style in-place accumulate). */
void accumulate(Tensor &a, const Tensor &b, float s = 1.0f);

/**
 * Matrix multiply: (m x k) * (k x n) -> (m x n).
 * All three variants run one kernel with one accumulation contract
 * (DESIGN.md §4.4): each c[i][j] is summed in FP32 over ascending k,
 * skipping terms whose left-operand element is zero. So
 * matmul(a, b), matmulTransA(transpose(a), b) and
 * matmulTransB(a, transpose(b)) agree bit for bit, at any thread
 * count. Inside an abft::AbftScope, matmul() is checksum-verified.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * Recompute rows [lo, hi) of c = a * b in place, bitwise as matmul()
 * computed them: the ABFT retry path.
 */
void matmulRows(const Tensor &a, const Tensor &b, Tensor &c,
                std::size_t lo, std::size_t hi);

/** Matrix multiply with the left operand transposed: a^T * b. */
Tensor matmulTransA(const Tensor &a, const Tensor &b);

/** Matrix multiply with the right operand transposed: a * b^T. */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

/** 2-d transpose. */
Tensor transpose(const Tensor &a);

/**
 * Parameters of a 2-d convolution (square stride/pad per axis).
 * Input (N, C, H, W), kernel (K, C, R, S), output (N, K, P, Q).
 */
struct Conv2dGeometry
{
    std::size_t inChannels;   ///< C
    std::size_t outChannels;  ///< K
    std::size_t kernelH;      ///< R
    std::size_t kernelW;      ///< S
    std::size_t stride;
    std::size_t pad;

    /** Output spatial height for input height @p h. */
    std::size_t outH(std::size_t h) const;
    /** Output spatial width for input width @p w. */
    std::size_t outW(std::size_t w) const;
};

/**
 * Convolution as implicit GEMM. The three kernels below multiply the
 * (N*P*Q, C*R*S) patch matrix of an NCHW input without materializing
 * it: they pack patch rows (or one tap's values) into small tiles and
 * run the one float GEMM kernel on them, so each result is bitwise
 * what GEMMs on the explicit patch matrix compute (DESIGN.md §4.4),
 * at any thread count. The weight is the (C*R*S, K)
 * matrix whose row (c, ky, kx) holds the K filters' taps.
 */

/**
 * y = conv(x, weight) + bias: input (N, C, H, W) -> output (N, K, P,
 * Q). @p bias (K elements) may be nullptr. Inside an
 * abft::AbftScope the (N*P*Q, K) product is checksum-verified as
 * abftMatmul() verifies it, before the bias is added; @p report
 * (when non-null) then receives what the check did.
 */
Tensor conv2dForward(const Tensor &input, const Tensor &weight,
                     const Tensor *bias, const Conv2dGeometry &g,
                     abft::AbftReport *report = nullptr);

/**
 * dW = patches(input)^T * dY: the (C*R*S, K) weight gradient from the
 * forward input and the (N, K, P, Q) output gradient.
 */
Tensor conv2dWeightGrad(const Tensor &input, const Tensor &grad_output,
                        const Conv2dGeometry &g);

/**
 * dX: the (N, C, H, W) input gradient of an input of shape
 * @p input_shape, i.e. the patch-wise scatter-add of dY * weight^T.
 */
Tensor conv2dInputGrad(const Tensor &grad_output, const Tensor &weight,
                       const Shape &input_shape, const Conv2dGeometry &g);

/** Rectilinear (L1) distance between two equal-shape tensors. */
double rectilinearDistance(const Tensor &a, const Tensor &b);

/** Cosine similarity between two equal-shape tensors (flattened). */
double cosineSimilarity(const Tensor &a, const Tensor &b);

/** Mean of (a - b), the "mean bias" statistic of Zhang et al. */
double meanBias(const Tensor &a, const Tensor &b);

/** Max |a[i] - b[i]| over all elements. */
double maxAbsDiff(const Tensor &a, const Tensor &b);

/** Root-mean-square error between two equal-shape tensors. */
double rmse(const Tensor &a, const Tensor &b);

} // namespace cq

#endif // CQ_TENSOR_TENSOR_OPS_H
