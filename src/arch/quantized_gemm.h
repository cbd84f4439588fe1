/**
 * @file
 * Functional model of the MM/CONV datapath: the composition of
 * LDQ-quantized operands (per-block tags as managed by the QBC),
 * nibble-serial integer MACs in the PE array, 38-bit accumulation,
 * and per-segment dequantization in the Accumulators.
 *
 * This is the executable semantics of what the timing simulator only
 * schedules; tests use it to bound the end-to-end numerical error of
 * the hardware path against FP32 GEMM.
 *
 * The datapath optionally carries ABFT checksums (DESIGN.md §5.4):
 * row/column sums of the product are verified against predictions
 * computed from the *dequantized operand values* — the exact numbers
 * the PE array multiplies — so the tolerance only has to absorb
 * FP32/segment rounding, not quantization error, and is therefore
 * valid at every HQT operand width. The verify/retry/escalate ladder
 * is abft::checkProduct(), shared with the float abftMatmul(); a
 * retry recomputes the implicated rows through the same datapath.
 */

#ifndef CQ_ARCH_QUANTIZED_GEMM_H
#define CQ_ARCH_QUANTIZED_GEMM_H

#include <cstddef>

#include "quant/block_quant.h"
#include "tensor/abft.h"
#include "tensor/tensor.h"

namespace cq::arch {

/** Options for the functional quantized GEMM. */
struct QuantizedGemmOptions
{
    /** Operand width (4/8/12/16). */
    int bits = 8;
    /**
     * LDQ block length along the reduction dimension. Each k-segment
     * of this many elements shares one quantization tag per operand
     * (a buffer line's worth in the QBC); the accumulator dequantizes
     * per segment into FP32.
     */
    std::size_t blockK = 64;
    /**
     * ABFT checksum configuration; nullptr (the default) computes
     * the product unchecked. Its corruptOutput hook is the
     * Accumulators fault site: bind a sim::FaultInjector pass there.
     */
    const abft::AbftConfig *abft = nullptr;
};

/**
 * C = A(m x k) * B(k x n) through the modeled datapath. A is
 * quantized row-wise and B column-wise in k-segments of blockK
 * elements; products are computed with PeArray::bitSerialMultiply and
 * accumulated exactly as the adder tree + shift-adder do. With
 * options.abft the product goes through abft::checkProduct(); @p report
 * (when non-null) receives what the checksum pass found and fixed.
 */
Tensor quantizedMatmul(const Tensor &a, const Tensor &b,
                       const QuantizedGemmOptions &options = {},
                       abft::AbftReport *report = nullptr);

} // namespace cq::arch

#endif // CQ_ARCH_QUANTIZED_GEMM_H
