/**
 * @file
 * Algorithm-based fault tolerance (ABFT) for GEMM.
 *
 * Huang & Abraham's checksum scheme: for C = A(m x k) * B(k x n), the
 * row sums of C must equal A times the row-sum vector of B, and the
 * column sums of C must equal the column-sum vector of A times B.
 * Maintaining those two checksum vectors alongside the product turns
 * a transient fault in the PE-array accumulators (or the output tile
 * SRAM) into a localized, checkable discrepancy: the implicated rows
 * and columns intersect at the faulty elements.
 *
 * The verification ladder is *retry-then-degrade* (DESIGN.md §5.4):
 * a checksum mismatch triggers one recomputation of the implicated
 * rows (of every row when only columns are implicated, as a
 * cancelling corruption can leave every row sum intact); if the
 * recomputed tile verifies, the fault was
 * transient and the corrected product is returned (counter
 * `abft.corrected`); if the mismatch persists, the GEMM escalates
 * (`abft.escalations`) and the caller — the QuantTrainer — discards
 * the step and falls back to PR 2's checkpoint rollback.
 *
 * Tolerances: checksums are accumulated in double while the product
 * is held in FP32, so a clean GEMM shows a residual of order
 * FLT_EPSILON relative to the absolute-value checksum bound. The
 * auto tolerance (relTol == 0) scales with sqrt(k) to cover the
 * random-walk growth of that rounding noise; it is calibrated so 1k
 * clean quantized GEMMs at every HQT operand width (4/8/12/16 bits)
 * raise no false alarm (tests/test_ecc_abft.cc) while a flipped
 * exponent or high-mantissa bit stays far above it.
 *
 * Entry points:
 *  - abftMatmul(): explicit checksummed GEMM.
 *  - AbftScope: a thread-local RAII scope that reroutes every
 *    cq::matmul() issued inside it (e.g. the nn layers' forward
 *    GEMMs during a trainer step) through abftMatmul() with the
 *    scope's config; cq::conv2dForward() checks its implicit-GEMM
 *    product the same way. cq::matmulTransA()/matmulTransB() and the
 *    convolution gradient kernels, which the layers' backward passes
 *    use, are not rerouted and run unchecked.
 *  - checkProduct(): the verify/retry/escalate ladder itself, shared
 *    by abftMatmul() and the quantized datapath
 *    (arch::quantizedMatmul), which predicts its checksums from its
 *    own dequantized operands.
 */

#ifndef CQ_TENSOR_ABFT_H
#define CQ_TENSOR_ABFT_H

#include <cstddef>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "tensor/tensor.h"

namespace cq::abft {

/** ABFT verification parameters. */
struct AbftConfig
{
    /**
     * False computes the product (and applies corruptOutput) without
     * checksum verification — the "unprotected compute" arm of the
     * resilience bench, which must draw the same fault pattern.
     */
    bool verify = true;
    /**
     * Relative tolerance against the absolute-value checksum bound;
     * 0 selects the sqrt(k)-scaled auto tolerance
     * (abftAutoRelTol()).
     */
    double relTol = 0.0;
    /** Absolute slack for all-zero products. */
    double absTol = 1e-30;
    /** Recompute passes before escalating (>= 0). */
    int maxRetries = 1;
    /** Counter sink for abft.* statistics (may be nullptr). */
    StatGroup *stats = nullptr;
    /**
     * Fault-model hook: applied to the product after the initial
     * compute pass, modeling upsets in the accumulators / output
     * tile. Benches bind a sim::FaultInjector pass here; tests use
     * one-shot or persistent lambdas.
     */
    std::function<void(Tensor &)> corruptOutput;
    /**
     * Re-apply corruptOutput after every retry recompute as well.
     * True exercises persistent/stuck-at faults (the escalation
     * path); the trainer sets it false because a retry recomputes
     * only the implicated rows moments later — modeling a fresh
     * full-tile upset there would overstate the transient rate.
     */
    bool corruptRetries = true;
};

/** Auto relative tolerance for a reduction depth of @p k. */
double abftAutoRelTol(std::size_t k);

/** What one checksummed GEMM did. */
struct AbftReport
{
    std::size_t suspectRows = 0;
    std::size_t suspectCols = 0;
    std::size_t retries = 0;
    /** A mismatch was found and the retry verified clean. */
    bool corrected = false;
    /** The mismatch survived maxRetries recomputations. */
    bool escalated = false;
};

/**
 * Predicted row and column sums of C = A * B, with the sums of
 * absolute terms that scale each check's tolerance.
 */
struct Checksums
{
    std::size_t k = 0; ///< reduction depth (sets the auto tolerance)
    std::vector<double> rowSum, rowBound; ///< one per output row
    std::vector<double> colSum, colBound; ///< one per output column
};

/**
 * Checksums of C = A(m x k) * B(k x n), accumulated in double, with
 * B row-major and A read one row at a time: @p a_row(i) returns row i
 * (k values), valid until the next call. Rows are visited in
 * ascending order, each once. T is float or double.
 */
template <class T>
Checksums predictChecksums(const std::function<const T *(std::size_t)> &a_row,
                           const T *b, std::size_t m, std::size_t k,
                           std::size_t n);

/**
 * The retry-then-degrade ladder for a freshly computed product @p c.
 * Applies config.corruptOutput; with config.verify, checks c against
 * @p predict() and recomputes the suspect rows through
 * @p recomputeRow(c, i) -- every row when only columns are flagged --
 * until the checksums hold or config.maxRetries passes are spent.
 * recomputeRow must reproduce the first pass bit for bit. @p report
 * (when non-null) is filled only when verification runs.
 */
void checkProduct(Tensor &c, const AbftConfig &config,
                  const std::function<Checksums()> &predict,
                  const std::function<void(Tensor &, std::size_t)>
                      &recomputeRow,
                  AbftReport *report = nullptr);

/**
 * C = A * B with row/column checksum verification and
 * retry-then-degrade recovery. Bitwise identical to cq::matmul() when
 * no fault fires (verification never perturbs a clean product).
 */
Tensor abftMatmul(const Tensor &a, const Tensor &b,
                  const AbftConfig &config,
                  AbftReport *report = nullptr);

/**
 * While alive on a thread, every cq::matmul() on that thread runs
 * through abftMatmul() with this scope's config, and every
 * cq::conv2dForward() checks its product the same way; matmulTransA(),
 * matmulTransB() and the convolution gradient kernels are not
 * covered. Scopes nest (the innermost wins);
 * the checksum pass itself runs scope-suspended, so there is no
 * recursion.
 */
class AbftScope
{
  public:
    explicit AbftScope(const AbftConfig &config);
    ~AbftScope();

    AbftScope(const AbftScope &) = delete;
    AbftScope &operator=(const AbftScope &) = delete;

    /** The innermost active config on this thread, or nullptr. */
    static const AbftConfig *active();

  private:
    const AbftConfig *prev_;
};

} // namespace cq::abft

#endif // CQ_TENSOR_ABFT_H
