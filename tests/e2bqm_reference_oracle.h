/**
 * @file
 * Test-only oracle: E2BQM run one candidate at a time on a copy of
 * each block.
 *
 * This is the per-block code the fused E2BQM block kernel replaced,
 * kept verbatim (only the namespace, the oracle:: qualification of
 * its own functions and the dropped trace spans differ) so tests can
 * require the kernel to match it bit for bit in every output, level,
 * selection bit, error and arbitration. It calls
 * the library's quantizeValue, whose rule maps NaN to level 0: the
 * code it replaced cast NaN to int32 (undefined; INT_MIN on x86-64)
 * and truncated that to int16, which also gave 0.
 */

#ifndef CQ_TESTS_E2BQM_REFERENCE_ORACLE_H
#define CQ_TESTS_E2BQM_REFERENCE_ORACLE_H

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/threadpool.h"
#include "quant/e2bqm.h"
#include "quant/qformat.h"
#include "quant/statistics.h"
#include "tensor/tensor.h"

namespace cq::quant::oracle {

/**
 * Quantize @p x with one candidate given the precomputed max-abs
 * statistic. Shiftable candidates pick the per-element scale greedily
 * as fakeQuantizeShiftable does, but here we record levels and select
 * bits so the result is a faithful hardware representation.
 */
inline CandidateResult
runCandidate(const Tensor &x, double max_abs, const QuantCandidate &cand,
             ErrorMetric metric)
{
    CandidateResult res;
    res.candidate = cand;
    ErrorStat err;

    if (cand.shift > 0) {
        const ShiftableFormat sf =
            shiftableForMaxAbs(max_abs * cand.clipRatio, cand.bits,
                               cand.shift);
        const IntFormat fine = sf.fine();
        const IntFormat wide = sf.wide();
        res.format = fine;
        res.levels.resize(x.numel());
        res.wideBits.resize(x.numel());
        const double fine_range =
            static_cast<double>(fine.qmax()) * fine.scale;
        for (std::size_t i = 0; i < x.numel(); ++i) {
            const double v = x[i];
            const std::int32_t qf = quantizeValue(v, fine);
            const std::int32_t qw = quantizeValue(v, wide);
            const double vf = dequantizeValue(qf, fine);
            const double vw = dequantizeValue(qw, wide);
            bool use_wide = std::fabs(v) > fine_range ||
                            std::fabs(vw - v) < std::fabs(vf - v);
            res.levels[i] =
                static_cast<std::int16_t>(use_wide ? qw : qf);
            res.wideBits[i] = use_wide ? 1 : 0;
            err.observe(v, use_wide ? vw : vf);
        }
    } else {
        const IntFormat fmt =
            formatForMaxAbs(max_abs * cand.clipRatio, cand.bits);
        res.format = fmt;
        res.levels.resize(x.numel());
        for (std::size_t i = 0; i < x.numel(); ++i) {
            const std::int32_t q = quantizeValue(x[i], fmt);
            res.levels[i] = static_cast<std::int16_t>(q);
            err.observe(x[i], dequantizeValue(q, fmt));
        }
    }
    res.error = err.value(metric);
    return res;
}

inline std::size_t
arbitrate(const std::vector<CandidateResult> &candidates)
{
    CQ_ASSERT(!candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        // Signed metrics (MeanBias) arbitrate on magnitude.
        const double ea = std::fabs(candidates[i].error);
        const double eb = std::fabs(candidates[best].error);
        const double tol = kArbitrationRelEps * std::max(ea, eb);
        if (std::fabs(ea - eb) <= tol) {
            // (Near-)equal error: the cheaper format wins.
            if (candidates[i].candidate.bits <
                candidates[best].candidate.bits)
                best = i;
        } else if (ea < eb) {
            best = i;
        }
    }
    return best;
}

inline E2bqmResult
e2bqmQuantize(const Tensor &x, const E2bqmConfig &config)
{
    CQ_ASSERT_MSG(!config.candidates.empty(),
                  "E2BQM requires at least one candidate");
    // Step 1: one-pass statistic over the original data.
    MaxAbsStat stat;
    for (std::size_t i = 0; i < x.numel(); ++i)
        stat.observe(x[i]);
    const double max_abs = stat.value();

    // Steps 2+3: time-multiplexed candidate quantization with fused
    // error estimation (the SQU re-reads the *buffered* block, not
    // memory). Candidates only read x, so the sweep runs one
    // candidate per chunk; each candidate's streaming error
    // accumulation stays a single sequential pass.
    E2bqmResult result;
    result.candidates.resize(config.candidates.size());
    parallelFor(0, config.candidates.size(), 1,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) {
                        result.candidates[i] = runCandidate(
                            x, max_abs, config.candidates[i],
                            config.metric);
                    }
                });

    // Step 4: arbitration.
    result.selected = oracle::arbitrate(result.candidates);
    return result;
}

inline Tensor
fakeQuantizeE2bqm(const Tensor &x, const E2bqmConfig &config,
                  E2bqmSelectionInfo *info = nullptr)
{
    const E2bqmResult result = oracle::e2bqmQuantize(x, config);
    if (info != nullptr)
        ++info->bitsTally[result.best().candidate.bits];
    return result.best().dequantize(x.shape());
}

inline Tensor
fakeQuantizeHqt(const Tensor &x, std::size_t block_size,
                const E2bqmConfig &config,
                E2bqmSelectionInfo *info = nullptr)
{
    CQ_ASSERT(block_size > 0);
    Tensor out(x.shape());
    const std::size_t n = x.numel();
    const std::size_t nblocks = (n + block_size - 1) / block_size;
    // Chosen bit widths land in a per-block slot (disjoint writes)
    // and are tallied serially after the join, so requesting the info
    // stays race-free and thread-count independent.
    std::vector<int> chosenBits;
    if (info != nullptr)
        chosenBits.resize(nblocks, 0);
    // Blocks are quantized independently and write disjoint output
    // slices; the nested E2BQM candidate sweep runs inline.
    parallelFor(0, nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
        for (std::size_t blk = blo; blk < bhi; ++blk) {
            const std::size_t lo = blk * block_size;
            const std::size_t hi = std::min(lo + block_size, n);
            Tensor block({hi - lo});
            for (std::size_t i = lo; i < hi; ++i)
                block[i - lo] = x[i];
            const E2bqmResult res = oracle::e2bqmQuantize(block, config);
            if (info != nullptr)
                chosenBits[blk] = res.best().candidate.bits;
            const Tensor deq = res.best().dequantize(block.shape());
            for (std::size_t i = lo; i < hi; ++i)
                out[i] = deq[i - lo];
        }
    });
    if (info != nullptr) {
        for (int bits : chosenBits)
            ++info->bitsTally[bits];
    }
    return out;
}

} // namespace cq::quant::oracle

#endif // CQ_TESTS_E2BQM_REFERENCE_ORACLE_H
