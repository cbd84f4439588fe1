/**
 * @file
 * Implementation of E2BQM.
 */

#include "quant/e2bqm.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "common/logging.h"
#include "common/threadpool.h"
#include "obs/trace.h"

namespace cq::quant {

std::string
QuantCandidate::toString() const
{
    std::ostringstream os;
    os << "INT" << bits;
    if (clipRatio != 1.0)
        os << " clip=" << clipRatio;
    if (shift > 0)
        os << " shift=" << shift;
    return os.str();
}

Tensor
CandidateResult::dequantize(const Shape &shape) const
{
    CQ_ASSERT(levels.size() == shapeNumel(shape));
    Tensor out(shape);
    if (candidate.shift > 0) {
        const IntFormat fine = format;
        IntFormat wide = format;
        wide.scale = format.scale * static_cast<double>(1 << candidate.shift);
        for (std::size_t i = 0; i < levels.size(); ++i) {
            const IntFormat &f = wideBits[i] ? wide : fine;
            out[i] = static_cast<float>(dequantizeValue(levels[i], f));
        }
    } else {
        for (std::size_t i = 0; i < levels.size(); ++i)
            out[i] = static_cast<float>(dequantizeValue(levels[i], format));
    }
    return out;
}

E2bqmConfig
E2bqmConfig::clippingLadder(int bits, ErrorMetric metric)
{
    E2bqmConfig cfg;
    cfg.metric = metric;
    for (double ratio : {1.0, 0.5, 0.25, 0.125})
        cfg.candidates.push_back({bits, ratio, 0});
    return cfg;
}

E2bqmConfig
E2bqmConfig::shiftableLadder(int bits, ErrorMetric metric)
{
    E2bqmConfig cfg;
    cfg.metric = metric;
    cfg.candidates.push_back({bits, 1.0, 0});
    for (int shift : {1, 2, 3})
        cfg.candidates.push_back({bits, 1.0, shift});
    return cfg;
}

E2bqmConfig
E2bqmConfig::adaptivePrecision(ErrorMetric metric)
{
    E2bqmConfig cfg;
    cfg.metric = metric;
    cfg.candidates.push_back({8, 1.0, 0});
    cfg.candidates.push_back({16, 1.0, 0});
    return cfg;
}

namespace {

/** Elements per kernel tile: each candidate's round trip of one tile
 *  stays in a stack buffer (the SQU's buffered block). */
constexpr std::size_t kTile = 256;

/** One candidate's formats, resolved from the block statistic. */
struct CandidatePlan
{
    IntFormat format;        ///< the (fine) format
    double qmax = 0.0;       ///< format.qmax() as a double
    int shift = 0;           ///< > 0: shiftable
    double wideScale = 0.0;  ///< format.scale * 2^shift (shiftable)
    double fineRange = 0.0;  ///< beyond it the wide scale is forced
};

CandidatePlan
planCandidate(double max_abs, const QuantCandidate &cand)
{
    CandidatePlan p;
    p.shift = cand.shift;
    if (cand.shift > 0) {
        const ShiftableFormat sf =
            shiftableForMaxAbs(max_abs * cand.clipRatio, cand.bits,
                               cand.shift);
        p.format = sf.fine();
        p.wideScale = sf.wide().scale;
    } else {
        p.format = formatForMaxAbs(max_abs * cand.clipRatio, cand.bits);
        p.wideScale = p.format.scale;
    }
    p.qmax = static_cast<double>(p.format.qmax());
    p.fineRange = p.qmax * p.format.scale;
    return p;
}

/**
 * The per-element rule shared by the kernel and e2bqmQuantize: the
 * candidate's level of @p v (an integer-valued double) and, through
 * @p wide, whether the shiftable encoding chose the wide scale. A
 * shiftable candidate takes the wide scale beyond the fine range or
 * where it rounds strictly closer.
 */
template <bool Shiftable>
inline double
quantizeElement(double v, const CandidatePlan &p, bool &wide)
{
    const double qf = roundToLevel(v / p.format.scale, p.qmax);
    if constexpr (!Shiftable) {
        wide = false;
        return qf;
    } else {
        const double qw = roundToLevel(v / p.wideScale, p.qmax);
        const double vf = qf * p.format.scale;
        const double vw = qw * p.wideScale;
        wide = (std::fabs(v) > p.fineRange) |
               (std::fabs(vw - v) < std::fabs(vf - v));
        return wide ? qw : qf;
    }
}

/** out[i] = the candidate's dequantized value of x[i], i < n. */
template <bool Shiftable, typename Out>
void
roundTripAs(const float *x, std::size_t n, const CandidatePlan &plan,
            Out *out)
{
    const CandidatePlan p = plan; // a local copy no store can alias
    for (std::size_t i = 0; i < n; ++i) {
        bool wide;
        const double level = quantizeElement<Shiftable>(x[i], p, wide);
        out[i] =
            static_cast<Out>(level * (wide ? p.wideScale : p.format.scale));
    }
}

template <typename Out>
void
roundTrip(const float *x, std::size_t n, const CandidatePlan &plan,
          Out *out)
{
    if (plan.shift > 0)
        roundTripAs<true>(x, n, plan, out);
    else
        roundTripAs<false>(x, n, plan, out);
}

/**
 * The scale statistic: max |x|, skipping NaN as MaxAbsStat does. The
 * max of non-negative values is exact in any order, so eight
 * independent lanes give MaxAbsStat's value without its serial chain.
 */
double
blockMaxAbs(const float *x, std::size_t n)
{
    constexpr std::size_t kLanes = 8;
    float lane[kLanes] = {};
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (std::size_t j = 0; j < kLanes; ++j) {
            const float a = std::fabs(x[i + j]);
            lane[j] = lane[j] < a ? a : lane[j];
        }
    }
    float max_abs = 0.0f;
    for (; i < n; ++i) {
        const float a = std::fabs(x[i]);
        max_abs = max_abs < a ? a : max_abs;
    }
    for (float l : lane)
        max_abs = max_abs < l ? l : max_abs;
    return max_abs;
}

/**
 * The E2BQM block kernel: quantize x[0, n) with every candidate of
 * @p config, arbitrate, write the winner's round trip to out[0, n) and
 * return the winner's index. No heap allocation: candidates' round
 * trips of one tile live on the stack, and only a multi-candidate
 * config accumulates errors (in element order, per candidate). A
 * block longer than one tile recomputes the winner's round trip.
 */
std::size_t
quantizeBlock(const float *x, std::size_t n, const E2bqmConfig &config,
              float *out)
{
    const std::size_t ncand = config.candidates.size();
    CQ_ASSERT_MSG(ncand > 0, "E2BQM requires at least one candidate");
    CQ_ASSERT_MSG(ncand <= kMaxE2bqmCandidates,
                  "E2BQM supports at most %zu candidates, got %zu",
                  kMaxE2bqmCandidates, ncand);
    const double max_abs = blockMaxAbs(x, n);
    CandidatePlan plans[kMaxE2bqmCandidates];
    for (std::size_t c = 0; c < ncand; ++c)
        plans[c] = planCandidate(max_abs, config.candidates[c]);
    if (ncand == 1) {
        roundTrip(x, n, plans[0], out);
        return 0;
    }

    double tiles[kMaxE2bqmCandidates][kTile];
    ErrorStat errors[kMaxE2bqmCandidates];
    for (std::size_t lo = 0; lo < n; lo += kTile) {
        const std::size_t len = std::min(kTile, n - lo);
        for (std::size_t c = 0; c < ncand; ++c) {
            roundTrip(x + lo, len, plans[c], tiles[c]);
            errors[c].observeFor(config.metric, x + lo, tiles[c], len);
        }
    }
    CandidateScore scores[kMaxE2bqmCandidates];
    for (std::size_t c = 0; c < ncand; ++c)
        scores[c] = {errors[c].value(config.metric),
                     config.candidates[c].bits};
    const std::size_t best = arbitrate(std::span(scores, ncand));
    if (n <= kTile) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<float>(tiles[best][i]);
    } else {
        roundTrip(x, n, plans[best], out);
    }
    return best;
}

/** One candidate's levels, selection bits and error over x[0, n). */
template <bool Shiftable>
void
quantizeCandidate(const float *x, std::size_t n, const CandidatePlan &p,
                  ErrorMetric metric, CandidateResult &res)
{
    res.levels.resize(n);
    if (Shiftable)
        res.wideBits.resize(n);
    ErrorStat err;
    for (std::size_t i = 0; i < n; ++i) {
        bool wide;
        const double level = quantizeElement<Shiftable>(x[i], p, wide);
        res.levels[i] = static_cast<std::int16_t>(level);
        if (Shiftable)
            res.wideBits[i] = wide ? 1 : 0;
        err.observe(x[i], level * (wide ? p.wideScale : p.format.scale));
    }
    res.error = err.value(metric);
}

} // namespace

std::size_t
arbitrate(std::span<const CandidateScore> scores)
{
    CQ_ASSERT(!scores.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
        // Signed metrics (MeanBias) arbitrate on magnitude.
        const double ea = std::fabs(scores[i].error);
        const double eb = std::fabs(scores[best].error);
        const double tol = kArbitrationRelEps * std::max(ea, eb);
        if (std::fabs(ea - eb) <= tol) {
            // (Near-)equal error: the cheaper format wins.
            if (scores[i].bits < scores[best].bits)
                best = i;
        } else if (ea < eb) {
            best = i;
        }
    }
    return best;
}

std::size_t
arbitrate(const std::vector<CandidateResult> &candidates)
{
    std::vector<CandidateScore> scores;
    scores.reserve(candidates.size());
    for (const CandidateResult &c : candidates)
        scores.push_back({c.error, c.candidate.bits});
    return arbitrate(std::span<const CandidateScore>(scores));
}

E2bqmResult
e2bqmQuantize(const Tensor &x, const E2bqmConfig &config)
{
    CQ_ASSERT_MSG(!config.candidates.empty(),
                  "E2BQM requires at least one candidate");
    // Deliberately span-free, like the block kernel: callers run it per
    // block, and per-block spans would blow the PERF-07 observability
    // budget without adding signal.
    // Step 1: one-pass statistic over the original data.
    const double max_abs = blockMaxAbs(x.data(), x.numel());

    // Steps 2+3: time-multiplexed candidate quantization with fused
    // error estimation (the SQU re-reads the *buffered* block, not
    // memory), one candidate after another.
    E2bqmResult result;
    result.candidates.resize(config.candidates.size());
    for (std::size_t c = 0; c < config.candidates.size(); ++c) {
        CandidateResult &res = result.candidates[c];
        res.candidate = config.candidates[c];
        const CandidatePlan p = planCandidate(max_abs, res.candidate);
        res.format = p.format;
        if (p.shift > 0)
            quantizeCandidate<true>(x.data(), x.numel(), p,
                                    config.metric, res);
        else
            quantizeCandidate<false>(x.data(), x.numel(), p,
                                     config.metric, res);
    }

    // Step 4: arbitration.
    result.selected = arbitrate(result.candidates);
    return result;
}

Tensor
fakeQuantizeE2bqm(const Tensor &x, const E2bqmConfig &config,
                  E2bqmSelectionInfo *info)
{
    CQ_TRACE_SCOPE("quant.e2bqm_sweep");
    Tensor out(x.shape());
    const std::size_t best =
        quantizeBlock(x.data(), x.numel(), config, out.data());
    if (info != nullptr)
        ++info->bitsTally[config.candidates[best].bits];
    return out;
}

Tensor
fakeQuantizeHqt(const Tensor &x, std::size_t block_size,
                const E2bqmConfig &config, E2bqmSelectionInfo *info)
{
    CQ_ASSERT(block_size > 0);
    CQ_TRACE_SCOPE("quant.e2bqm_sweep");
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
    // slices; the candidates of a block run inside the kernel.
    const float *src = x.data();
    float *dst = out.data();
    parallelFor(0, nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
        for (std::size_t blk = blo; blk < bhi; ++blk) {
            const std::size_t lo = blk * block_size;
            const std::size_t len = std::min(block_size, n - lo);
            const std::size_t best =
                quantizeBlock(src + lo, len, config, dst + lo);
            if (info != nullptr)
                chosenBits[blk] = config.candidates[best].bits;
        }
    });
    if (info != nullptr) {
        for (int bits : chosenBits)
            ++info->bitsTally[bits];
    }
    return out;
}

} // namespace cq::quant
