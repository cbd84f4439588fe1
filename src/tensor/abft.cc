/**
 * @file
 * Implementation of ABFT-checksummed GEMM.
 */

#include "tensor/abft.h"

#include <cfloat>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace cq::abft {

namespace {

thread_local const AbftConfig *tlsActive = nullptr;

/** RAII: hide the active scope while computing raw products. */
class ScopeSuspend
{
  public:
    ScopeSuspend() : saved_(tlsActive) { tlsActive = nullptr; }
    ~ScopeSuspend() { tlsActive = saved_; }

  private:
    const AbftConfig *saved_;
};

/** Rows and columns whose checksums disagree with the prediction. */
struct Suspects
{
    std::vector<std::size_t> rows;
    std::vector<std::size_t> cols;

    bool clean() const { return rows.empty() && cols.empty(); }
};

/**
 * Check the row/column sums of @p c, accumulated in double, against
 * the prediction. The tolerance scales with each sum's absolute-value
 * bound, so a checksum over large cancelling terms is not spuriously
 * flagged.
 */
Suspects
verifyChecksums(const Tensor &c, const Checksums &expected,
                double rel_tol, double abs_tol)
{
    const std::size_t m = c.dim(0), n = c.dim(1);
    const float *pc = c.data();
    auto mismatch = [&](double actual, double want, double bound) {
        return std::fabs(actual - want) > rel_tol * bound + abs_tol ||
               !std::isfinite(actual);
    };

    Suspects out;
    std::vector<double> col_actual(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        const float *crow = pc + i * n;
        double actual = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            actual += crow[j];
            col_actual[j] += crow[j];
        }
        if (mismatch(actual, expected.rowSum[i], expected.rowBound[i]))
            out.rows.push_back(i);
    }
    for (std::size_t j = 0; j < n; ++j)
        if (mismatch(col_actual[j], expected.colSum[j],
                     expected.colBound[j]))
            out.cols.push_back(j);
    return out;
}

} // namespace

template <class T>
Checksums
predictChecksums(const std::function<const T *(std::size_t)> &a_row,
                 const T *b, std::size_t m, std::size_t k, std::size_t n)
{
    // Row-sum vector of B and its absolute-value companion.
    std::vector<double> b_rowsum(k, 0.0), b_abssum(k, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < n; ++j) {
            b_rowsum[kk] += b[kk * n + j];
            b_abssum[kk] += std::fabs(b[kk * n + j]);
        }
    }

    Checksums out;
    out.k = k;
    // One pass over A's rows: the column-sum vector of A (and its
    // absolute-value companion) and each row's checksum,
    // sum_j C[i][j] = sum_k A[i][k] * rowsum(B)[k].
    std::vector<double> a_colsum(k, 0.0), a_abssum(k, 0.0);
    out.rowSum.assign(m, 0.0);
    out.rowBound.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        const T *row = a_row(i);
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = row[kk];
            a_colsum[kk] += v;
            a_abssum[kk] += std::fabs(v);
            out.rowSum[i] += v * b_rowsum[kk];
            out.rowBound[i] += std::fabs(v) * b_abssum[kk];
        }
    }
    // Column j: sum_i C[i][j] = colsum(A) * B[:, j].
    out.colSum.assign(n, 0.0);
    out.colBound.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = b[kk * n + j];
            out.colSum[j] += a_colsum[kk] * v;
            out.colBound[j] += a_abssum[kk] * std::fabs(v);
        }
    }
    return out;
}

template Checksums predictChecksums<float>(
    const std::function<const float *(std::size_t)> &, const float *,
    std::size_t, std::size_t, std::size_t);
template Checksums predictChecksums<double>(
    const std::function<const double *(std::size_t)> &, const double *,
    std::size_t, std::size_t, std::size_t);

double
abftAutoRelTol(std::size_t k)
{
    // The clean residual is FP32 accumulation noise; it grows like a
    // random walk in the reduction depth. 64x headroom keeps 1k clean
    // GEMMs per HQT format alarm-free while staying orders of
    // magnitude below flipped-exponent damage.
    const double depth = static_cast<double>(k < 1 ? 1 : k);
    return 64.0 * std::sqrt(depth) *
           static_cast<double>(FLT_EPSILON);
}

void
checkProduct(Tensor &c, const AbftConfig &config,
             const std::function<Checksums()> &predict,
             const std::function<void(Tensor &, std::size_t)> &recomputeRow,
             AbftReport *report)
{
    if (config.corruptOutput)
        config.corruptOutput(c);
    if (!config.verify)
        return;

    const Checksums expected = predict();
    const double rel_tol = config.relTol > 0.0
                               ? config.relTol
                               : abftAutoRelTol(expected.k);
    StatGroup *stats = config.stats;
    if (stats != nullptr)
        stats->add("abft.gemms", 1.0);

    AbftReport rep;
    Suspects suspects =
        verifyChecksums(c, expected, rel_tol, config.absTol);
    rep.suspectRows = suspects.rows.size();
    rep.suspectCols = suspects.cols.size();
    if (!suspects.clean() && stats != nullptr) {
        stats->add("abft.mismatches", 1.0);
        stats->add("abft.suspectRows",
                   static_cast<double>(suspects.rows.size()));
        stats->add("abft.suspectCols",
                   static_cast<double>(suspects.cols.size()));
    }

    int retries_left = config.maxRetries;
    while (!suspects.clean() && retries_left-- > 0) {
        ++rep.retries;
        if (stats != nullptr)
            stats->add("abft.retries", 1.0);
        if (!suspects.rows.empty()) {
            for (std::size_t i : suspects.rows)
                recomputeRow(c, i);
        } else {
            // Column-only implication (a row-sum cancellation):
            // recompute every row the suspect columns cross.
            for (std::size_t i = 0; i < c.dim(0); ++i)
                recomputeRow(c, i);
        }
        // A persistently faulty accumulator corrupts the retry too;
        // a transient-upset model (corruptRetries false) retries
        // clean.
        if (config.corruptRetries && config.corruptOutput)
            config.corruptOutput(c);
        suspects = verifyChecksums(c, expected, rel_tol, config.absTol);
    }

    if (rep.retries > 0 && suspects.clean()) {
        rep.corrected = true;
        if (stats != nullptr)
            stats->add("abft.corrected", 1.0);
    } else if (!suspects.clean()) {
        rep.escalated = true;
        if (stats != nullptr)
            stats->add("abft.escalations", 1.0);
        warn("abft: checksum mismatch survived %d recompute pass(es) "
             "(%zu suspect row(s), %zu suspect col(s)) — escalating",
             config.maxRetries, suspects.rows.size(),
             suspects.cols.size());
    }
    if (report != nullptr)
        *report = rep;
}

Tensor
abftMatmul(const Tensor &a, const Tensor &b, const AbftConfig &config,
           AbftReport *report)
{
    CQ_ASSERT_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "abftMatmul: expects rank-2 operands, got %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    ScopeSuspend suspend; // raw products below, no recursion
    Tensor c = matmul(a, b);
    checkProduct(
        c, config,
        [&] {
            const std::size_t k = a.dim(1);
            return predictChecksums<float>(
                [&](std::size_t i) { return a.data() + i * k; }, b.data(),
                a.dim(0), k, b.dim(1));
        },
        [&](Tensor &t, std::size_t i) { matmulRows(a, b, t, i, i + 1); },
        report);
    return c;
}

AbftScope::AbftScope(const AbftConfig &config) : prev_(tlsActive)
{
    tlsActive = &config;
}

AbftScope::~AbftScope()
{
    tlsActive = prev_;
}

const AbftConfig *
AbftScope::active()
{
    return tlsActive;
}

} // namespace cq::abft
