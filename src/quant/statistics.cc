/**
 * @file
 * Implementation of streaming statistics.
 */

#include "quant/statistics.h"

#include <algorithm>
#include <cmath>

namespace cq::quant {

void
MaxAbsStat::observe(double x)
{
    maxAbs_ = std::max(maxAbs_, std::fabs(x));
    ++count_;
}

void
MaxAbsStat::reset()
{
    maxAbs_ = 0.0;
    count_ = 0;
}

const char *
errorMetricName(ErrorMetric metric)
{
    switch (metric) {
      case ErrorMetric::Rectilinear:    return "rectilinear";
      case ErrorMetric::CosineDistance: return "cosine";
      case ErrorMetric::MeanBias:       return "mean-bias";
      case ErrorMetric::MaxError:       return "max-error";
    }
    return "?";
}

void
ErrorStat::observe(double x, double xq)
{
    const double d = x - xq;
    sumAbsDiff_ += std::fabs(d);
    sumDiff_ += d;
    maxDiff_ = std::max(maxDiff_, std::fabs(d));
    dot_ += x * xq;
    normX_ += x * x;
    normQ_ += xq * xq;
    ++count_;
}

void
ErrorStat::observeFor(ErrorMetric metric, const float *x, const double *xq,
                      std::size_t n)
{
    // Local accumulators: xq may alias the double members, so summing
    // into the members would store every partial sum to memory.
    switch (metric) {
      case ErrorMetric::Rectilinear: {
        double sum = sumAbsDiff_;
        for (std::size_t i = 0; i < n; ++i)
            sum += std::fabs(static_cast<double>(x[i]) - xq[i]);
        sumAbsDiff_ = sum;
        break;
      }
      case ErrorMetric::CosineDistance: {
        double dot = dot_, nx = normX_, nq = normQ_;
        for (std::size_t i = 0; i < n; ++i) {
            const double v = x[i];
            dot += v * xq[i];
            nx += v * v;
            nq += xq[i] * xq[i];
        }
        dot_ = dot;
        normX_ = nx;
        normQ_ = nq;
        break;
      }
      case ErrorMetric::MeanBias: {
        double sum = sumDiff_;
        for (std::size_t i = 0; i < n; ++i)
            sum += static_cast<double>(x[i]) - xq[i];
        sumDiff_ = sum;
        break;
      }
      case ErrorMetric::MaxError: {
        double mx = maxDiff_;
        for (std::size_t i = 0; i < n; ++i)
            mx = std::max(mx, std::fabs(static_cast<double>(x[i]) - xq[i]));
        maxDiff_ = mx;
        break;
      }
    }
    count_ += n;
}

void
ErrorStat::reset()
{
    *this = ErrorStat();
}

double
ErrorStat::value(ErrorMetric metric) const
{
    switch (metric) {
      case ErrorMetric::Rectilinear:
        return sumAbsDiff_;
      case ErrorMetric::CosineDistance: {
        if (normX_ == 0.0 || normQ_ == 0.0)
            return normX_ == normQ_ ? 0.0 : 1.0;
        return 1.0 - dot_ / (std::sqrt(normX_) * std::sqrt(normQ_));
      }
      case ErrorMetric::MeanBias:
        // Signed, matching the reference meanBias() in tensor_ops;
        // arbitration compares magnitudes at the call site.
        return count_ == 0
            ? 0.0
            : sumDiff_ / static_cast<double>(count_);
      case ErrorMetric::MaxError:
        return maxDiff_;
    }
    return 0.0;
}

} // namespace cq::quant
