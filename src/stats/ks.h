// Two-sample Kolmogorov-Smirnov statistic (evidence type D, Section III-C).
#pragma once

#include <cstddef>
#include <span>

namespace d3l {

/// \brief True when `sample` is a valid KS input: ascending and NaN-free
/// (infinities are allowed). AttributeProfile::numeric_sample is built this
/// way; samples read from outside the process must be checked with this
/// before they reach KsStatistic.
bool IsKsSample(std::span<const double> sample);

/// \brief Computes the two-sample KS statistic sup_x |F1(x) - F2(x)|.
///
/// Inputs are extents of numeric attributes understood as samples of their
/// originating domains. Both samples must be sorted ascending and NaN-free
/// (IsKsSample); the statistic is then one allocation-free merge. Returns
/// 1.0 (maximal distance) if either sample is empty.
double KsStatistic(std::span<const double> a, std::span<const double> b);

/// \brief Asymptotic two-sample KS p-value for statistic d with sample
/// sizes n and m (Kolmogorov distribution tail). Used in tests to sanity-
/// check same-distribution behaviour.
double KsPValue(double d, size_t n, size_t m);

}  // namespace d3l
