// Summary statistics for the benchmark's reported metrics.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr int kTailSamples = 10;

/// The q-quantile (0 < q < 1) of `values`, linearly interpolated
/// between order statistics. Throws util::CheckError when fewer than
/// kTailSamples samples lie beyond it, i.e. when (1 - q) * n < 10: such
/// a percentile would be set by a handful of samples.
double percentile(std::vector<double> values, double q);

/// Whether percentile(values, q) would accept `count` samples.
bool percentile_supported(std::size_t count, double q);

/// Plain median of a small sample (set-up repetitions); throws on an
/// empty sample.
double median(std::vector<double> values);

/// Least-squares slope of log(y) against log(x) over the pairs with
/// x > 0 and y > 0; 0 when fewer than two distinct x remain.
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

/// True iff `name` is a non-empty metric name of [A-Za-z0-9_.-] that
/// starts with a letter or digit.
bool valid_metric_name(const std::string& name);

}  // namespace perfbench
