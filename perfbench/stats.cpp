#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "util/check.hpp"

namespace perfbench {

bool percentile_supported(std::size_t count, double q) {
  // The small epsilon keeps (1 - 0.99) * 1000 from rounding to 9.
  return q > 0.0 && q < 1.0 &&
         std::floor((1.0 - q) * static_cast<double>(count) + 1e-9) >=
             kTailSamples;
}

double percentile(std::vector<double> values, double q) {
  NAT_CHECK_MSG(percentile_supported(values.size(), q),
                "percentile " << q << " of " << values.size()
                              << " samples has fewer than " << kTailSamples
                              << " samples beyond it");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  NAT_CHECK_MSG(!values.empty(), "median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double loglog_slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  NAT_CHECK(x.size() == y.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  double n = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] <= 0.0 || y[i] <= 0.0) continue;
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    n += 1;
  }
  const double var = n * sxx - sx * sx;
  if (n < 2 || var <= 1e-12 * n * n) return 0.0;
  return (n * sxy - sx * sy) / var;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
