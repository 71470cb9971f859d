// Shared scalar reduction loops (DESIGN.md §15): plain sum, dot product,
// sum of squares, element-wise accumulate, seeded max, weighted index sum.
// They live here once, as inline serial loops, so every caller in dsp/,
// features/, core/ and ml/ shares one definition and one accumulation
// order.
#pragma once

#include <cstddef>
#include <span>

namespace airfinger::common::reduce {

/// Sum of all elements in ascending order (0 for empty input).
inline double sum(std::span<const double> x) {
  double s = 0.0;
  for (const double v : x) s += v;
  return s;
}

/// Dot product in ascending order. Requires a.size() == b.size().
inline double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// Sum of squares in ascending order (0 for empty input).
inline double energy(std::span<const double> x) {
  double s = 0.0;
  for (const double v : x) s += v * v;
  return s;
}

/// acc[i] += x[i] for every i < x.size(). Requires acc.size() >= x.size().
inline void accumulate(std::span<double> acc, std::span<const double> x) {
  for (std::size_t i = 0; i < x.size(); ++i) acc[i] += x[i];
}

/// Maximum of `seed` and every element, via sequential `v > m` updates —
/// the open-coded peak-scan idiom (NaN elements never replace m).
inline double max_with(std::span<const double> x, double seed) {
  double m = seed;
  for (const double v : x) {
    if (v > m) m = v;
  }
  return m;
}

/// First minimum element (std::min_element semantics). Requires non-empty.
inline double min_value(std::span<const double> x) {
  double m = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] < m) m = x[i];
  }
  return m;
}

/// First maximum element (std::max_element semantics). Requires non-empty.
inline double max_value(std::span<const double> x) {
  double m = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > m) m = x[i];
  }
  return m;
}

/// sum_i i * x[i] in ascending order (0 for empty input) — the centroid /
/// tau numerator idiom.
inline double weighted_index_sum(std::span<const double> x) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    s += static_cast<double>(i) * x[i];
  return s;
}

}  // namespace airfinger::common::reduce
