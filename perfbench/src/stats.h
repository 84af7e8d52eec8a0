// Order statistics and output digests for the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// The tail statistic the benchmark reports: the highest percentile that
/// still has at least `min_beyond` samples above it. With n samples in
/// ascending order that is the sample of rank r = n - min_beyond
/// (1-based), at percentile 100 * r / n. With n <= min_beyond no such
/// percentile exists; the maximum is returned with beyond = 0.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t beyond = 0;  ///< samples ranked after `value`
  std::size_t samples = 0;
};
[[nodiscard]] Tail tailPercentile(std::vector<double> v,
                                  std::size_t min_beyond = 10);

/// Smallest / largest element; 0 when empty.
[[nodiscard]] double minOf(const std::vector<double>& v);
[[nodiscard]] double maxOf(const std::vector<double>& v);

/// 64-bit digest over a sequence of byte strings. Each add() also folds
/// the length, so ("ab","c") and ("a","bc") differ.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
