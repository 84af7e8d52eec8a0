#include "stats.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

Tail tailPercentile(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() <= min_beyond) {
    t.value = v.back();
    t.percentile = 100;
    return t;
  }
  const std::size_t rank = v.size() - min_beyond;  // 1-based
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(v.size());
  t.beyond = min_beyond;
  return t;
}

double minOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double maxOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

namespace {

constexpr std::uint64_t kPrime = 0x100000001b3ull;

std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  h *= kPrime;
  return h ^ (h >> 29);
}

}  // namespace

void Digest::add(std::string_view bytes) {
  // Word-at-a-time: the simulate-traced outputs are megabytes per key.
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h_ = mix(h_, w);
  }
  std::uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h_ = mix(h_, tail);
  h_ = mix(h_, bytes.size());
}

void Digest::add(std::uint64_t value) { h_ = mix(h_, value); }

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
