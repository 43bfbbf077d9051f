// Small statistics helpers: named counters and fixed-bucket histograms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace glocks {

/// A histogram over integer bins [1..max_bin], as used by the lock
/// contention-rate census of paper Figure 7 (bins = group of acquiring
/// cores, grAC in [1..C]).
class Histogram {
 public:
  explicit Histogram(std::uint32_t max_bin) : counts_(max_bin + 1, 0) {}

  /// Adds `weight` to bin `bin`; bin 0 is valid and means "no samples".
  void add(std::uint32_t bin, std::uint64_t weight = 1) {
    GLOCKS_CHECK(bin < counts_.size(),
                 "histogram bin " << bin << " out of range");
    counts_[bin] += weight;
  }

  std::uint64_t count(std::uint32_t bin) const {
    GLOCKS_CHECK(bin < counts_.size(), "bin out of range");
    return counts_[bin];
  }

  std::uint32_t max_bin() const {
    return static_cast<std::uint32_t>(counts_.size() - 1);
  }

  /// Sum over bins [first..last] inclusive.
  std::uint64_t total(std::uint32_t first = 0,
                      std::uint32_t last = ~std::uint32_t{0}) const;

  /// Fraction of mass in bins [first..last] relative to all bins >= 1.
  double fraction(std::uint32_t first, std::uint32_t last) const;

 private:
  std::vector<std::uint64_t> counts_;
};

/// A flat bag of named 64-bit counters; components report into one of
/// these and the harness aggregates them.
class CounterSet {
 public:
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }
  void merge(const CounterSet& other) {
    for (const auto& [k, v] : other.counters_) counters_[k] += v;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace glocks
