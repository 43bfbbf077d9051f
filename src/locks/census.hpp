// Cycle-by-cycle lock contention census (paper Section IV-B).
//
// Every cycle, each registered lock with at least one outstanding acquire
// contributes one sample at bin grAC = number of concurrent requesters.
// LCR per grAC (paper eq. 1) and the per-lock decomposition (eq. 3) are
// derived from these histograms by the harness.
#pragma once

#include <algorithm>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/stats.hpp"
#include "locks/lock.hpp"
#include "sim/engine.hpp"

namespace glocks::locks {

class ContentionCensus final : public sim::Component {
 public:
  explicit ContentionCensus(std::uint32_t max_requesters)
      : max_requesters_(max_requesters) {}

  /// Registers a lock to be sampled. Non-owning; the lock must outlive
  /// the census.
  void watch(const Lock& lock) {
    lock_stats_.push_back(&lock.stats());
    histograms_.emplace_back(max_requesters_);
    cached_.push_back(0);
  }

  void tick(Cycle now) override {
    // Requester counts only move inside Lock::acquire, which wakes us, so
    // the counts were frozen at the cached values across any skipped
    // cycles: charge those cycles by weight before sampling the new state.
    if (last_tick_ != kNoCycle && now > last_tick_ + 1) {
      const std::uint64_t missed = now - last_tick_ - 1;
      for (std::size_t i = 0; i < cached_.size(); ++i) {
        if (cached_[i] > 0) {
          histograms_[i].add(std::min(cached_[i], max_requesters_), missed);
        }
      }
    }
    for (std::size_t i = 0; i < lock_stats_.size(); ++i) {
      const std::uint32_t n = lock_stats_[i]->current_requesters;
      cached_[i] = n;
      if (n > 0) histograms_[i].add(std::min(n, max_requesters_));
    }
    last_tick_ = now;
    sleep();
  }

  std::size_t num_locks() const { return lock_stats_.size(); }
  const Histogram& histogram(std::size_t i) const { return histograms_[i]; }
  const LockStats& lock_stats(std::size_t i) const { return *lock_stats_[i]; }

  /// Checkpoint: per-lock histograms, cached requester counts, and the
  /// last sample cycle. The watched-lock wiring is rebuilt by the system
  /// builder and validated by count here.
  void save(ckpt::ArchiveWriter& a) const {
    a.u32(static_cast<std::uint32_t>(histograms_.size()));
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
      const Histogram& h = histograms_[i];
      a.u32(h.max_bin());
      for (std::uint32_t b = 0; b <= h.max_bin(); ++b) a.u64(h.count(b));
      a.u32(cached_[i]);
    }
    a.u64(last_tick_);
  }

  /// Total census cycles across all locks (the denominator of eq. 3).
  std::uint64_t total_cycles() const {
    std::uint64_t sum = 0;
    for (const auto& h : histograms_) sum += h.total(1);
    return sum;
  }

 private:
  std::uint32_t max_requesters_;
  std::vector<const LockStats*> lock_stats_;
  std::vector<Histogram> histograms_;
  std::vector<std::uint32_t> cached_;  ///< requester counts at last_tick_
  Cycle last_tick_ = kNoCycle;
};

}  // namespace glocks::locks
