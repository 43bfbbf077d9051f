// The common lock interface and per-lock statistics.
//
// Every implementation is a coroutine against the simulated machine: its
// loads/stores/AMOs traverse the L1s, the directory protocol and the mesh
// exactly like application accesses, so algorithms pay their real
// coherence cost. Acquire/release cycles are attributed to the Lock
// category, and the contention census (paper Figure 7) is fed by the
// requester count maintained in the acquire wrapper.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>
#include <string_view>

#include "common/types.hpp"
#include "core/task.hpp"
#include "core/thread.hpp"
#include "mem/backing_store.hpp"

namespace glocks::locks {

struct LockStats {
  std::string name;                     ///< for reports ("L1", "task-q"...)
  /// Sampled by ContentionCensus once per cycle, after every core has
  /// ticked. Atomic (relaxed) so a concurrent ++/-- from several host
  /// threads would stay exact; a machine runs on one host thread today,
  /// where the atomic costs nothing observable.
  std::atomic<std::uint32_t> current_requesters{0};
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  /// Per-thread acquire counts (grown on demand); feeds the fairness
  /// index the paper's "completely fair behavior" claim is checked with.
  std::vector<std::uint64_t> acquires_by_thread;

  /// Jain's fairness index over per-thread acquires: 1.0 = perfectly
  /// even, 1/n = one thread took everything. Threads that never acquired
  /// are included (a starved thread *should* drag the index down).
  double jain_index(std::uint32_t num_threads) const;
};

class Lock {
 public:
  virtual ~Lock() = default;
  Lock() = default;
  Lock(const Lock&) = delete;
  Lock& operator=(const Lock&) = delete;

  /// Blocks (in simulated time) until the calling thread owns the lock.
  core::Task<void> acquire(core::ThreadApi& t);
  /// Releases; the caller must be the current owner.
  core::Task<void> release(core::ThreadApi& t);

  virtual std::string_view kind_name() const = 0;

  /// Writes any initial values the algorithm needs into simulated memory
  /// (e.g. the Array lock arms slot 0). Called once before the run starts.
  virtual void preload(mem::BackingStore&) {}

  LockStats& stats() { return stats_; }
  const LockStats& stats() const { return stats_; }

 protected:
  virtual core::Task<void> do_acquire(core::ThreadApi& t) = 0;
  virtual core::Task<void> do_release(core::ThreadApi& t) = 0;

 private:
  LockStats stats_;
};

/// Convenience RAII-style critical section:
///   co_await with_lock(lock, t, [&]() -> Task<void> { ... });
/// is not expressible without allocating, so workloads call
/// acquire/release explicitly; this header only documents the idiom.

}  // namespace glocks::locks
