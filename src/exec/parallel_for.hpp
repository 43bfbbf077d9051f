// Run-level parallelism: fan *independent* simulations out across OS
// threads. Each simulated run owns its whole machine (Engine, CmpSystem,
// Tracer), so nothing is shared between jobs and per-run determinism is
// untouched; see the "Determinism contract" section of
// docs/simulation_model.md. body(0..count-1) runs with at most `jobs` in
// flight (capping concurrency instead of one thread per grid point avoids
// the oversubscription collapse described in Dice & Kogan, "Avoiding
// Scalability Collapse by Restricting Concurrency"), and results are
// addressed by index so output order never depends on completion order.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace glocks::exec {

/// The `--jobs` default: the GLOCKS_JOBS environment variable when set
/// (and >= 1), otherwise std::thread::hardware_concurrency(), never 0.
unsigned default_jobs();

/// Executes `body(i)` for every i in [0, count) across up to `jobs`
/// threads. jobs <= 1 runs strictly serially on the calling thread (the
/// degenerate case is bit-for-bit the plain loop). Indices are handed
/// out in order; if any invocation throws, the exception of the LOWEST
/// failing index is rethrown after all started work retires.
class ParallelFor {
 public:
  explicit ParallelFor(unsigned jobs = default_jobs()) : jobs_(jobs) {}

  void operator()(std::size_t count,
                  const std::function<void(std::size_t)>& body) const;

  unsigned jobs() const { return jobs_; }

 private:
  unsigned jobs_;
};

/// Free-function shorthand for a one-shot ParallelFor.
inline void parallel_for(std::size_t count, unsigned jobs,
                         const std::function<void(std::size_t)>& body) {
  ParallelFor{jobs}(count, body);
}

/// Maps fn over [0, count) and collects the results in index order —
/// deterministic output for any jobs value. T must be default- and
/// move-constructible.
template <typename T>
std::vector<T> parallel_map(std::size_t count, unsigned jobs,
                            const std::function<T(std::size_t)>& fn) {
  std::vector<T> out(count);
  parallel_for(count, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace glocks::exec
