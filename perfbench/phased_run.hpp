// The benchmark's traced runner: runs one grid point through the same
// public calls harness::run_workload makes, one phase at a time, and
// records a host-time span around each phase. The benchmark checks every
// result it produces against run_workload's, so the two cannot drift.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace perfbench {

/// One interval of host time. Spans live in memory until the benchmark
/// writes them out at exit.
struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds since the log's epoch
  double end = 0.0;
  std::int32_t parent = -1;  ///< index into the same log; -1 = root
  std::int32_t point = -1;   ///< grid point index; -1 outside a point
};

/// Append-only span log. Not thread-safe: concurrent points each fill
/// their own log (sharing one epoch) and the caller merges them.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span and returns its index.
  std::int32_t begin(const char* name, std::int32_t parent,
                     std::int32_t point);
  void end(std::int32_t id);

  /// Moves `other`'s spans to the end of this log, re-basing their parent
  /// indices; spans whose parent was -1 get `root` as parent.
  void absorb(SpanLog&& other, std::int32_t root);

  const std::vector<Span>& spans() const { return spans_; }
  Clock::time_point epoch() const { return epoch_; }

 private:
  double now() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Runs `workload` (built at `scale`) under `cfg`, logging one span per
/// phase as children of span `parent`. Returns what run_workload would.
glocks::harness::RunResult run_phased(
    const std::string& workload, double scale,
    const glocks::harness::RunConfig& cfg, SpanLog& log, std::int32_t parent,
    std::int32_t point);

/// Host time of run_phased's phases before the simulation (make, build,
/// setup and binding): what setup_s measures. The machine is torn down
/// outside the timing.
double setup_seconds(const std::string& workload, double scale,
                     const glocks::harness::RunConfig& cfg);

}  // namespace perfbench
