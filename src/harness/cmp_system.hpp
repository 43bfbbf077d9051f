// The assembled simulated machine: engine + mesh + memory hierarchy +
// cores + G-line lock network + contention census, wired in the tick
// order the timing model expects.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/config.hpp"
#include "core/core.hpp"
#include "gline/gline_system.hpp"
#include "locks/census.hpp"
#include "mem/hierarchy.hpp"
#include "mem/sim_allocator.hpp"
#include "noc/mesh.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace glocks::harness {

class CmpSystem {
 public:
  explicit CmpSystem(const CmpConfig& cfg);

  const CmpConfig& config() const { return cfg_; }
  sim::Engine& engine() { return engine_; }
  noc::Mesh& mesh() { return mesh_; }
  mem::Hierarchy& hierarchy() { return hierarchy_; }
  gline::GlineSystem& glines() { return *glines_; }
  /// Fallback-demotion board; null when fault injection is disabled.
  fault::GlockHealth* glock_health() { return glines_->health(); }
  locks::ContentionCensus& census() { return census_; }
  mem::SimAllocator& heap() { return heap_; }
  core::Core& core(CoreId c) { return *cores_[c]; }
  std::uint32_t num_cores() const { return cfg_.num_cores; }

  /// Attaches an event tracer to every bound thread. Call after the
  /// threads are bound and before run().
  void attach_tracer(trace::Tracer& tracer);

  /// True once every bound thread's coroutine has returned.
  bool all_threads_finished() const;

  /// Runs the machine until all threads finish, then drains in-flight
  /// coherence traffic. Returns the cycle the last thread finished at
  /// (the paper's execution-time metric excludes the drain tail).
  Cycle run();

  /// run(), pausing at each cycle in `pause_at` (ascending) to invoke
  /// `on_pause` — the checkpoint layer's hook. Pauses beyond the cycle
  /// the last thread finishes at are skipped (nothing left to save that
  /// a restore could resume into). Pausing never perturbs the run: the
  /// paused-and-resumed machine ticks identically to an uninterrupted
  /// one (tests/ckpt_equivalence_test.cpp holds us to that).
  Cycle run(const std::vector<Cycle>& pause_at,
            const std::function<void(Cycle)>& on_pause);

  /// Serializes the full machine state as one section per subsystem, in
  /// the fixed order of the v7 archive (docs/checkpoint_format.md). There
  /// is no inverse: a restore replays the run and compares these bytes.
  void save_state(ckpt::ArchiveWriter& a);

  /// Per-core wait states and lock registers plus the G-line units'
  /// controller/token dump; installed as the engine's hang reporter.
  std::string hang_report() const;

 private:
  CmpConfig cfg_;
  sim::Engine engine_{cfg_.engine_mode};
  noc::Mesh mesh_;
  mem::Hierarchy hierarchy_;
  std::vector<std::unique_ptr<core::Core>> cores_;
  std::unique_ptr<gline::GlineSystem> glines_;
  locks::ContentionCensus census_;
  mem::SimAllocator heap_;
  /// Cores whose finish listener has fired; run() terminates on this
  /// counter instead of scanning every core between cycles. Still
  /// atomic although a machine runs on one host thread: dropping host
  /// synchronisation is left to a separate, TSan-checked change.
  std::atomic<std::uint32_t> finished_count_{0};
};

}  // namespace glocks::harness
