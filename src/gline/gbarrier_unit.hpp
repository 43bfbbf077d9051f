// G-line barrier network: the companion mechanism of the authors' prior
// work (Abellán et al., ICPP 2010, cited as [22]), which the GLocks paper
// builds on. Reproduced here because the evaluation's workloads rely on
// barriers, and a hardware barrier is the natural ablation partner for
// the software tree barrier.
//
// Topology is the flat GLock network's (the same build_token_tree
// layout): per-row aggregation at a secondary node, global aggregation
// at a root node, all over 1-bit G-lines. The protocol is a pure
// AND-tree:
//
//   arrive:  core sets its barrier_arrive register; the local controller
//            pulses its row aggregator; when a row has collected all of
//            its members it pulses the root.
//   release: when the root has collected all rows it pulses each row
//            aggregator, which broadcasts to its members' controllers
//            (G-lines support broadcast, Ito et al.), clearing the cores'
//            barrier_wait registers.
//
// Latency: 4 signal cycles root-trip + register pickup, independent of
// the number of participating cores — versus Theta(log N) cache-miss
// round-trips for the software combining tree.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/thread.hpp"
#include "gline/gline.hpp"
#include "gline/token_tree.hpp"

namespace glocks::gline {

struct GBarrierStats {
  std::uint64_t episodes = 0;
  std::uint64_t signals = 0;
  std::uint64_t local_flags = 0;
};

class GBarrierUnit {
 public:
  /// `regs[c]` are core c's barrier registers; `unit` selects which
  /// arrive/wait pair belongs to this barrier.
  GBarrierUnit(std::uint32_t unit, std::uint32_t num_cores,
               std::uint32_t mesh_width, Cycle signal_latency,
               std::vector<glocks::core::BarrierRegisters*> regs);

  void tick(Cycle now);

  const GBarrierStats& stats() const { return stats_; }
  std::uint32_t num_glines() const { return num_glines_; }
  bool idle() const;

  /// True when a tick would change nothing: no pulse in flight and no
  /// controller/aggregator with an actionable input. A partially-arrived
  /// barrier is dormant; the next core's arrive-register write wakes the
  /// G-line system. Used by the event-driven kernel only.
  bool dormant() const;

  /// Checkpoint: controller FSMs, wires, row aggregation state, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class LcState : std::uint8_t { kIdle, kArrived };

  struct Row {
    std::vector<std::uint32_t> members;  ///< core ids
    std::uint32_t arrived = 0;
    bool reported = false;  ///< row-complete pulse sent to the root
  };

  void record_pulse(Wire& w, Cycle now);

  std::uint32_t unit_;
  std::vector<glocks::core::BarrierRegisters*> regs_;
  std::vector<LcState> lcs_;  ///< one local controller per core
  std::vector<Row> rows_;
  /// Per vertex, the cores then the rows: up carries the arrival pulse,
  /// down the release.
  std::vector<Link> links_;
  std::uint32_t rows_arrived_ = 0;
  std::uint32_t num_glines_ = 0;
  GBarrierStats stats_;
};

}  // namespace glocks::gline
