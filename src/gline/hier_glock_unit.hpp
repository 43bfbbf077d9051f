// Hierarchical GLock network: the second scaling path of paper Section V
// ("different groups of G-line-based networks linked together through
// additional G-lines").
//
// The baseline GlockUnit is a fixed two-level hierarchy (row managers
// under one primary), which caps the chip at the single-cycle G-line
// reach (7x7). This unit generalizes the same token protocol to an
// arbitrary-depth tree: cores are grouped into segments of at most
// `reach` per G-line, segments into groups of at most `reach`, and so on
// until a single root remains. Every level runs the identical round-robin
// pass protocol (REQ up on first demand, TOKEN down to one child at a
// time, REL up when the pass completes), so fairness and correctness
// arguments carry over level by level.
//
// Cost: wires = nodes - 1 (each non-root node has one bidirectional
// G-line to its parent); worst-case acquire latency = 2 * depth signal
// cycles instead of 4, growing logarithmically with core count.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/thread.hpp"
#include "gline/gline.hpp"

namespace glocks::gline {

class HierGlockUnit {
 public:
  /// `reach` — max children per node (transmitters per shared segment;
  /// the paper's technology supports 6 transmitters + 1 receiver).
  HierGlockUnit(GlockId glock, std::uint32_t num_cores, Cycle signal_latency,
                std::uint32_t reach,
                std::vector<glocks::core::LockRegisters*> regs);

  void tick(Cycle now);

  const GlineStats& stats() const { return stats_; }
  std::uint32_t num_glines() const { return num_glines_; }
  std::uint32_t depth() const { return depth_; }
  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::optional<CoreId> holder() const;
  bool idle() const;

  /// True when a tick would change nothing (see GlockUnit::dormant).
  /// A held lock is dormant; the core's release-register write wakes the
  /// G-line system. Used by the event-driven kernel only.
  bool dormant() const;

  /// Checkpoint: controller FSMs, wires, node flags/token state, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class LcState : std::uint8_t { kIdle, kWaiting, kHolding };

  /// Leaf controller: same FSM as the flat design's local controller.
  struct LocalCtl {
    CoreId core;
    LcState state = LcState::kIdle;
    Wire up;
    Wire down;
    LocalCtl(CoreId c, Cycle lat) : core(c), up(lat), down(lat) {}
  };

  /// Internal manager node; children are cores (level 0) or other nodes.
  struct Node {
    bool leaf_level = false;           ///< children index lcs_ vs nodes_
    std::vector<std::uint32_t> children;
    std::vector<bool> fx;
    Wire up;    ///< towards the parent (REQ/REL); unused at the root
    Wire down;  ///< from the parent (TOKEN); unused at the root
    bool is_root = false;
    bool has_token = false;
    bool requested = false;
    int granted = -1;
    std::uint32_t pos = 0;
    Node(Cycle lat) : up(lat), down(lat) {}
  };

  Wire& child_up(Node& n, std::uint32_t i);
  Wire& child_down(Node& n, std::uint32_t i);
  void tick_node(Node& n, Cycle now);
  void record_pulse(Wire& w, Cycle now);

  GlockId glock_;
  std::vector<glocks::core::LockRegisters*> regs_;
  std::vector<LocalCtl> lcs_;
  std::vector<Node> nodes_;  ///< level by level; root is the last entry
  std::uint32_t depth_ = 0;
  std::uint32_t num_glines_ = 0;
  GlineStats stats_;
};

}  // namespace glocks::gline
