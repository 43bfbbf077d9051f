// One hardware GLock: its G-line token tree and the three controller kinds
// of paper Figure 6 (local controllers, secondary lock managers, the
// primary lock manager at the root), implementing the token protocol of
// Section III-B.
//
// Topology (gline/token_tree.hpp): the flat network puts each core's
// local controller (LC) on its row's secondary manager (S, middle tile)
// and every S on the primary manager (R, middle row); co-located
// controllers use a zero-latency internal flag instead of a G-line
// (Section III-A), so a lock needs C - 1 wires (paper Table I). The
// hierarchical network (Section V) groups `group` children per G-line at
// every level, co-locates nothing, and needs 2 * depth signal cycles per
// worst-case acquire.
//
// Signal semantics: a pulse on an up-wire toggles the manager's f-flag
// (0 -> 1 is a REQ, 1 -> 0 is a REL, Section III-D); a pulse on a
// down-wire is always a TOKEN.
//
// Round-robin policy (Section III-B): a manager holding the token scans
// its flags upward from just past the previously-granted index; when the
// scan passes the last flag, RoundRobin() = NULL and the token returns to
// the parent. The root restarts its pass instead, differently per shape:
// the flat root scans circularly, resuming just past its last grant, so
// it can grant in the cycle the token comes home; the hierarchical root
// scans linearly, resets its position when the scan runs off the end,
// and grants on the next cycle. Either way any core's wait is bounded by
// one full rotation: the fairness property the tests verify.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/thread.hpp"
#include "gline/gline.hpp"
#include "gline/token_tree.hpp"

namespace glocks::gline {

class GlockUnit {
 public:
  /// `regs[c]` are core c's architectural lock registers; `glock` selects
  /// which req/rel pair within them belongs to this unit. `group` is the
  /// mesh width for the flat network and the children per G-line (the
  /// transmitter budget) for the hierarchical one.
  GlockUnit(GlockId glock, std::uint32_t num_cores, std::uint32_t group,
            Cycle signal_latency,
            std::vector<glocks::core::LockRegisters*> regs,
            bool hierarchical = false);

  /// One cycle: local controllers, then the managers bottom-up, the root
  /// last. All links — G-lines and co-located internal flags alike — are
  /// observed one cycle after they are written, matching the cycle labels
  /// of paper Figure 4.
  void tick(Cycle now);

  const GlineStats& stats() const { return stats_; }

  /// Number of physical G-lines deployed (== C - 1 on a flat full mesh).
  std::uint32_t num_glines() const { return num_glines_; }
  /// Managers below the root: the row managers of the flat network.
  std::uint32_t num_secondary_managers() const {
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  /// Manager levels, root included.
  std::uint32_t depth() const { return depth_; }

  /// Test hook: core currently holding the lock, if any.
  std::optional<CoreId> holder() const;

  /// True when no request, grant or release is anywhere in flight.
  bool idle() const;

  /// True when ticking the unit would change nothing: no pulse in flight
  /// on any wire and no controller with an actionable input. Unlike
  /// idle(), a quietly-held lock is dormant — the holding controller only
  /// acts again once its core sets the release register (which wakes the
  /// G-line system). Used by the event-driven kernel only.
  bool dormant() const;

  /// Checkpoint: controller FSMs, wires, manager flags/token state, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class LcState : std::uint8_t { kIdle, kWaiting, kHolding };

  struct Node {
    std::vector<std::uint32_t> children;  ///< vertex ids (token_tree.hpp)
    std::vector<bool> fx;                 ///< request flags, one per child
    /// Always set at the root, whose token is home while nothing is
    /// granted.
    bool has_token = false;
    bool requested = false;               ///< REQ sent up, waiting/holding
    /// Index (into children) of the child the token was granted to; -1
    /// when the manager is free to schedule.
    int granted = -1;
    /// Scan position of the round-robin pass: next scan starts at pos.
    std::uint32_t pos = 0;
  };

  void tick_local(CoreId c, Cycle now);
  void tick_node(std::uint32_t idx, Cycle now);
  void record_pulse(Wire& w, Cycle now);

  GlockId glock_;
  bool circular_root_;  ///< flat root policy (see the file comment)
  std::vector<glocks::core::LockRegisters*> regs_;
  std::vector<LcState> lcs_;  ///< one local controller per core
  std::vector<Node> nodes_;   ///< level order; root is the last entry
  /// Per vertex, the cores then nodes_: up carries REQ/REL, down TOKEN.
  std::vector<Link> links_;
  std::uint32_t depth_ = 0;
  std::uint32_t num_glines_ = 0;
  GlineStats stats_;
};

}  // namespace glocks::gline
