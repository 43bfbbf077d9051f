// Fault-tolerant GLock unit: the token-tree protocol of the baseline
// units rebuilt on reliable framed channels (framed_link.hpp), plus the
// failure path that the paper's fault-free wires never need.
//
// Differences from GlockUnit / HierGlockUnit:
//   * REQ/REL/TOKEN are explicit symbols, not flag toggles, so the link
//     layer may retransmit them idempotently — a lost pulse can no longer
//     invert a flag's meaning;
//   * every parent<->child link is a FramedChannel running stop-and-wait
//     ARQ with a watchdog, so transient faults are absorbed below the
//     protocol;
//   * when any channel exhausts its retry budget (permanent fault), the
//     unit enters `failing`: no new grants or requests are issued, the
//     unit waits until no leaf holds — or can still receive — the token
//     (the drain), then demotes itself: it flags the GLock as demoted on
//     the shared GlockHealth board and from then on merely flushes the
//     cores' lock registers every cycle, so register spins always
//     unblock and the ResilientGlock wrapper reroutes every acquire to
//     its software fallback lock.
//
// The same round-robin pass runs at every level, so FIFO-per-level
// fairness is preserved exactly as in the baseline units for as long as
// the hardware serves grants. Mutual exclusion is asserted structurally:
// a token acceptance while another leaf holds trips a GLOCKS_CHECK.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/thread.hpp"
#include "fault/fault.hpp"
#include "gline/framed_link.hpp"
#include "gline/gline.hpp"

namespace glocks::gline {

class GuardedGlockUnit {
 public:
  /// Flat mode (`hierarchical == false`) groups cores by mesh row under a
  /// single root, mirroring GlockUnit's two-level layout; hierarchical
  /// mode builds the arbitrary-depth tree of HierGlockUnit with `group`
  /// children per node. One child channel per node is co-located (free
  /// wiring), matching the baseline manager placement, so the physical
  /// G-line count stays C - 1 in flat mode.
  GuardedGlockUnit(GlockId glock, std::uint32_t num_cores,
                   std::uint32_t group, bool hierarchical,
                   Cycle signal_latency, const FaultConfig& cfg,
                   fault::FaultInjector* injector,
                   fault::GlockHealth* health,
                   std::vector<glocks::core::LockRegisters*> regs);

  void tick(Cycle now);

  const GlineStats& stats() const { return stats_; }
  std::uint32_t num_glines() const { return num_glines_; }
  std::optional<CoreId> holder() const;
  bool idle() const;
  bool failing() const { return failing_; }
  bool demoted() const { return demoted_; }

  /// Multi-line controller/flag/token dump for the hang diagnostic.
  std::string debug_dump() const;

  /// Checkpoint: leaf FSMs + channels, manager flags/token state, holder
  /// count, failing/demoted flags, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class LcState : std::uint8_t { kIdle, kWaiting, kHolding };

  struct Leaf {
    CoreId core;
    LcState state = LcState::kIdle;
    std::unique_ptr<FramedChannel> ch;  ///< to the segment manager
  };

  struct Mgr {
    bool leaf_level = false;  ///< children index leaves_ vs mgrs_
    bool is_root = false;
    std::vector<std::uint32_t> children;
    std::vector<bool> fx;  ///< request pending (set at REQ, cleared at REL)
    std::unique_ptr<FramedChannel> up;  ///< to the parent; null at the root
    bool has_token = false;
    bool requested = false;
    int granted = -1;
    std::uint32_t pos = 0;
  };

  FramedChannel& child_channel(Mgr& m, std::uint32_t i);
  const FramedChannel& child_channel(const Mgr& m, std::uint32_t i) const;
  void tick_leaf(Leaf& lf, Cycle now);
  void tick_mgr(Mgr& m, Cycle now);
  void try_demote(Cycle now);
  void flush_registers();

  GlockId glock_;
  FaultConfig cfg_;
  fault::FaultInjector* injector_;
  fault::GlockHealth* health_;
  std::vector<glocks::core::LockRegisters*> regs_;
  std::vector<Leaf> leaves_;
  std::vector<Mgr> mgrs_;  ///< level order; root last
  std::vector<std::uint32_t> leaf_mgr_;   ///< leaf -> owning manager
  std::vector<std::uint32_t> leaf_slot_;  ///< leaf -> child index there
  std::uint32_t holder_count_ = 0;
  bool failing_ = false;
  bool demoted_ = false;
  std::uint32_t num_glines_ = 0;
  GlineStats stats_;
};

}  // namespace glocks::gline
