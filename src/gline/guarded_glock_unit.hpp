// Fault-tolerant GLock unit: the token-tree protocol of the baseline
// unit rebuilt on reliable framed channels (framed_link.hpp), plus the
// failure path that the paper's fault-free wires never need.
//
// Differences from GlockUnit:
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
// fairness is preserved exactly as in the baseline unit for as long as
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
  /// The topology comes from build_token_tree (token_tree.hpp): flat
  /// mode (`hierarchical == false`) groups cores by mesh row (`group` =
  /// mesh width) under a single root, and a one-row mesh's row manager
  /// is the root; hierarchical mode builds the arbitrary-depth tree with
  /// `group` children per node. One child channel per node is co-located
  /// (free wiring), so the physical G-line count is C - 1 in both
  /// modes.
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

  struct Mgr {
    std::vector<std::uint32_t> children;  ///< vertex ids (token_tree.hpp)
    std::vector<bool> fx;  ///< request pending (set at REQ, cleared at REL)
    bool has_token = false;
    bool requested = false;
    int granted = -1;
    std::uint32_t pos = 0;
  };

  void tick_leaf(CoreId c);
  void tick_mgr(std::uint32_t idx);
  void try_demote();
  void flush_registers();

  GlockId glock_;
  FaultConfig cfg_;
  fault::FaultInjector* injector_;
  fault::GlockHealth* health_;
  std::vector<glocks::core::LockRegisters*> regs_;
  std::vector<LcState> leaves_;  ///< one leaf controller per core
  std::vector<Mgr> mgrs_;        ///< level order; root last
  /// Per vertex, the cores then mgrs_: the channel to the parent manager
  /// (null at the root).
  std::vector<std::unique_ptr<FramedChannel>> links_;
  std::uint32_t holder_count_ = 0;
  bool failing_ = false;
  bool demoted_ = false;
  std::uint32_t num_glines_ = 0;
  GlineStats stats_;
};

}  // namespace glocks::gline
