// Reliable framed signalling over a pair of G-line wires.
//
// The baseline protocol encodes REQ/REL as a toggle of the receiver's flag
// (paper Section III-D): correct only if the wire is perfect, since a lost
// or duplicated pulse permanently inverts the flag's meaning, and a blindly
// retransmitted REQ reads as a REL. The guarded transport therefore
// replaces raw pulses with short self-describing frames — start pulse,
// 3 payload bits (symbol type + sequence bit), parity, stop pulse, i.e.
// kFrameCycles of wire occupancy per symbol — and runs a stop-and-wait ARQ
// with an alternating sequence bit per direction:
//
//   * every data frame (REQ / REL / TOKEN) is acknowledged by an ACK frame
//     travelling on the opposite wire of the pair;
//   * the sender's watchdog retransmits after an exponentially backed-off
//     timeout; the receiver filters duplicates by sequence bit, so
//     delivery is exactly-once and in-order per direction;
//   * garbled frames (bad parity / malformed burst) are discarded at the
//     receiver — a spurious pulse burst can never forge a valid symbol,
//     which is what keeps mutual exclusion safe under noise injection
//     (docs/fault_model.md);
//   * after max_retries consecutive watchdog fires for one frame the link
//     is declared dead and the owning unit starts fallback demotion.
//
// With faults disabled the ARQ still runs (guarded units only exist in
// fault mode), every frame is delivered first try, and the watchdog never
// fires.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "gline/gline.hpp"

namespace glocks::gline {

/// Cycles one frame occupies its wire (start + 3 payload + parity + stop).
inline constexpr Cycle kFrameCycles = 6;

/// Symbols of the guarded protocol. REQ and REL are explicit (no toggle
/// semantics), TOKEN is the grant, ACK is the link-layer acknowledgement.
enum class Sym : std::uint8_t { kReq = 0, kRel = 1, kToken = 2, kAck = 3 };

const char* to_string(Sym s);

/// A bidirectional child<->parent link running one ARQ instance per
/// direction over a dedicated wire pair. End 0 is the child (local
/// controller / lower manager), end 1 the parent (manager). Data from end
/// e travels on wire e; the matching ACK returns on wire 1 - e.
class FramedChannel {
 public:
  FramedChannel(Cycle latency, bool is_local, const FaultConfig& cfg,
                fault::FaultInjector* injector, GlineStats* stats);

  /// Queues a symbol for reliable delivery to the other end. Reliability
  /// makes the queue small and bounded: each end has at most one request
  /// plus one release outstanding.
  void send(int from_end, Sym s);

  /// Pops the next delivered symbol at `end`, if any.
  bool recv(int end, Sym& out);

  /// One cycle: receive + ack bookkeeping, then transmission scheduling.
  void tick(Cycle now);

  /// True once some frame exhausted its retry budget. A dead link stays
  /// dead: the unit above reacts by draining and demoting its GLock.
  bool dead() const { return dead_; }
  bool is_local() const { return !up_.is_gline(); }

  /// No symbol queued, in flight, or awaiting ack in either direction.
  bool idle() const;

  /// Physical G-lines this channel contributes: one bidirectional line
  /// (modelled as two directed wires, like the baseline units), or none
  /// when co-located.
  std::uint32_t num_glines() const { return wire(0).is_gline() ? 1u : 0u; }

  /// Checkpoint: both wires, both ARQ directions (queues, sequence bits,
  /// watchdog timers, pending fault events) and the dead flag. Timeout
  /// parameters and fault wiring are construction-time state.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  struct Tx {
    std::deque<Sym> outq;
    bool in_flight = false;  ///< head frame sent, awaiting ACK
    bool resend = false;     ///< watchdog fired, waiting for the wire
    std::uint8_t seq = 0;
    Cycle retry_at = kNoCycle;
    std::uint32_t retries = 0;
    /// Drop events from attempts of the current frame (and from lost ACKs
    /// of the opposite direction): the next watchdog fire detects them.
    std::vector<std::int32_t> pending_events;
  };
  struct Rx {
    int last_seq = -1;  ///< sequence bit of the last accepted data frame
    std::deque<Sym> inbox;
    bool ack_pending = false;
    std::uint8_t ack_seq = 0;
  };

  Wire& wire(int w) { return w == 0 ? up_ : down_; }
  const Wire& wire(int w) const { return w == 0 ? up_ : down_; }
  void deliver(int dir, const Frame& f, Cycle now);
  void start_frame(int w, Sym s, std::uint8_t seq, int data_dir, Cycle now);
  Cycle timeout_for(std::uint32_t retries) const;
  std::uint64_t& counter(std::uint64_t fault::FaultStats::* field);

  Wire up_;    ///< wire 0: driven by end 0 (child)
  Wire down_;  ///< wire 1: driven by end 1 (parent)
  fault::FaultInjector* injector_;
  GlineStats* stats_;
  Cycle base_timeout_;
  Cycle backoff_cap_;
  std::uint32_t max_retries_;
  Cycle busy_until_[2] = {0, 0};
  Tx tx_[2];  ///< indexed by data direction (== driving wire)
  Rx rx_[2];
  bool dead_ = false;
};

}  // namespace glocks::gline
