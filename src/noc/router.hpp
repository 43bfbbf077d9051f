// A 5-port 2D-mesh router with XY dimension-order routing and one
// virtual channel per message class.
//
// Model: one bounded FIFO per (input port, message class); each cycle
// every output port forwards at most one packet, arbitrated round-robin
// across (port, class) pairs, so a burst of Coherence traffic cannot
// head-of-line-block Replies sharing the port. Messages of one class
// between one (source, destination) pair still deliver in FIFO order —
// the ordering property the protocol relies on. A forwarded packet
// becomes visible at the next router after router_latency + link_latency
// cycles; a packet routed to the local port is handed to the tile's sink
// after router_latency cycles.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/active_set.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"

namespace glocks::ckpt {
class ArchiveWriter;
}  // namespace glocks::ckpt

namespace glocks::noc {

enum class Dir : std::uint8_t {
  kLocal = 0,
  kNorth = 1,
  kSouth = 2,
  kEast = 3,
  kWest = 4
};
inline constexpr std::size_t kNumDirs = 5;

constexpr Dir opposite(Dir d) {
  switch (d) {
    case Dir::kNorth:
      return Dir::kSouth;
    case Dir::kSouth:
      return Dir::kNorth;
    case Dir::kEast:
      return Dir::kWest;
    case Dir::kWest:
      return Dir::kEast;
    case Dir::kLocal:
      return Dir::kLocal;
  }
  return Dir::kLocal;
}

struct RouterTiming {
  Cycle router_latency = 3;
  Cycle link_latency = 1;
  std::uint32_t input_queue_depth = 16;
};

/// Writes the opaque payload a Packet carries, keyed off its PayloadKind
/// tag. The NoC cannot interpret `Packet::payload` itself (the pointee
/// lives in a typed pool owned by the memory hierarchy), so the pool's
/// owner supplies this (mem::save_payload).
using PayloadSaver = void (*)(ckpt::ArchiveWriter&, const Packet&);

/// Portable packet encoding: every field except the raw payload pointer,
/// then the payload bytes via `save_payload`.
void save_packet(ckpt::ArchiveWriter& a, const Packet& p,
                 PayloadSaver save_payload);

/// Hooks the router consults when the mesh fault domain is enabled
/// (faults-off runs carry a null pointer and take the exact baseline
/// paths). Implemented by noc::MeshFaultDomain, which owns the link
/// guards (stop-and-wait ARQ per directed link and message class), the
/// dead-link set, and the detour routing tables.
class LinkFaultModel {
 public:
  virtual ~LinkFaultModel() = default;
  /// Routing decision for `dst` at `tile`: XY while every link is alive,
  /// the detour table once any link has died. Returns kNumDirs when the
  /// destination is currently unreachable (the head must hold; the
  /// end-to-end watchdog at the MSHR layer is the escape hatch).
  virtual std::uint32_t next_hop(std::uint32_t tile, std::uint32_t dst) = 0;
  /// True when the head of input queue (in, cls) at `tile` is owned by a
  /// busy link guard (an in-flight, not-yet-acknowledged frame):
  /// arbitration must leave it queued until the guard resolves.
  virtual bool head_locked(std::uint32_t tile, Dir in, MsgClass cls) = 0;
  /// True when the (tile, out, cls) guard is mid-transfer: no new frame
  /// may start on that link/class this cycle (stop-and-wait).
  virtual bool link_busy(std::uint32_t tile, Dir out, MsgClass cls) = 0;
  /// Starts a guarded transfer of the head of (in, cls) through `out`.
  /// The model judges the link fate: on delivery it moves the packet
  /// into the downstream router itself (capacity pre-checked by the
  /// caller); on loss/garble the head stays queued and the guard's
  /// retransmission watchdog takes over. Either way the output port is
  /// consumed for this cycle.
  virtual void start_transfer(std::uint32_t tile, Dir out, Dir in,
                              MsgClass cls, Cycle now) = 0;
};

class Router {
 public:
  using Sink = std::function<void(Packet&&)>;

  /// `x`,`y` — mesh coordinates; `mesh_w` — mesh width for XY routing;
  /// `busy` — the mesh's occupied-router worklist, which every rise in
  /// this router's occupancy adds its tile to.
  Router(std::uint32_t x, std::uint32_t y, std::uint32_t mesh_w,
         RouterTiming timing, TrafficStats& stats, common::ActiveSet& busy);

  std::uint32_t x() const { return x_; }
  std::uint32_t y() const { return y_; }
  /// Tile id in the mesh's row-major layout.
  std::uint32_t tile() const { return y_ * mesh_w_ + x_; }

  /// Arms the mesh fault domain's hooks (null = faults-off baseline).
  void set_fault_model(LinkFaultModel* m) { fault_ = m; }

  /// Wires the output in direction `d` to `neighbor` (non-owning).
  void connect(Dir d, Router& neighbor) { neighbors_[idx(d)] = &neighbor; }
  /// Registers the callback receiving packets addressed to this tile.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Attempts to place a locally-injected packet into the local input
  /// port; returns false when that FIFO is full. The packet becomes
  /// routable next cycle.
  bool inject(Packet&& p, Cycle now);

  /// Called by the upstream router when it forwards a packet here.
  /// Capacity must have been checked with can_accept() in the same cycle.
  void accept(Dir in, Packet&& p, Cycle ready);
  bool can_accept(Dir in, MsgClass cls) const;

  /// One cycle of arbitration + forwarding + local delivery. The
  /// round-robin pointer advances only on cycles where the router had at
  /// least one ready head (an input-FIFO head or pending local delivery
  /// with ready <= now) — an idle tick has no architectural effect at
  /// all, so the mesh ticks only the routers on its worklist, and skipped
  /// or folded cycles are exact.
  void tick(Cycle now);

  /// Credits one busy-tick's round-robin rotation without ticking. Used
  /// by the mesh's express path: a virtual flight's switch traversal (or
  /// final local delivery) at this router is exactly one cycle on which
  /// the hop-by-hop scan would have seen a ready head.
  void credit_busy_tick() { rr_ = (rr_ + 1) % kSlots; }

  /// True when every queue (inputs and pending local deliveries) is empty.
  bool idle() const { return occupancy_ == 0; }
  /// Packets resident in this router (all input FIFOs + local_out_).
  std::uint32_t occupancy() const { return occupancy_; }

  /// Decides the output direction for a packet destined to tile coords.
  Dir route(std::uint32_t dst_x, std::uint32_t dst_y) const;

  /// Express materialization (Mesh only): places a packet directly into
  /// an input FIFO with an explicit ready cycle — exactly the entry the
  /// hop-by-hop path would hold at this point. Records no statistics;
  /// the Mesh credits the hops already "performed" itself. Capacity is
  /// checked: the express reservation ledger guarantees room.
  void place(Dir in, MsgClass cls, Packet&& p, Cycle ready);
  /// Same, for the local ejection queue (a flight past its last switch).
  void place_local(Packet&& p, Cycle ready);

  /// Fault-domain access to a guarded queue head: the guard inspects the
  /// in-flight frame (peek) and removes it on successful link delivery
  /// (take). Only meaningful while a guard owns the head.
  const Packet& peek_head(Dir in, MsgClass cls) const;
  Packet take_head(Dir in, MsgClass cls);

  /// Serializes queue contents (front-to-back, with ready cycles), the
  /// round-robin pointer, and the occupancy counter. Payload pointees go
  /// through `save_payload`; geometry/wiring is construction-time state.
  void save(ckpt::ArchiveWriter& a, PayloadSaver save_payload) const;

 private:
  struct Timed {
    Cycle ready = 0;
    Packet pkt;
  };

  static constexpr std::size_t kSlots = kNumDirs * kNumMsgClasses;

  static std::size_t idx(Dir d) { return static_cast<std::size_t>(d); }
  void forward(Dir out, Packet&& p, Cycle now);
  /// Counts one more resident packet and joins the mesh's worklist.
  void occupy() {
    ++occupancy_;
    busy_->insert(tile());
  }

  std::uint32_t x_, y_, mesh_w_;
  RouterTiming timing_;
  TrafficStats* stats_;
  /// Input FIFOs: [port][virtual channel (message class)]. Ring buffers
  /// grow to input_queue_depth once and then cycle allocation-free; the
  /// logical depth bound is enforced here, not by the ring.
  std::array<std::array<common::RingBuffer<Timed>, kNumMsgClasses>, kNumDirs>
      in_;
  std::array<Router*, kNumDirs> neighbors_{};
  common::RingBuffer<Timed> local_out_;
  Sink sink_;
  std::uint32_t rr_ = 0;  ///< round-robin start index for input arbitration
  LinkFaultModel* fault_ = nullptr;  ///< mesh fault domain hooks (may be null)
  common::ActiveSet* busy_;  ///< the mesh's occupied-router worklist
  /// Packets resident in this router (all input FIFOs + local_out_); lets
  /// an idle tick skip the kSlots arbitration scan entirely.
  std::uint32_t occupancy_ = 0;
};

}  // namespace glocks::noc
