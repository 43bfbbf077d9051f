// The 2D-mesh interconnect: routers, per-tile network interfaces, wiring,
// and the express fast-forward path for packets crossing an idle fabric.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/active_set.hpp"
#include "common/config.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "noc/message.hpp"
#include "noc/router.hpp"
#include "sim/engine.hpp"

namespace glocks::noc {

/// Express fast-forward counters for the --perf layer. Every send is
/// eventually tallied exactly once, at resolution: `hits` when the
/// packet was delivered analytically without waking a single router,
/// `declined` when it had to take the hop-by-hop path from the start,
/// `materialized` when it was scheduled express but a later conflicting
/// send demoted it back into the physical fabric mid-flight.
struct ExpressPerf {
  std::uint64_t hits = 0;
  std::uint64_t declined = 0;
  std::uint64_t materialized = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + declined + materialized;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// The whole on-chip data network. One sim::Component: ticking the mesh
/// drains the backlogged NICs, then ticks the occupied routers, each in
/// ascending tile order. Two worklists name them: a NIC is listed from
/// its first `send()` until all of its outboxes are empty, a router from
/// any rise in its occupancy until a tick leaves it idle. A NIC or
/// router off its list has nothing to do, so skipping it is exact.
///
/// Endpoints send with `send()` (unbounded NIC outbox, so callers never
/// handle backpressure) and receive through the per-tile sink registered
/// with `set_sink()`. Messages between an endpoint and itself are not
/// allowed here — the memory system short-circuits same-tile traffic,
/// matching the paper's observation that local L2 slice accesses produce
/// no network traffic.
///
/// Express fast-forwarding (NocConfig::express_routes): when a packet is
/// sent while the physical fabric is completely empty, its XY route is
/// rigid — injection, every switch traversal, and ejection each happen
/// at an analytically-known cycle — so instead of waking every router on
/// the path the mesh checks the route's resources against the other
/// in-progress express flights and, if none collide, schedules a single
/// wake at the computed arrival cycle. Per-hop TrafficStats are credited
/// in full at delivery (identical bytes/hops/packets; the counters are
/// only read end-of-run). The moment any send cannot be proven
/// conflict-free, every virtual flight is materialized back into the
/// router queues at exactly the position the hop-by-hop path would have
/// reached, and the fabric continues physically — so simulated timing
/// and arbitration stay bit-identical whether the path is taken or not.
/// See docs/simulation_model.md, "Message lifecycle, pooling, and the
/// express path".
class MeshFaultDomain;

class Mesh final : public sim::Component {
 public:
  Mesh(std::uint32_t num_tiles, std::uint32_t width, NocConfig cfg);
  ~Mesh() override;

  std::uint32_t num_tiles() const {
    return static_cast<std::uint32_t>(nics_.size());
  }
  std::uint32_t width() const { return width_; }

  void set_sink(CoreId tile, Router::Sink sink);

  /// Queues `p` for injection at tile `p.src`. Never fails; the NIC holds
  /// packets until the router's local port has room. `now` is the current
  /// cycle at the caller (express timing is anchored to it; the hop-by-hop
  /// path ignores it).
  void send(Packet&& p, Cycle now);

  /// Builds a packet and queues it. `payload` may be null; `kind` tags it
  /// for the receiving endpoint.
  void send(CoreId src, CoreId dst, MsgClass cls, std::uint32_t size_bytes,
            Cycle now, void* payload = nullptr,
            PayloadKind kind = PayloadKind::kNone);

  void tick(Cycle now) override;

  const TrafficStats& stats() const { return stats_; }
  TrafficStats& stats() { return stats_; }
  const ExpressPerf& express_perf() const { return xperf_; }

  /// True when no packet is anywhere in the network (for drain tests).
  bool idle() const { return in_flight_ == 0; }

  /// Arms the mesh fault domain (cfg.mesh must be enabled): registers
  /// two injector wires per directed link, guards every transfer, and
  /// points the routers at the domain's hooks. Express fast-forwarding
  /// is declined entirely while the domain is armed (faulted routes are
  /// not analytically rigid) and the mesh never sleeps, so scripted
  /// kills and retransmission timers fire on exact cycles. Call before
  /// the first tick.
  void enable_fault_domain(const FaultConfig& cfg);
  bool fault_domain_enabled() const { return fault_ != nullptr; }
  /// Closes the domain's ledger and returns its counters (domain must
  /// be armed).
  fault::FaultStats finalize_fault_stats();
  /// One-line dead-link list for SimError messages ("none"/"off").
  std::string fault_context() const;
  /// Multi-line mesh state dump for hang reports: per-router occupancy,
  /// NIC backlog, in-flight census, and (when armed) the fault domain's
  /// dead links and busy guards.
  std::string debug_dump() const;

  /// Minimal hop distance between two tiles.
  std::uint32_t hop_distance(CoreId a, CoreId b) const;

  /// Serializes the whole network: traffic/express counters, sequence
  /// counter, NIC outboxes, every router's queues, and the active
  /// express flights (kept virtual — saving must not perturb the
  /// continuing run, so flights are written as their analytic
  /// trajectories, payloads drained to portable form via `save_payload`).
  void save(ckpt::ArchiveWriter& a, PayloadSaver save_payload) const;

 private:
  struct Nic {
    /// Per-class outboxes, so a burst in one class cannot head-of-line
    /// block another class at the injection point.
    std::array<common::RingBuffer<Packet>, kNumMsgClasses> outbox;
  };

  /// One express-scheduled packet. The whole trajectory is derivable:
  /// the packet sits in the source tile's local FIFO at cycle `inject`,
  /// is forwarded by the k-th router on its XY route at
  /// `inject + 1 + k * (router_latency + link_latency)`, and reaches the
  /// destination sink at `arrival`.
  struct Flight {
    Packet pkt;
    Cycle inject = 0;
    Cycle arrival = 0;
    std::uint32_t hops = 0;  ///< Manhattan distance (route has hops+1 switches)
  };

  /// Stamps the per-source-tile sequence number: tile T's k-th
  /// injection gets the same seq whatever the other tiles did.
  void stamp_seq(Packet& p);

  /// The cycle at which a packet handed to the mesh "now" would be
  /// injected by the NIC drain: the mesh's next tick.
  Cycle next_tick_at(Cycle now) const;
  /// True when the physical fabric (outboxes + router queues) is empty —
  /// the standing invariant while any express flight is active.
  bool fabric_empty() const { return in_flight_ == express_.size(); }

  /// Attempts to schedule `p` on the express path; on success takes
  /// ownership and arms the delivery wake. May materialize all active
  /// flights (and then return false) when a conflict is found.
  bool try_express(Packet& p, Cycle now);
  /// True if the candidate trajectory collides with any active flight
  /// (output-port reuse, same-cycle FIFO release, or queue overflow).
  bool route_conflicts(const Flight& cand) const;
  /// Walks a flight's XY route: fn(k, tile, in_dir, out_dir, fwd_cycle)
  /// for k = 0..hops, where fwd_cycle is when router `tile` forwards it.
  template <typename Fn>
  void walk_route(const Flight& f, Fn&& fn) const;

  /// Demotes every active flight into the router queues at exactly the
  /// occupancy the hop-by-hop path would show at the mesh's next tick,
  /// crediting the hops already performed. Called before any physical
  /// send can follow express traffic.
  void materialize_all(Cycle now);
  /// Delivers flights whose arrival cycle has been reached.
  void deliver_due_express(Cycle now);

  std::uint32_t width_;
  NocConfig cfg_;
  TrafficStats stats_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<Nic> nics_;
  /// Worklists, by tile: NICs with a non-empty outbox, and routers that
  /// may hold packets (every occupied router is listed; a listed router
  /// may be idle until its next tick drops it). Derived state, never
  /// serialized.
  common::ActiveSet backlogged_nics_;
  common::ActiveSet busy_routers_;
  /// The same in-flight-tracking sinks the routers hold; express
  /// delivery ejects through these without touching a router.
  std::vector<Router::Sink> sinks_;
  std::vector<Flight> express_;  ///< active flights, in send order
  ExpressPerf xperf_;
  /// Per-source-tile sequence streams (see stamp_seq); serialized.
  std::vector<std::uint64_t> tile_seq_;
  Cycle last_tick_ = kNoCycle;
  /// Packets anywhere in the network (NIC outboxes + router queues +
  /// express flights); while the physical part is zero the mesh sleeps
  /// and skipped cycles fold into catch_up().
  std::uint64_t in_flight_ = 0;
  // Scratch buffers for materialize/deliver (reused; no steady-state
  // allocation).
  struct Placement {
    std::uint32_t tile = 0;
    Dir in = Dir::kLocal;
    bool ejection = false;  ///< true: local_out_; false: input FIFO
    MsgClass cls = MsgClass::kRequest;
    Cycle ready = 0;
    std::size_t flight = 0;
  };
  std::vector<Placement> placements_;
  std::vector<std::size_t> due_;
  std::vector<Flight> delivering_;
  /// Mesh fault domain (null in faults-off runs: every baseline path is
  /// byte-identical to a build without the feature).
  std::unique_ptr<MeshFaultDomain> fault_;
};

}  // namespace glocks::noc
