#include "noc/mesh.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "ckpt/archive.hpp"
#include "common/check.hpp"
#include "noc/fault_domain.hpp"

namespace glocks::noc {

Mesh::Mesh(std::uint32_t num_tiles, std::uint32_t width, NocConfig cfg)
    : width_(width),
      cfg_(cfg),
      nics_(num_tiles),
      backlogged_nics_(num_tiles),
      busy_routers_(num_tiles),
      sinks_(num_tiles),
      tile_seq_(num_tiles, 0) {
  GLOCKS_CHECK(width_ >= 1, "mesh width must be positive");
  const RouterTiming timing{cfg_.router_latency, cfg_.link_latency,
                            cfg_.input_queue_depth};
  routers_.reserve(num_tiles);
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    routers_.push_back(std::make_unique<Router>(
        t % width_, t / width_, width_, timing, stats_, busy_routers_));
  }
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    const std::uint32_t x = t % width_;
    const std::uint32_t y = t / width_;
    auto& r = *routers_[t];
    if (x + 1 < width_ && t + 1 < num_tiles) r.connect(Dir::kEast,
                                                       *routers_[t + 1]);
    if (x > 0) r.connect(Dir::kWest, *routers_[t - 1]);
    if (t + width_ < num_tiles) r.connect(Dir::kSouth, *routers_[t + width_]);
    if (y > 0) r.connect(Dir::kNorth, *routers_[t - width_]);
  }
}

Mesh::~Mesh() = default;

void Mesh::enable_fault_domain(const FaultConfig& cfg) {
  GLOCKS_CHECK(cfg.mesh.enabled, "mesh fault domain enabled without config");
  GLOCKS_CHECK(fault_ == nullptr, "mesh fault domain enabled twice");
  GLOCKS_CHECK(last_tick_ == kNoCycle && in_flight_ == 0,
               "mesh fault domain must be armed before the first tick");
  fault_ = std::make_unique<MeshFaultDomain>(cfg.mesh, cfg.seed, cfg_,
                                             num_tiles(), width_, routers_,
                                             stats_);
  for (auto& r : routers_) r->set_fault_model(fault_.get());
}

fault::FaultStats Mesh::finalize_fault_stats() {
  GLOCKS_CHECK(fault_ != nullptr, "finalize_fault_stats without the domain");
  return fault_->finalize_stats();
}

std::string Mesh::fault_context() const {
  return fault_ == nullptr ? "off" : fault_->context();
}

std::string Mesh::debug_dump() const {
  std::ostringstream oss;
  oss << "  in flight " << in_flight_ << " (" << express_.size()
      << " express)\n";
  for (std::uint32_t t = 0; t < nics_.size(); ++t) {
    std::size_t backlog = 0;
    for (const auto& outbox : nics_[t].outbox) backlog += outbox.size();
    if (backlog == 0 && routers_[t]->idle()) continue;
    oss << "  tile " << t << ": nic backlog " << backlog
        << ", router occupancy " << routers_[t]->occupancy() << "\n";
  }
  if (fault_ != nullptr) oss << fault_->debug_dump();
  return oss.str();
}

void Mesh::set_sink(CoreId tile, Router::Sink sink) {
  GLOCKS_CHECK(tile < routers_.size(), "sink tile out of range");
  // Wrap the sink so ejection keeps the in-flight census exact — the
  // dormancy decision below depends on it. The router ejects through the
  // same wrapper, so hop-by-hop and express deliveries are accounted
  // identically.
  sinks_[tile] = [this, s = std::move(sink)](Packet&& p) {
    --in_flight_;
    s(std::move(p));
  };
  routers_[tile]->set_sink(
      [this, tile](Packet&& p) { sinks_[tile](std::move(p)); });
}

void Mesh::send(Packet&& p, Cycle now) {
  GLOCKS_CHECK(p.src < nics_.size() && p.dst < nics_.size(),
               "packet endpoints out of range: " << p.src << "->" << p.dst);
  GLOCKS_CHECK(p.src != p.dst,
               "same-tile messages must bypass the mesh (tile " << p.src
                                                                << ")");
  stamp_seq(p);
  const bool express = try_express(p, now);
  ++in_flight_;
  if (express) return;  // try_express took ownership and armed the wake
  backlogged_nics_.insert(p.src);
  auto& nic = nics_[p.src];
  nic.outbox[static_cast<std::size_t>(p.cls)].push_back(std::move(p));
  wake();  // a dormant mesh has new work (no-op when already active)
}

void Mesh::stamp_seq(Packet& p) {
  // Pooled payload nodes are reused, but a Packet's identity is its seq,
  // stamped fresh for every injection — tracing stays unambiguous as
  // long as a stream cannot wrap within a run. Streams are per source
  // tile (tile in the top bits), so a seq names its source tile's k-th
  // injection.
#ifndef NDEBUG
  GLOCKS_CHECK(tile_seq_[p.src] < (std::uint64_t{1} << 40),
               "Packet::seq stream exhausted for tile " << p.src);
#endif
  p.seq = (static_cast<std::uint64_t>(p.src) << 40) | tile_seq_[p.src]++;
}

void Mesh::send(CoreId src, CoreId dst, MsgClass cls,
                std::uint32_t size_bytes, Cycle now, void* payload,
                PayloadKind kind) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.cls = cls;
  p.size_bytes = size_bytes;
  p.payload = payload;
  p.kind = kind;
  send(std::move(p), now);
}

Cycle Mesh::next_tick_at(Cycle now) const {
  // Registered: the engine knows whether this cycle's mesh tick already
  // ran (the serial N -> N+1 visibility rule). Manually-driven meshes
  // (unit tests) are assumed to be ticked every cycle, so the answer
  // follows from whether tick(now) has happened yet.
  if (registered()) return next_tick_cycle();
  return last_tick_ == now ? now + 1 : now;
}

template <typename Fn>
void Mesh::walk_route(const Flight& f, Fn&& fn) const {
  const Cycle hop = cfg_.router_latency + cfg_.link_latency;
  std::uint32_t x = f.pkt.src % width_;
  std::uint32_t y = f.pkt.src / width_;
  const std::uint32_t dx = f.pkt.dst % width_;
  const std::uint32_t dy = f.pkt.dst / width_;
  Dir in = Dir::kLocal;
  for (std::uint32_t k = 0;; ++k) {
    // Same XY dimension-order decision as Router::route.
    Dir out;
    if (dx > x) {
      out = Dir::kEast;
    } else if (dx < x) {
      out = Dir::kWest;
    } else if (dy > y) {
      out = Dir::kSouth;
    } else if (dy < y) {
      out = Dir::kNorth;
    } else {
      out = Dir::kLocal;
    }
    fn(k, y * width_ + x, in, out, f.inject + 1 + k * hop);
    if (out == Dir::kLocal) break;
    switch (out) {
      case Dir::kEast: ++x; break;
      case Dir::kWest: --x; break;
      case Dir::kSouth: ++y; break;
      case Dir::kNorth: --y; break;
      case Dir::kLocal: break;
    }
    in = opposite(out);
  }
}

bool Mesh::route_conflicts(const Flight& cand) const {
  // A flight's trajectory is rigid, so two flights coexist exactly when
  // no router resource is claimed twice: (a) no router is made busy by
  // two flights on the same cycle — busy cycles are a flight's switch
  // traversals plus its final local delivery, and the round-robin
  // rotation is credited one step per busy cycle per router, so a shared
  // (tile, cycle) would double-count a rotation the serial scan performs
  // once; (b) a FIFO never holds more than input_queue_depth entries,
  // checked by counting window overlaps, which over-approximates peak
  // occupancy. Over-approximation only causes a spurious decline, and
  // the hop-by-hop path is always exact.
  constexpr std::size_t kMaxRoute = 128;
  if (cand.hops + 1 > kMaxRoute) return true;  // decline absurd routes
  const Cycle hop = cfg_.router_latency + cfg_.link_latency;
  std::array<std::uint32_t, kMaxRoute> occ{};
  bool conflict = false;
  for (const Flight& b : express_) {
    walk_route(cand, [&](std::uint32_t ka, std::uint32_t ta, Dir ina,
                         Dir outa, Cycle ca) {
      (void)outa;
      if (conflict) return;
      const Cycle ea = ka == 0 ? cand.inject : ca - hop;  // FIFO entry
      walk_route(b, [&](std::uint32_t kb, std::uint32_t tb, Dir inb,
                        Dir outb, Cycle cb) {
        (void)outb;
        if (conflict || ta != tb) return;
        if (ca == cb) {  // same router busy on the same cycle
          conflict = true;
          return;
        }
        const bool same_queue = ina == inb && cand.pkt.cls == b.pkt.cls;
        if (same_queue) {
          const Cycle eb = kb == 0 ? b.inject : cb - hop;
          if (ea < cb && eb < ca &&  // residency windows [e, c) overlap
              ++occ[ka] >= cfg_.input_queue_depth) {
            conflict = true;
          }
        }
      });
      // b's final delivery makes its destination router busy too.
      if (!conflict && ta == b.pkt.dst && ca == b.arrival) conflict = true;
    });
    if (!conflict) {
      walk_route(b, [&](std::uint32_t kb, std::uint32_t tb, Dir inb,
                        Dir outb, Cycle cb) {
        (void)kb;
        (void)inb;
        (void)outb;
        if (tb == cand.pkt.dst && cb == cand.arrival) conflict = true;
      });
      if (cand.pkt.dst == b.pkt.dst && cand.arrival == b.arrival) {
        conflict = true;
      }
    }
    if (conflict) break;
  }
  return conflict;
}

bool Mesh::try_express(Packet& p, Cycle now) {
  if (fault_ != nullptr) {
    // Faulted routes are not analytically rigid (fates, retransmissions
    // and detours all depend on the cycle-by-cycle state), so the fault
    // domain declines every flight — timing-neutral, because the
    // hop-by-hop path is always exact.
    ++xperf_.declined;
    return false;
  }
  if (!cfg_.express_routes) {
    ++xperf_.declined;
    return false;
  }
  // Express flights exist only while the physical fabric is completely
  // empty; the first send that cannot be proven conflict-free demotes
  // every flight and the fabric continues hop-by-hop.
  if (!fabric_empty()) {
    ++xperf_.declined;
    return false;
  }
  Flight f;
  f.pkt = p;  // Packet is trivially copyable; ownership resolves below
  f.inject = next_tick_at(now);
  f.hops = hop_distance(p.src, p.dst);
  // Injected at `inject`, first forwarded one cycle later, then one
  // switch every router_latency + link_latency, and router_latency more
  // from the last switch to the sink — the zero-load latency formula.
  const Cycle hop = cfg_.router_latency + cfg_.link_latency;
  f.arrival = f.inject + 1 + f.hops * hop + cfg_.router_latency;
  if (route_conflicts(f)) {
    materialize_all(now);
    ++xperf_.declined;
    return false;
  }
  const Cycle arrival = f.arrival;
  express_.push_back(std::move(f));
  wake_at(arrival);  // the only tick this delivery needs
  return true;
}

void Mesh::materialize_all(Cycle now) {
  if (express_.empty()) return;
  const Cycle t_next = next_tick_at(now);
  placements_.clear();
  for (std::size_t fi = 0; fi < express_.size(); ++fi) {
    const Flight& f = express_[fi];
    GLOCKS_CHECK(f.arrival >= t_next, "stale express flight never delivered");
    // Find where the hop-by-hop path would hold this packet at t_next:
    // the FIFO whose release cycle is the first at or after t_next, or
    // the destination's ejection queue if it is past its last switch.
    bool placed = false;
    std::uint32_t hops_done = 0;
    walk_route(f, [&](std::uint32_t k, std::uint32_t tile, Dir in, Dir out,
                      Cycle fwd) {
      (void)out;
      if (placed) return;
      if (fwd >= t_next) {
        placements_.push_back(
            Placement{tile, in, /*ejection=*/false, f.pkt.cls, fwd, fi});
        placed = true;
        hops_done = k;  // switches k..hops still happen physically
      } else {
        // This switch already happened on the virtual timeline: the
        // router saw a ready head on cycle `fwd` (nothing else was in
        // the fabric), so credit its round-robin rotation. Switches
        // k..hops advance it live as the re-seeded entries mature.
        routers_[tile]->credit_busy_tick();
      }
    });
    if (!placed) {
      placements_.push_back(Placement{f.pkt.dst, Dir::kLocal,
                                      /*ejection=*/true, f.pkt.cls, f.arrival,
                                      fi});
      hops_done = f.hops + 1;  // every switch already credited below
    }
    // Credit exactly the traversals the physical path would have
    // recorded by now; the router loop records the rest as they happen.
    stats_.record_injection(f.pkt.cls);
    for (std::uint32_t k = 0; k < hops_done; ++k) {
      stats_.record_hop(f.pkt.cls, f.pkt.size_bytes);
    }
  }
  // Within one FIFO, entry order equals release order (both paths shift
  // by the same per-hop latency), so seed each queue in ready order.
  // The ejection queue is one FIFO shared by every class — its physical
  // push order is forward order, i.e. ready order, never class order.
  std::sort(placements_.begin(), placements_.end(),
            [](const Placement& a, const Placement& b) {
              if (a.tile != b.tile) return a.tile < b.tile;
              if (a.ejection != b.ejection) return a.ejection < b.ejection;
              if (!a.ejection) {
                if (a.in != b.in) return a.in < b.in;
                if (a.cls != b.cls) return a.cls < b.cls;
              }
              if (a.ready != b.ready) return a.ready < b.ready;
              return a.flight < b.flight;  // send order breaks exact ties
            });
  for (const Placement& pl : placements_) {
    Packet pkt = express_[pl.flight].pkt;
    if (pl.ejection) {
      routers_[pl.tile]->place_local(std::move(pkt), pl.ready);
    } else {
      routers_[pl.tile]->place(pl.in, pl.cls, std::move(pkt), pl.ready);
    }
  }
  xperf_.materialized += express_.size();
  express_.clear();
  wake();  // the fabric is occupied again; ticks must resume
}

void Mesh::deliver_due_express(Cycle now) {
  if (express_.empty()) return;
  due_.clear();
  for (std::size_t i = 0; i < express_.size(); ++i) {
    if (express_[i].arrival <= now) due_.push_back(i);
  }
  if (due_.empty()) return;
  // Eject in (arrival, tile) order — the order the router loop would
  // have used — and remove the flights from the ledger before any sink
  // runs, so a send made from inside a sink sees a consistent state.
  std::sort(due_.begin(), due_.end(), [this](std::size_t a, std::size_t b) {
    if (express_[a].arrival != express_[b].arrival) {
      return express_[a].arrival < express_[b].arrival;
    }
    return express_[a].pkt.dst < express_[b].pkt.dst;
  });
  delivering_.clear();
  for (const std::size_t i : due_) {
    delivering_.push_back(std::move(express_[i]));
  }
  // Compact express_: drop the moved-out flights, keep send order.
  std::size_t kept = 0;
  std::size_t next_due = 0;
  std::sort(due_.begin(), due_.end());
  for (std::size_t i = 0; i < express_.size(); ++i) {
    if (next_due < due_.size() && due_[next_due] == i) {
      ++next_due;
      continue;
    }
    express_[kept++] = std::move(express_[i]);
  }
  express_.resize(kept);
  for (Flight& f : delivering_) {
    // The full per-hop accounting, identical to hops+1 switch
    // traversals of the hop-by-hop path (only ever read end-of-run).
    stats_.record_injection(f.pkt.cls);
    for (std::uint32_t k = 0; k <= f.hops; ++k) {
      stats_.record_hop(f.pkt.cls, f.pkt.size_bytes);
    }
    // Credit the round-robin rotations the hop-by-hop path would have
    // performed: one busy cycle per switch traversal (every fwd cycle is
    // in the past — the last one was arrival - router_latency), plus the
    // delivery cycle at the destination. The fabric was physically empty
    // for the flight's whole life and route_conflicts guarantees no two
    // flights share a (tile, cycle), so each credit is exactly one
    // rotation the serial scan performed.
    walk_route(f, [this](std::uint32_t k, std::uint32_t tile, Dir in,
                         Dir out, Cycle fwd) {
      (void)k;
      (void)in;
      (void)out;
      (void)fwd;
      routers_[tile]->credit_busy_tick();
    });
    routers_[f.pkt.dst]->credit_busy_tick();
  }
  for (Flight& f : delivering_) {
    const CoreId dst = f.pkt.dst;
    GLOCKS_CHECK(sinks_[dst], "tile " << dst << " has no sink");
    ++xperf_.hits;
    sinks_[dst](std::move(f.pkt));
  }
  delivering_.clear();
}

void Mesh::tick(Cycle now) {
  if (last_tick_ != kNoCycle) {
    GLOCKS_CHECK(now > last_tick_, "mesh ticked out of order");
    // Skipped cycles need no repair: an idle router tick has no
    // architectural effect (the round-robin pointer only moves on
    // ready-head cycles), so a dormant span folds to nothing — as does
    // every idle router left off this tick's walk.
  }
  last_tick_ = now;
  // Fault-domain work precedes arbitration: scripted kills and guard
  // progression (ack completions, retransmission watchdogs, link
  // deaths) must be visible to this cycle's router scan. All of it runs
  // here in a fixed order, so faulted runs stay bit-identical across
  // repeats, --jobs, and restore.
  if (fault_ != nullptr) fault_->advance(now);
  // NICs drain into routers first so an injection made during cycle N-1
  // (endpoint tick) can enter the router fabric at cycle N. Classes
  // drain independently into their own virtual channels; a NIC whose
  // local FIFO is full keeps its place on the list.
  backlogged_nics_.for_each([&](std::size_t t) {
    bool drained = true;
    for (auto& outbox : nics_[t].outbox) {
      while (!outbox.empty()) {
        if (!routers_[t]->inject(std::move(outbox.front()), now)) break;
        outbox.pop_front();
      }
      drained = drained && outbox.empty();
    }
    if (drained) backlogged_nics_.erase(t);
  });
  // Express deliveries eject here, matching the phase where the router
  // loop hands packets to sinks (after the NIC drain, so a send made
  // from inside a sink is injected next cycle on either path).
  deliver_due_express(now);
  // Occupied routers in tile order. One that gains a packet during the
  // walk below the cursor (a westward or northward forward) waits for
  // the next tick, exactly as a loop over every router would treat it;
  // that packet is not ready before then anyway.
  busy_routers_.for_each([&](std::size_t t) {
    Router& r = *routers_[t];
    r.tick(now);
    if (r.idle()) busy_routers_.erase(t);
  });
  // A non-empty fabric may move a packet any cycle (and backpressure
  // resolution has no wake signal), so only an empty one may sleep.
  // Express flights don't count: each carries its own armed wake. With
  // the fault domain armed the mesh never sleeps: scripted kills and
  // retransmission timers must fire on their exact cycles.
  if (fault_ == nullptr && fabric_empty()) sleep();
}

void Mesh::save(ckpt::ArchiveWriter& a, PayloadSaver save_payload) const {
  for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
    const auto cls = static_cast<MsgClass>(c);
    a.u64(stats_.bytes(cls));
    a.u64(stats_.packets(cls));
    a.u64(stats_.hops(cls));
  }
  a.u64(xperf_.hits);
  a.u64(xperf_.declined);
  a.u64(xperf_.materialized);
  for (const std::uint64_t s : tile_seq_) a.u64(s);
  a.u64(last_tick_);
  a.u64(in_flight_);
  a.u64(nics_.size());
  for (const Nic& nic : nics_) {
    for (const auto& outbox : nic.outbox) {
      a.u64(outbox.size());
      for (std::size_t i = 0; i < outbox.size(); ++i) {
        save_packet(a, outbox[i], save_payload);
      }
    }
  }
  a.u64(express_.size());
  for (const Flight& f : express_) {
    save_packet(a, f.pkt, save_payload);
    a.u64(f.inject);
    a.u64(f.arrival);
    a.u32(f.hops);
  }
  for (const auto& r : routers_) r->save(a, save_payload);
  // The fault domain's section is gated on its presence; the run spec in
  // the checkpoint metadata decides it identically on both sides.
  if (fault_ != nullptr) fault_->save(a);
}

std::uint32_t Mesh::hop_distance(CoreId a, CoreId b) const {
  const auto ax = static_cast<int>(a % width_), ay = static_cast<int>(a / width_);
  const auto bx = static_cast<int>(b % width_), by = static_cast<int>(b / width_);
  return static_cast<std::uint32_t>(std::abs(ax - bx) + std::abs(ay - by));
}

}  // namespace glocks::noc
