#include "noc/router.hpp"

#include "ckpt/archive.hpp"
#include "common/check.hpp"

namespace glocks::noc {

Router::Router(std::uint32_t x, std::uint32_t y, std::uint32_t mesh_w,
               RouterTiming timing, TrafficStats& stats)
    : x_(x), y_(y), mesh_w_(mesh_w), timing_(timing), stats_(&stats) {}

bool Router::inject(Packet&& p, Cycle now) {
  auto& q = in_[idx(Dir::kLocal)][static_cast<std::size_t>(p.cls)];
  if (q.size() >= timing_.input_queue_depth) return false;
  stats_->record_injection(p.cls);
  q.push_back(Timed{now + 1, std::move(p)});
  ++occupancy_;
  return true;
}

bool Router::can_accept(Dir in, MsgClass cls) const {
  return in_[idx(in)][static_cast<std::size_t>(cls)].size() <
         timing_.input_queue_depth;
}

void Router::accept(Dir in, Packet&& p, Cycle ready) {
  auto& q = in_[idx(in)][static_cast<std::size_t>(p.cls)];
  GLOCKS_CHECK(q.size() < timing_.input_queue_depth,
               "router (" << x_ << "," << y_ << ") port " << idx(in)
                          << " overflow");
  q.push_back(Timed{ready, std::move(p)});
  ++occupancy_;
}

void Router::place(Dir in, MsgClass cls, Packet&& p, Cycle ready) {
  auto& q = in_[idx(in)][static_cast<std::size_t>(cls)];
  GLOCKS_CHECK(q.size() < timing_.input_queue_depth,
               "router (" << x_ << "," << y_ << ") port " << idx(in)
                          << " overflow on express materialization");
  q.push_back(Timed{ready, std::move(p)});
  ++occupancy_;
}

void Router::place_local(Packet&& p, Cycle ready) {
  local_out_.push_back(Timed{ready, std::move(p)});
  ++occupancy_;
}

const Packet& Router::peek_head(Dir in, MsgClass cls) const {
  const auto& q = in_[idx(in)][static_cast<std::size_t>(cls)];
  GLOCKS_CHECK(!q.empty(), "router (" << x_ << "," << y_
                                      << ") peek on empty queue");
  return q.front().pkt;
}

Packet Router::take_head(Dir in, MsgClass cls) {
  auto& q = in_[idx(in)][static_cast<std::size_t>(cls)];
  GLOCKS_CHECK(!q.empty(), "router (" << x_ << "," << y_
                                      << ") take on empty queue");
  Packet p = std::move(q.front().pkt);
  q.pop_front();
  --occupancy_;
  return p;
}

Dir Router::route(std::uint32_t dst_x, std::uint32_t dst_y) const {
  // XY dimension-order: resolve X first, then Y. Deadlock-free on a mesh.
  if (dst_x > x_) return Dir::kEast;
  if (dst_x < x_) return Dir::kWest;
  if (dst_y > y_) return Dir::kSouth;
  if (dst_y < y_) return Dir::kNorth;
  return Dir::kLocal;
}

void Router::forward(Dir out, Packet&& p, Cycle now) {
  // Every switch traversal counts towards the Figure 9 byte totals.
  stats_->record_hop(p.cls, p.size_bytes);
  if (out == Dir::kLocal) {
    local_out_.push_back(Timed{now + timing_.router_latency, std::move(p)});
    ++occupancy_;
    return;
  }
  Router* n = neighbors_[idx(out)];
  GLOCKS_CHECK(n != nullptr, "router (" << x_ << "," << y_
                                        << ") forwards to missing neighbor");
  n->accept(opposite(out), std::move(p),
            now + timing_.router_latency + timing_.link_latency);
}

void Router::tick(Cycle now) {
  // Empty-router fast path: a tick with nothing resident has no
  // architectural effect at all — the round-robin pointer only rotates
  // on cycles where arbitration saw a ready head, so idle cycles can be
  // skipped without changing a single byte.
  if (occupancy_ == 0) return;
  bool busy = false;

  // Deliver matured local packets (at most one per cycle: the local
  // ejection port has unit bandwidth like every other port).
  if (!local_out_.empty() && local_out_.front().ready <= now) {
    GLOCKS_CHECK(sink_, "router (" << x_ << "," << y_ << ") has no sink");
    busy = true;
    Packet p = std::move(local_out_.front().pkt);
    local_out_.pop_front();
    --occupancy_;
    sink_(std::move(p));
  }

  // Arbitration: each output port accepts at most one packet this cycle;
  // each (input port, virtual channel) releases at most its head. The
  // scan starts at a rotating offset over the port x class grid, so no
  // port or class can starve another.
  bool out_used[kNumDirs] = {};
  for (std::size_t scan = 0; scan < kSlots; ++scan) {
    const std::size_t slot = (rr_ + scan) % kSlots;
    const std::size_t i = slot / kNumMsgClasses;
    const std::size_t vc = slot % kNumMsgClasses;
    auto& q = in_[i][vc];
    if (q.empty() || q.front().ready > now) continue;
    busy = true;  // a ready head was arbitrated, even if it ends up held
    Packet& head = q.front().pkt;
    Dir out;
    if (fault_ != nullptr) {
      const auto in_dir = static_cast<Dir>(i);
      const auto cls = static_cast<MsgClass>(vc);
      // A head with an in-flight, unacknowledged frame stays queued until
      // its link guard resolves (ack, retransmit, or link death).
      if (fault_->head_locked(tile(), in_dir, cls)) continue;
      const std::uint32_t nh = fault_->next_hop(tile(), head.dst);
      if (nh >= kNumDirs) continue;  // destination currently unreachable
      out = static_cast<Dir>(nh);
    } else {
      out = route(head.dst % mesh_w_, head.dst / mesh_w_);
    }
    if (out_used[idx(out)]) continue;
    if (out != Dir::kLocal) {
      if (!neighbors_[idx(out)]->can_accept(opposite(out), head.cls)) {
        continue;  // backpressure: downstream FIFO (same class) full
      }
      if (fault_ != nullptr) {
        // Guarded transfer: at most one unacknowledged frame per
        // (link, class); the guard judges the fate and either moves the
        // packet downstream or leaves it queued for retransmission.
        if (fault_->link_busy(tile(), out, static_cast<MsgClass>(vc))) {
          continue;
        }
        out_used[idx(out)] = true;
        fault_->start_transfer(tile(), out, static_cast<Dir>(i),
                               static_cast<MsgClass>(vc), now);
        continue;
      }
    }
    out_used[idx(out)] = true;
    Packet p = std::move(head);
    q.pop_front();
    --occupancy_;
    forward(out, std::move(p), now);
  }
  if (busy) rr_ = (rr_ + 1) % kSlots;
}

void save_packet(ckpt::ArchiveWriter& a, const Packet& p,
                 PayloadSaver save_payload) {
  a.u32(p.src);
  a.u32(p.dst);
  a.u8(static_cast<std::uint8_t>(p.cls));
  a.u8(static_cast<std::uint8_t>(p.kind));
  a.u32(p.size_bytes);
  a.u64(p.seq);
  save_payload(a, p);
}

void Router::save(ckpt::ArchiveWriter& a, PayloadSaver save_payload) const {
  for (const auto& port : in_) {
    for (const auto& q : port) {
      a.u64(q.size());
      for (std::size_t i = 0; i < q.size(); ++i) {
        a.u64(q[i].ready);
        save_packet(a, q[i].pkt, save_payload);
      }
    }
  }
  a.u64(local_out_.size());
  for (std::size_t i = 0; i < local_out_.size(); ++i) {
    a.u64(local_out_[i].ready);
    save_packet(a, local_out_[i].pkt, save_payload);
  }
  a.u32(rr_);
  a.u32(occupancy_);
}

}  // namespace glocks::noc
