#include "gline/framed_link.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace glocks::gline {

namespace {

using fault::FaultStats;

std::uint8_t encode(Sym s, std::uint8_t seq) {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(s) |
                                   (seq << 2));
}

std::uint32_t pulses_for(std::uint8_t payload) {
  // Start + stop pulses plus one pulse per set payload bit; the energy
  // model charges each pulse like a baseline signal.
  return 2 + static_cast<std::uint32_t>(
                 std::popcount(static_cast<unsigned>(payload)));
}

}  // namespace

const char* to_string(Sym s) {
  switch (s) {
    case Sym::kReq: return "REQ";
    case Sym::kRel: return "REL";
    case Sym::kToken: return "TOKEN";
    case Sym::kAck: return "ACK";
  }
  return "?";
}

FramedChannel::FramedChannel(Cycle latency, bool is_local,
                             const FaultConfig& cfg,
                             fault::FaultInjector* injector,
                             GlineStats* stats)
    : up_(latency, is_local),
      down_(latency, is_local),
      injector_(injector),
      stats_(stats),
      backoff_cap_(cfg.backoff_cap),
      max_retries_(cfg.max_retries) {
  GLOCKS_CHECK(injector_ != nullptr && stats_ != nullptr,
               "framed channel needs an injector and a stats sink");
  up_.attach_fault(injector_);
  down_.attach_fault(injector_);
  // The watchdog must not fire on a fault-free round trip: data frame
  // (latency + frame + worst-case injected delay) plus the ACK coming
  // back, with slack for the receiver's one-cycle turnaround and an
  // ACK-priority wait.
  const Cycle round_trip =
      2 * (latency + kFrameCycles + cfg.max_delay) + 2 * kFrameCycles + 4;
  base_timeout_ = std::max(cfg.watchdog_timeout, round_trip);
  if (backoff_cap_ < base_timeout_) backoff_cap_ = base_timeout_;
}

std::uint64_t& FramedChannel::counter(
    std::uint64_t fault::FaultStats::* field) {
  return injector_->counter(field);
}

Cycle FramedChannel::timeout_for(std::uint32_t retries) const {
  if (retries >= 16) return backoff_cap_;
  return std::min(base_timeout_ << retries, backoff_cap_);
}

void FramedChannel::send(int from_end, Sym s) {
  GLOCKS_CHECK(s != Sym::kAck, "ACKs are link-layer internal");
  tx_[from_end].outq.push_back(s);
}

bool FramedChannel::recv(int end, Sym& out) {
  auto& inbox = rx_[1 - end].inbox;
  if (inbox.empty()) return false;
  out = inbox.front();
  inbox.pop_front();
  return true;
}

void FramedChannel::deliver(int dir, const Frame& f, Cycle now) {
  const auto type = static_cast<Sym>(f.payload & 0b11);
  const auto seq = static_cast<std::uint8_t>((f.payload >> 2) & 1);
  if (type == Sym::kAck) {
    // An ACK on wire `dir` acknowledges the opposite data direction.
    Tx& tx = tx_[1 - dir];
    if (tx.in_flight && seq == tx.seq) {
      // Delivery confirmed. Drops among superseded attempts (or lost
      // ACKs) that no watchdog ever blamed were absorbed by the ARQ.
      for (auto ev : tx.pending_events) injector_->on_tolerated(ev);
      tx.pending_events.clear();
      tx.in_flight = false;
      tx.resend = false;
      tx.outq.pop_front();
      tx.seq ^= 1;
      tx.retries = 0;
      tx.retry_at = kNoCycle;
    }
    return;  // stale ACK: the retransmit it answers is already resolved
  }
  Rx& rx = rx_[dir];
  if (static_cast<int>(seq) == rx.last_seq) {
    // The original got through but its ACK did not: filter, re-ACK.
    counter(&FaultStats::duplicate_frames)++;
  } else {
    rx.last_seq = seq;
    rx.inbox.push_back(type);
  }
  rx.ack_pending = true;
  rx.ack_seq = seq;
  (void)now;
}

void FramedChannel::start_frame(int w, Sym s, std::uint8_t seq,
                                int data_dir, Cycle now) {
  const std::uint8_t payload = encode(s, seq);
  const auto fate =
      wire(w).send_frame(now, payload, pulses_for(payload), kFrameCycles);
  busy_until_[w] = now + kFrameCycles;
  if (wire(w).is_gline()) {
    stats_->signals += pulses_for(payload);
  } else {
    ++stats_->local_flags;
  }
  if (fate.sender_event >= 0) {
    // Pin the drop on the ARQ instance whose watchdog will notice it:
    // the data direction for data frames, the acknowledged direction for
    // ACK frames (its sender is the one left waiting).
    tx_[data_dir].pending_events.push_back(fate.sender_event);
  }
}

void FramedChannel::tick(Cycle now) {
  // ---- receive ----
  for (int w = 0; w < 2; ++w) {
    if (auto f = wire(w).poll_frame(now)) {
      if (f->delay_event >= 0) injector_->on_tolerated(f->delay_event);
      if (f->garbled) {
        injector_->on_rx_discard(f->garble_event, now);
      } else {
        deliver(w, *f, now);
      }
    }
  }
  if (dead_) return;

  // ---- watchdogs ----
  for (int d = 0; d < 2; ++d) {
    Tx& tx = tx_[d];
    if (!tx.in_flight || now < tx.retry_at) continue;
    counter(&FaultStats::watchdog_timeouts)++;
    if (tx.pending_events.empty()) {
      // Nothing was actually lost — a delayed frame or ACK outlasted the
      // timer. The retransmit is harmless (duplicate-filtered).
      counter(&FaultStats::spurious_retransmissions)++;
    } else {
      injector_->on_detected(tx.pending_events, now);
      tx.pending_events.clear();
    }
    ++tx.retries;
    if (tx.retries > max_retries_) {
      dead_ = true;
      counter(&FaultStats::link_failures)++;
      if (up_.fault_attached()) injector_->on_wire_dead(up_.fault_id(), now);
      if (down_.fault_attached()) {
        injector_->on_wire_dead(down_.fault_id(), now);
      }
      return;
    }
    tx.resend = true;
    tx.retry_at = kNoCycle;  // re-armed when the wire frees up
  }

  // ---- transmit (per wire; ACKs beat data so the peer's watchdog stays
  // quiet) ----
  for (int w = 0; w < 2; ++w) {
    if (busy_until_[w] > now) continue;
    Rx& ack_src = rx_[1 - w];  // receiver at end w acks direction 1 - w
    if (ack_src.ack_pending) {
      start_frame(w, Sym::kAck, ack_src.ack_seq, /*data_dir=*/1 - w, now);
      ack_src.ack_pending = false;
      continue;
    }
    Tx& tx = tx_[w];
    if (tx.outq.empty()) continue;
    if (tx.in_flight && !tx.resend) continue;
    if (tx.in_flight) counter(&FaultStats::retransmissions)++;
    tx.in_flight = true;
    tx.resend = false;
    start_frame(w, tx.outq.front(), tx.seq, /*data_dir=*/w, now);
    tx.retry_at = now + timeout_for(tx.retries);
  }
}

bool FramedChannel::idle() const {
  for (int d = 0; d < 2; ++d) {
    if (!tx_[d].outq.empty() || tx_[d].in_flight) return false;
    if (!rx_[d].inbox.empty() || rx_[d].ack_pending) return false;
  }
  return up_.idle() && down_.idle();
}

// ---- checkpoint ----

void FramedChannel::save(ckpt::ArchiveWriter& a) const {
  up_.save(a);
  down_.save(a);
  for (int e = 0; e < 2; ++e) a.u64(busy_until_[e]);
  for (int e = 0; e < 2; ++e) {
    const Tx& tx = tx_[e];
    a.u32(static_cast<std::uint32_t>(tx.outq.size()));
    for (Sym s : tx.outq) a.u8(static_cast<std::uint8_t>(s));
    a.b(tx.in_flight);
    a.b(tx.resend);
    a.u8(tx.seq);
    a.u64(tx.retry_at);
    a.u32(tx.retries);
    a.u32(static_cast<std::uint32_t>(tx.pending_events.size()));
    for (std::int32_t ev : tx.pending_events) a.i64(ev);
  }
  for (int e = 0; e < 2; ++e) {
    const Rx& rx = rx_[e];
    a.i64(rx.last_seq);
    a.u32(static_cast<std::uint32_t>(rx.inbox.size()));
    for (Sym s : rx.inbox) a.u8(static_cast<std::uint8_t>(s));
    a.b(rx.ack_pending);
    a.u8(rx.ack_seq);
  }
  a.b(dead_);
}

}  // namespace glocks::gline
