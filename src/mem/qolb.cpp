#include "mem/qolb.hpp"

#include "common/check.hpp"
#include "mem/l1_cache.hpp"  // Transport

namespace glocks::mem {

QolbHome::QolbHome(CoreId tile, Transport& transport,
                   Cycle processing_latency)
    : tile_(tile), transport_(transport), latency_(processing_latency) {}

void QolbHome::deliver(CohMsgPtr msg, Cycle ready) {
  inbox_.push_back(Inbox{ready + latency_, std::move(msg)});
  wake_at(inbox_.back().ready);
}

void QolbHome::send(CoreId dst, CohType type, std::uint32_t lock_id,
                    CoreId requester) {
  CohMsgPtr msg = transport_.make_msg();
  msg->type = type;
  msg->line = lock_id;
  msg->sender = tile_;
  msg->requester = requester;
  transport_.send(tile_, dst, std::move(msg));
}

void QolbHome::tick(Cycle now) {
  while (!inbox_.empty() && inbox_.front().ready <= now) {
    auto msg = std::move(inbox_.front().msg);
    inbox_.pop_front();
    const auto lock_id = static_cast<std::uint32_t>(msg->line);
    LockState& lock = locks_[lock_id];
    switch (msg->type) {
      case CohType::kQolbEnq: {
        ++stats_.enqueues;
        const CoreId newcomer = msg->sender;
        if (!lock.held) {
          lock.held = true;
          lock.tail = newcomer;
          ++stats_.cold_grants;
          send(newcomer, CohType::kQolbGrant, lock_id, newcomer);
        } else {
          // Thread the queue: tell the previous tail who follows it.
          const CoreId prev = lock.tail;
          lock.tail = newcomer;
          GLOCKS_CHECK(prev != newcomer,
                       "core " << newcomer << " re-enqueued on QOLB lock "
                               << lock_id << " it already waits on");
          send(prev, CohType::kQolbSetSucc, lock_id, newcomer);
        }
        break;
      }
      case CohType::kQolbRelHome: {
        ++stats_.home_releases;
        const CoreId releaser = msg->sender;
        GLOCKS_CHECK(lock.held,
                     "QOLB release for free lock " << lock_id);
        if (lock.tail == releaser) {
          // Nobody queued behind: the lock is free again.
          lock.held = false;
          lock.tail = kNoCore;
          send(releaser, CohType::kQolbRelAck, lock_id, releaser);
        } else {
          // An enqueue raced in; its SetSucc is already on its way to
          // the releaser (same channel, so it arrives first). Tell the
          // releaser to hand over directly.
          send(releaser, CohType::kQolbRelRetry, lock_id, releaser);
        }
        break;
      }
      default:
        GLOCKS_UNREACHABLE("QOLB home received " << to_string(msg->type));
    }
  }
  // Safe unconditionally: every still-queued inbox entry armed a wake at
  // its ready cycle when it was delivered.
  sleep();
}

void qolb_station_on_message(QolbStation& st, const CohMsg& msg,
                             Transport& transport, CoreId self) {
  const auto lock_id = static_cast<std::uint32_t>(msg.line);
  switch (msg.type) {
    case CohType::kQolbGrant:
      GLOCKS_CHECK(st.waiting && st.lock_id == lock_id,
                   "QOLB grant for lock " << lock_id << " at core " << self
                                          << " with no waiter");
      st.granted = true;
      st.holding = true;
      if (st.owner != nullptr) st.owner->wake();
      break;
    case CohType::kQolbSetSucc:
      GLOCKS_CHECK(st.successor == kNoCore,
                   "QOLB successor overwritten at core " << self);
      st.successor = msg.requester;
      break;
    case CohType::kQolbRelAck:
      GLOCKS_CHECK(st.pending_home_release, "stray QOLB RelAck");
      st.pending_home_release = false;
      st.release_done = true;
      if (st.owner != nullptr) st.owner->wake();
      break;
    case CohType::kQolbRelRetry: {
      // The successor announcement arrived before this (same channel):
      // perform the direct cache-to-cache handoff now.
      GLOCKS_CHECK(st.pending_home_release && st.successor != kNoCore,
                   "QOLB RelRetry without a known successor at core "
                       << self);
      CohMsgPtr grant = transport.make_msg();
      grant->type = CohType::kQolbGrant;
      grant->line = lock_id;
      grant->sender = self;
      grant->requester = st.successor;
      ++st.direct_grants_sent;
      transport.send(self, st.successor, std::move(grant));
      st.successor = kNoCore;
      st.pending_home_release = false;
      st.release_done = true;
      if (st.owner != nullptr) st.owner->wake();
      break;
    }
    default:
      GLOCKS_UNREACHABLE("QOLB station received " << to_string(msg.type));
  }
}


void save_qolb_station(ckpt::ArchiveWriter& a, const QolbStation& st) {
  a.b(st.waiting);
  a.b(st.granted);
  a.u32(st.lock_id);
  a.u32(st.successor);
  a.b(st.holding);
  a.b(st.pending_home_release);
  a.b(st.release_done);
  a.u64(st.direct_grants_sent);
}

void QolbHome::save(ckpt::ArchiveWriter& a) const {
  std::vector<std::uint32_t> ids;
  ids.reserve(locks_.size());
  for (const auto& [id, st] : locks_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  a.u64(ids.size());
  for (std::uint32_t id : ids) {
    const LockState& st = locks_.at(id);
    a.u32(id);
    a.b(st.held);
    a.u32(st.tail);
  }
  a.u64(inbox_.size());
  for (const Inbox& in : inbox_) {
    a.u64(in.ready);
    save_coh_msg(a, *in.msg);
  }
  a.u64(stats_.enqueues);
  a.u64(stats_.cold_grants);
  a.u64(stats_.direct_grants);
  a.u64(stats_.home_releases);
}

}  // namespace glocks::mem
