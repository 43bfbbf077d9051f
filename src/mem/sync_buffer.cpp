#include "mem/sync_buffer.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mem/l1_cache.hpp"  // Transport

namespace glocks::mem {

SyncBuffer::SyncBuffer(CoreId tile, Transport& transport,
                       Cycle processing_latency)
    : tile_(tile), transport_(transport), latency_(processing_latency) {}

void SyncBuffer::deliver(CohMsgPtr msg, Cycle ready) {
  inbox_.push_back(Inbox{ready + latency_, std::move(msg)});
  wake_at(inbox_.back().ready);
}

void SyncBuffer::grant(std::uint32_t lock_id, CoreId to) {
  ++stats_.grants;
  CohMsgPtr msg = transport_.make_msg();
  msg->type = CohType::kSbGrant;
  msg->line = lock_id;  // SB messages carry the lock id in `line`
  msg->sender = tile_;
  msg->requester = to;
  transport_.send(tile_, to, std::move(msg));
}

void SyncBuffer::tick(Cycle now) {
  while (!inbox_.empty() && inbox_.front().ready <= now) {
    auto msg = std::move(inbox_.front().msg);
    inbox_.pop_front();
    const auto lock_id = static_cast<std::uint32_t>(msg->line);
    LockState& lock = locks_[lock_id];
    switch (msg->type) {
      case CohType::kSbAcquire:
        ++stats_.acquires;
        if (!lock.held) {
          lock.held = true;
          lock.owner = msg->sender;
          grant(lock_id, msg->sender);
        } else {
          lock.waiters.push_back(msg->sender);
          stats_.max_queue = std::max<std::uint64_t>(stats_.max_queue,
                                                     lock.waiters.size());
        }
        break;
      case CohType::kSbRelease: {
        ++stats_.releases;
        GLOCKS_CHECK(lock.held && lock.owner == msg->sender,
                     "SB release from core " << msg->sender
                                             << " which does not hold lock "
                                             << lock_id);
        if (lock.waiters.empty()) {
          lock.held = false;
          lock.owner = kNoCore;
        } else {
          lock.owner = lock.waiters.front();
          lock.waiters.pop_front();
          grant(lock_id, lock.owner);
        }
        break;
      }
      default:
        GLOCKS_UNREACHABLE("sync buffer received " << to_string(msg->type));
    }
  }
  // Safe unconditionally: every still-queued inbox entry armed a wake at
  // its ready cycle when it was delivered.
  sleep();
}

bool SyncBuffer::quiescent() const { return inbox_.empty(); }


void save_sb_station(ckpt::ArchiveWriter& a, const SbStation& st) {
  a.b(st.waiting);
  a.b(st.granted);
  a.u32(st.lock_id);
}

void SyncBuffer::save(ckpt::ArchiveWriter& a) const {
  std::vector<std::uint32_t> ids;
  ids.reserve(locks_.size());
  for (const auto& [id, st] : locks_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  a.u64(ids.size());
  for (std::uint32_t id : ids) {
    const LockState& st = locks_.at(id);
    a.u32(id);
    a.b(st.held);
    a.u32(st.owner);
    a.u64(st.waiters.size());
    for (CoreId c : st.waiters) a.u32(c);
  }
  a.u64(inbox_.size());
  for (const Inbox& in : inbox_) {
    a.u64(in.ready);
    save_coh_msg(a, *in.msg);
  }
  a.u64(stats_.acquires);
  a.u64(stats_.grants);
  a.u64(stats_.releases);
  a.u64(stats_.max_queue);
}

}  // namespace glocks::mem
