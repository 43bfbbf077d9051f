#include "mem/directory.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace glocks::mem {

DirSlice::DirSlice(CoreId tile, std::uint32_t num_cores, const L2Config& cfg,
                   Cycle memory_latency, Transport& transport,
                   BackingStore& memory, const sim::Engine& engine)
    : tile_(tile),
      num_cores_(num_cores),
      cfg_(cfg),
      memory_latency_(memory_latency),
      transport_(transport),
      memory_(memory),
      engine_(engine),
      num_sets_(cfg.num_sets()),
      l2_sets_(num_sets_, std::vector<L2Entry>(cfg.ways)),
      last_done_(num_cores, 0) {}

DirSlice::DirEntry& DirSlice::entry(Addr line) {
  auto [it, inserted] = dir_.try_emplace(line);
  if (inserted) it->second.sharers = SharerSet(num_cores_);
  return it->second;
}

char DirSlice::probe_state(Addr line) const {
  auto it = dir_.find(line);
  if (it == dir_.end()) return '-';
  switch (it->second.state) {
    case DirState::kU: return 'U';
    case DirState::kS: return 'S';
    case DirState::kM: return 'M';
  }
  return '?';
}

std::uint32_t DirSlice::probe_sharers(Addr line) const {
  auto it = dir_.find(line);
  return it == dir_.end() ? 0 : it->second.sharers.count();
}

const LineData* DirSlice::probe_l2_data(Addr line) const {
  const auto& set = l2_sets_[line % num_sets_];
  for (const auto& e : set) {
    if (e.valid && e.line == line) return &e.data;
  }
  return nullptr;
}

DirSlice::L2Entry* DirSlice::l2_find(Addr line) {
  auto& set = l2_sets_[line % num_sets_];
  for (auto& e : set) {
    if (e.valid && e.line == line) return &e;
  }
  return nullptr;
}

void DirSlice::l2_install(Addr line, const LineData& data, bool dirty,
                          Cycle now) {
  if (L2Entry* e = l2_find(line)) {
    e->data = data;
    e->dirty = e->dirty || dirty;
    e->lru = now;
    return;
  }
  auto& set = l2_sets_[line % num_sets_];
  L2Entry* victim = nullptr;
  for (auto& e : set) {
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (victim == nullptr || e.lru < victim->lru) victim = &e;
  }
  if (victim->valid && victim->dirty) {
    ++stats_.memory_writebacks;
    memory_.write_line(victim->line, victim->data);
  }
  victim->valid = true;
  victim->line = line;
  victim->data = data;
  victim->dirty = dirty;
  victim->lru = now;
}

std::pair<Cycle, LineData> DirSlice::read_line_data(Addr line, Cycle now) {
  if (L2Entry* e = l2_find(line)) {
    ++stats_.l2_hits;
    e->lru = now;
    return {cfg_.data_latency, e->data};
  }
  ++stats_.l2_misses;
  ++stats_.memory_fetches;
  const LineData data = memory_.read_line(line);
  l2_install(line, data, /*dirty=*/false, now);
  return {memory_latency_, data};
}

void DirSlice::send(CoreId dst, CohType type, Addr line, CoreId requester,
                    bool exclusive, const LineData* data) {
  CohMsgPtr msg = transport_.make_msg();
  msg->type = type;
  msg->line = line;
  msg->sender = tile_;
  msg->requester = requester;
  msg->exclusive = exclusive;
  if (data != nullptr) msg->data = *data;
  transport_.send(tile_, dst, std::move(msg));
}

void DirSlice::deliver(CohMsgPtr msg, Cycle ready) {
  // Every message pays the bank's tag/lookup latency. A single constant
  // keeps inbox ready-times monotonic, so strict FIFO processing preserves
  // the per-(src,dst) ordering the protocol relies on.
  inbox_.push_back(Inbox{ready + cfg_.tag_latency, std::move(msg)});
  wake_at(inbox_.back().ready);
}

bool DirSlice::is_duplicate_request(const CohMsg& m) const {
  // Request ids are strictly monotonic per core (L1 op_seq_) and a core
  // has a single MSHR, so once last_done_ records an id every tagged
  // request at or below it is a stale ARQ copy — not just the equal one:
  // a delayed watchdog retry can arrive after the same core has already
  // completed a *later* request at this home slice.
  if (m.req_id != 0 && m.req_id <= last_done_[m.sender]) return true;
  if (auto it = txns_.find(m.line);
      it != txns_.end() && it->second.requester == m.sender &&
      it->second.req_id == m.req_id) {
    return true;  // the original is the active transaction on the line
  }
  if (auto it = deferred_.find(m.line); it != deferred_.end()) {
    for (const CohMsgPtr& d : it->second) {
      if (d->sender == m.sender && d->req_id == m.req_id) return true;
    }
  }
  return false;
}

void DirSlice::start_request(CohMsgPtr msg, Cycle now) {
  const Addr line = msg->line;
  const CoreId req = msg->sender;
  DirEntry& e = entry(line);
  Txn txn;
  txn.type = msg->type;
  txn.requester = req;
  txn.req_id = msg->req_id;

  // A request from the line's recorded owner means its PutM is still in
  // flight (requests and writebacks ride different virtual channels, so
  // the request can overtake it). Park it; the PutM's arrival drains it.
  if (e.state == DirState::kM && e.owner == req) {
    ++stats_.deferred_requests;
    deferred_[line].push_back(std::move(msg));
    return;
  }

  if (msg->type == CohType::kGetS) {
    ++stats_.gets;
    if (e.state == DirState::kM) {
      ++stats_.forwards_sent;
      send(e.owner, CohType::kFwdGetS, line, req);
      txn.phase = Phase::kWaitCopyBack;
    } else {
      auto [lat, data] = read_line_data(line, now);
      read_buf_[line] = data;
      txn.phase = Phase::kReadData;
      txn.wake_at = now + lat;
      wake_at(txn.wake_at);
    }
  } else {  // kGetX or kUpgrade
    if (msg->type == CohType::kUpgrade) {
      ++stats_.upgrades;
    } else {
      ++stats_.getx;
    }
    if (e.state == DirState::kM) {
      ++stats_.forwards_sent;
      send(e.owner, CohType::kFwdGetX, line, req);
      txn.phase = Phase::kWaitFwdAck;
    } else if (e.state == DirState::kS) {
      // Only an Upgrade guarantees the requester still holds data; a GetX
      // from a listed sharer means the S copy was silently evicted, so the
      // stale sharer entry must not trigger the dataless grant.
      txn.requester_had_copy =
          msg->type == CohType::kUpgrade && e.sharers.contains(req);
      std::uint32_t invs = 0;
      for (CoreId s : e.sharers.to_vector()) {
        if (s == req) continue;
        ++invs;
        ++stats_.invalidations_sent;
        send(s, CohType::kInv, line, req);
      }
      if (invs > 0) {
        txn.phase = Phase::kWaitInvAcks;
        txn.pending_acks = invs;
      } else if (txn.requester_had_copy) {
        // Sole sharer upgrading: grant without data.
        send(req, CohType::kAckComplete, line, req);
        e.state = DirState::kM;
        e.owner = req;
        e.sharers.clear();
        txns_.emplace(line, txn);  // placed then completed for symmetry
        complete_txn(line, now);
        return;
      } else {
        // No other sharer to invalidate and the requester needs data
        // (GetX from a silent evictor, or an escalated Upgrade).
        auto [lat, data] = read_line_data(line, now);
        read_buf_[line] = data;
        txn.phase = Phase::kReadData;
        txn.wake_at = now + lat;
        wake_at(txn.wake_at);
      }
    } else {  // kU
      auto [lat, data] = read_line_data(line, now);
      read_buf_[line] = data;
      txn.phase = Phase::kReadData;
      txn.wake_at = now + lat;
      wake_at(txn.wake_at);
    }
  }
  txns_.emplace(line, txn);
}

void DirSlice::after_inv_acks(Addr line, Txn& txn, Cycle now) {
  DirEntry& e = entry(line);
  if (txn.requester_had_copy) {
    send(txn.requester, CohType::kAckComplete, line, txn.requester);
    e.state = DirState::kM;
    e.owner = txn.requester;
    e.sharers.clear();
    complete_txn(line, now);
    return;
  }
  // Requester had no copy: data must still be provided.
  auto [lat, data] = read_line_data(line, now);
  read_buf_[line] = data;
  txn.phase = Phase::kReadData;
  txn.wake_at = now + lat;
  wake_at(txn.wake_at);
}

void DirSlice::finish_read_phase(Addr line, Txn& txn, Cycle now) {
  DirEntry& e = entry(line);
  auto buf = read_buf_.find(line);
  GLOCKS_CHECK(buf != read_buf_.end(), "read phase with no buffered data");
  const LineData data = buf->second;
  read_buf_.erase(buf);

  if (txn.type == CohType::kGetS && e.state == DirState::kS) {
    send(txn.requester, CohType::kData, line, txn.requester,
         /*exclusive=*/false, &data);
    e.sharers.add(txn.requester);
  } else {
    // GetS on an Uncached line is granted Exclusive (the MESI E
    // optimization); GetX/Upgrade grants are always exclusive.
    send(txn.requester, CohType::kData, line, txn.requester,
         /*exclusive=*/true, &data);
    e.state = DirState::kM;
    e.owner = txn.requester;
    e.sharers.clear();
  }
  complete_txn(line, now);
}

void DirSlice::complete_txn(Addr line, Cycle now) {
  if (auto it = txns_.find(line);
      it != txns_.end() && it->second.req_id != 0) {
    last_done_[it->second.requester] = it->second.req_id;
  }
  txns_.erase(line);
  // Replay deferred work until a new transaction occupies the line or
  // nothing progresses. A replayed request from the line's recorded
  // owner re-parks itself (its PutM is queued behind it or still in the
  // network); the no-progress check then either lets a queued PutM
  // through on the next iteration or leaves the line idle until the
  // PutM arrives.
  while (txns_.count(line) == 0) {
    auto it = deferred_.find(line);
    if (it == deferred_.end() || it->second.empty()) {
      if (it != deferred_.end()) deferred_.erase(it);
      return;
    }
    const std::size_t before = it->second.size();
    auto msg = std::move(it->second.front());
    it->second.pop_front();
    handle_msg(std::move(msg), now);
    const auto it2 = deferred_.find(line);
    const std::size_t after =
        it2 == deferred_.end() ? 0 : it2->second.size();
    if (after >= before) return;  // re-parked: wait for the PutM
  }
}

void DirSlice::handle_msg(CohMsgPtr msg, Cycle now) {
  const Addr line = msg->line;
  switch (msg->type) {
    case CohType::kGetS:
    case CohType::kGetX:
    case CohType::kUpgrade: {
      if (msg->req_id != 0 && is_duplicate_request(*msg)) {
        // A watchdog re-issue raced its own original: exactly one copy
        // of each (requester, id) is admitted, the rest are dropped.
        ++stats_.dup_requests;
        return;
      }
      if (txns_.count(line) != 0) {
        ++stats_.deferred_requests;
        deferred_[line].push_back(std::move(msg));
        return;
      }
      start_request(std::move(msg), now);
      return;
    }
    case CohType::kPutM: {
      if (txns_.count(line) != 0) {
        // A transaction is touching this line (the evictor already served
        // any forward from its writeback buffer); settle the PutM after.
        deferred_[line].push_back(std::move(msg));
        return;
      }
      ++stats_.putm;
      DirEntry& e = entry(line);
      if (e.state == DirState::kM && e.owner == msg->sender) {
        l2_install(line, msg->data, /*dirty=*/true, now);
        e.state = DirState::kU;
        e.owner = kNoCore;
      } else {
        ++stats_.stale_putm;
      }
      send(msg->sender, CohType::kPutAck, line, msg->sender);
      // A request that overtook this PutM may be parked on the line.
      if (auto it = deferred_.find(line);
          it != deferred_.end() && !it->second.empty() &&
          txns_.count(line) == 0) {
        auto parked = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) deferred_.erase(it);
        handle_msg(std::move(parked), now);
      }
      return;
    }
    case CohType::kInvAck: {
      auto it = txns_.find(line);
      GLOCKS_CHECK(it != txns_.end() &&
                       it->second.phase == Phase::kWaitInvAcks &&
                       it->second.pending_acks > 0,
                   "unexpected InvAck for line " << line);
      if (--it->second.pending_acks == 0) {
        after_inv_acks(line, it->second, now);
      }
      return;
    }
    case CohType::kCopyBack: {
      auto it = txns_.find(line);
      GLOCKS_CHECK(it != txns_.end() &&
                       it->second.phase == Phase::kWaitCopyBack,
                   "unexpected CopyBack for line " << line);
      l2_install(line, msg->data, /*dirty=*/true, now);
      DirEntry& e = entry(line);
      e.state = DirState::kS;
      e.owner = kNoCore;
      e.sharers.clear();
      e.sharers.add(msg->sender);          // the downgraded former owner
      e.sharers.add(it->second.requester); // receives data cache-to-cache
      complete_txn(line, now);
      return;
    }
    case CohType::kFwdAck: {
      auto it = txns_.find(line);
      GLOCKS_CHECK(it != txns_.end() &&
                       it->second.phase == Phase::kWaitFwdAck,
                   "unexpected FwdAck for line " << line);
      DirEntry& e = entry(line);
      e.state = DirState::kM;
      e.owner = it->second.requester;
      e.sharers.clear();
      complete_txn(line, now);
      return;
    }
    default:
      GLOCKS_UNREACHABLE("home received an L1-only message: "
                         << to_string(msg->type));
  }
}

void DirSlice::tick(Cycle now) {
  // Wake matured read phases first so their grants leave this cycle.
  if (!txns_.empty()) {
    std::vector<Addr> ready_lines;
    for (auto& [line, txn] : txns_) {
      if (txn.phase == Phase::kReadData && txn.wake_at <= now) {
        ready_lines.push_back(line);
      }
    }
    std::sort(ready_lines.begin(), ready_lines.end());
    for (Addr line : ready_lines) {
      auto it = txns_.find(line);
      if (it != txns_.end() && it->second.phase == Phase::kReadData &&
          it->second.wake_at <= now) {
        finish_read_phase(line, it->second, now);
      }
    }
  }
  while (!inbox_.empty() && inbox_.front().ready <= now) {
    auto msg = std::move(inbox_.front().msg);
    inbox_.pop_front();
    handle_msg(std::move(msg), now);
  }
  // Unconditional dormancy is safe: read phases armed a wake at their
  // maturity cycle, every queued inbox entry armed one at its ready
  // cycle, and ack/copyback/deferred progress rides an incoming message
  // (whose deliver wakes us).
  sleep();
}


void DirSlice::save(ckpt::ArchiveWriter& a) const {
  for (const auto& set : l2_sets_) {
    for (const L2Entry& e : set) {
      a.b(e.valid);
      a.u64(e.line);
      for (Word w : e.data) a.u64(w);
      a.b(e.dirty);
      a.u64(e.lru);
    }
  }
  auto sorted_keys = [](const auto& map) {
    std::vector<Addr> keys;
    keys.reserve(map.size());
    for (const auto& [k, v] : map) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  a.u64(dir_.size());
  for (Addr line : sorted_keys(dir_)) {
    const DirEntry& e = dir_.at(line);
    a.u64(line);
    a.u8(static_cast<std::uint8_t>(e.state));
    a.u32(e.owner);
    for (std::uint64_t w : e.sharers.words()) a.u64(w);
  }
  a.u64(txns_.size());
  for (Addr line : sorted_keys(txns_)) {
    const Txn& t = txns_.at(line);
    a.u64(line);
    a.u8(static_cast<std::uint8_t>(t.type));
    a.u32(t.requester);
    a.u8(static_cast<std::uint8_t>(t.phase));
    a.u32(t.pending_acks);
    a.u64(t.wake_at);
    a.b(t.requester_had_copy);
    a.u64(t.req_id);
  }
  a.u64(deferred_.size());
  for (Addr line : sorted_keys(deferred_)) {
    const auto& q = deferred_.at(line);
    a.u64(line);
    a.u64(q.size());
    for (const CohMsgPtr& m : q) save_coh_msg(a, *m);
  }
  a.u64(inbox_.size());
  for (const Inbox& in : inbox_) {
    a.u64(in.ready);
    save_coh_msg(a, *in.msg);
  }
  a.u64(read_buf_.size());
  for (Addr line : sorted_keys(read_buf_)) {
    a.u64(line);
    for (Word w : read_buf_.at(line)) a.u64(w);
  }
  a.u64(stats_.gets);
  a.u64(stats_.getx);
  a.u64(stats_.upgrades);
  a.u64(stats_.putm);
  a.u64(stats_.stale_putm);
  a.u64(stats_.invalidations_sent);
  a.u64(stats_.forwards_sent);
  a.u64(stats_.l2_hits);
  a.u64(stats_.l2_misses);
  a.u64(stats_.memory_fetches);
  a.u64(stats_.memory_writebacks);
  a.u64(stats_.deferred_requests);
  a.u64(stats_.dup_requests);
  for (std::uint64_t v : last_done_) a.u64(v);
}

}  // namespace glocks::mem
