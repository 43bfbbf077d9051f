#include "mem/l1_cache.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace glocks::mem {

L1Cache::L1Cache(CoreId core, const L1Config& cfg, const AddressMap& amap,
                 Transport& transport, const sim::Engine& engine)
    : core_(core),
      cfg_(cfg),
      amap_(amap),
      transport_(transport),
      engine_(engine),
      num_sets_(cfg.num_sets()),
      sets_(num_sets_, std::vector<Entry>(cfg.ways)) {}

L1Cache::Entry* L1Cache::find(Addr line) {
  auto& set = sets_[line % num_sets_];
  for (auto& e : set) {
    if (e.valid && e.line == line) return &e;
  }
  return nullptr;
}

const L1Cache::Entry* L1Cache::find(Addr line) const {
  return const_cast<L1Cache*>(this)->find(line);
}

char L1Cache::probe_state(Addr line) const {
  const Entry* e = find(line);
  if (e == nullptr) return 'I';
  switch (e->state) {
    case LineState::kM: return 'M';
    case LineState::kE: return 'E';
    case LineState::kS: return 'S';
  }
  return '?';
}

const LineData* L1Cache::probe_owned_data(Addr line) const {
  const Entry* e = find(line);
  if (e != nullptr && e->state != LineState::kS) return &e->data;
  return nullptr;
}

std::string L1Cache::mshr_dump() const {
  if (!pending_.has_value()) return {};
  const Pending& p = *pending_;
  std::ostringstream oss;
  switch (p.op.type) {
    case MemOp::Type::kLoad: oss << "load"; break;
    case MemOp::Type::kStore: oss << "store"; break;
    case MemOp::Type::kAmo: oss << "amo"; break;
  }
  oss << " addr=" << p.op.addr
      << (p.request_sent ? (p.sent_upgrade ? " upgrade-sent" : " miss-sent")
                         : " in-lookup");
  if (p.e2e_deadline != kNoCycle) {
    oss << " req=" << p.req_id << " e2e_retries=" << p.e2e_retries
        << " deadline=" << p.e2e_deadline;
  }
  return oss.str();
}

void L1Cache::issue(const MemOp& op, Callback done) {
  GLOCKS_CHECK(!pending_.has_value(),
               "core " << core_ << " issued with an op already in flight");
  GLOCKS_CHECK(op.addr % sizeof(Word) == 0,
               "unaligned access at " << op.addr);
  switch (op.type) {
    case MemOp::Type::kLoad: ++stats_.loads; break;
    case MemOp::Type::kStore: ++stats_.stores; break;
    case MemOp::Type::kAmo: ++stats_.amos; break;
  }
  Pending p;
  p.op = op;
  p.done = std::move(done);
  p.lookup_ready = engine_.now() + cfg_.access_latency;
  pending_ = std::move(p);
  wake_at(pending_->lookup_ready);
}

void L1Cache::deliver(CohMsgPtr msg, Cycle ready) {
  inbox_.push_back(Inbox{ready, std::move(msg)});
  wake_at(ready);
}

void L1Cache::set_e2e_watchdog(Cycle timeout, std::uint32_t max_retries,
                               std::function<std::string()> context) {
  GLOCKS_CHECK(timeout > 0, "e2e watchdog timeout must be positive");
  e2e_timeout_ = timeout;
  e2e_max_retries_ = max_retries;
  e2e_context_ = std::move(context);
}

void L1Cache::send_to_home(Addr line, CohType type, const LineData* data,
                           CoreId requester, std::uint64_t req_id) {
  CohMsgPtr msg = transport_.make_msg();
  msg->type = type;
  msg->line = line;
  msg->sender = core_;
  msg->requester = requester == kNoCore ? core_ : requester;
  msg->req_id = req_id;
  if (data != nullptr) msg->data = *data;
  transport_.send(core_, amap_.home_of_line(line), std::move(msg));
}

void L1Cache::arm_e2e_deadline(Cycle now) {
  if (e2e_timeout_ == 0) return;
  const Addr line = line_of(pending_->op.addr);
  if (amap_.home_of_line(line) == core_) return;  // same-tile bypass
  // The deadline grows exponentially per re-issue so retries back off
  // instead of hammering a congested detour path.
  const std::uint32_t shift =
      std::min<std::uint32_t>(pending_->e2e_retries, 10);
  pending_->e2e_deadline = now + (e2e_timeout_ << shift);
  wake_at(pending_->e2e_deadline);
}

void L1Cache::fire_e2e_watchdog(Cycle now) {
  Pending& p = *pending_;
  ++e2e_.timeouts;
  const Addr line = line_of(p.op.addr);
  const CohType type = p.sent_upgrade ? CohType::kUpgrade
                       : p.op.type != MemOp::Type::kLoad ? CohType::kGetX
                                                         : CohType::kGetS;
  GLOCKS_CHECK(p.e2e_retries < e2e_max_retries_,
               "core " << core_ << ": end-to-end retry budget exhausted ("
                       << e2e_max_retries_ << " retries) waiting on "
                       << to_string(type) << " for line " << line
                       << " (home tile " << amap_.home_of_line(line)
                       << ", req " << p.req_id << "); dead mesh links: "
                       << (e2e_context_ ? e2e_context_()
                                        : std::string("unknown")));
  ++p.e2e_retries;
  ++e2e_.retries;
  // Same req_id as the original: the home admits exactly one copy of
  // (requester, id), so whichever of the two loses the race is dropped.
  send_to_home(line, type, nullptr, kNoCore, p.req_id);
  arm_e2e_deadline(now);
}

Word L1Cache::apply_amo(LineData& data, std::uint32_t word_idx,
                        const MemOp& op) {
  Word& w = data[word_idx];
  const Word old = w;
  switch (op.amo) {
    case AmoKind::kTestAndSet: w = 1; break;
    case AmoKind::kSwap: w = op.value; break;
    case AmoKind::kFetchAdd: w = old + op.value; break;
    case AmoKind::kCompareSwap:
      if (old == op.expected) w = op.value;
      break;
  }
  return old;
}

void L1Cache::complete_with_line(Entry& e, Cycle now) {
  GLOCKS_CHECK(pending_.has_value(), "no pending op to complete");
  Pending p = std::move(*pending_);
  pending_.reset();
  const std::uint32_t wi = line_offset(p.op.addr) / sizeof(Word);
  e.lru = now;
  Word result = 0;
  switch (p.op.type) {
    case MemOp::Type::kLoad:
      result = e.data[wi];
      break;
    case MemOp::Type::kStore:
      GLOCKS_CHECK(e.state != LineState::kS, "store completing on S line");
      e.state = LineState::kM;
      e.data[wi] = p.op.value;
      break;
    case MemOp::Type::kAmo:
      GLOCKS_CHECK(e.state != LineState::kS, "AMO completing on S line");
      e.state = LineState::kM;
      result = apply_amo(e.data, wi, p.op);
      break;
  }
  p.done(result);
}

L1Cache::Entry& L1Cache::victimize(Addr incoming_line, Cycle now) {
  auto& set = sets_[incoming_line % num_sets_];
  Entry* victim = nullptr;
  for (auto& e : set) {
    if (!e.valid) return e;
    if (victim == nullptr || e.lru < victim->lru) victim = &e;
  }
  // Dirty (or exclusive-clean) victims must reach the home: a silent E
  // drop would leave the directory believing we own the line.
  if (victim->state != LineState::kS) {
    ++stats_.writebacks;
    wb_buffer_.push_back(WbEntry{victim->line, victim->data});
    send_to_home(victim->line, CohType::kPutM, &victim->data);
  }
  victim->valid = false;
  (void)now;
  return *victim;
}

void L1Cache::install(Addr line, const LineData& data, LineState st,
                      Cycle now) {
  GLOCKS_CHECK(find(line) == nullptr, "installing already-present line");
  Entry& slot = victimize(line, now);
  slot.valid = true;
  slot.line = line;
  slot.state = st;
  slot.data = data;
  slot.lru = now;
}

void L1Cache::handle_msg(CohMsg& msg, Cycle now) {
  const Addr line = msg.line;
  switch (msg.type) {
    case CohType::kData:
    case CohType::kC2CData: {
      GLOCKS_CHECK(pending_ && pending_->request_sent &&
                       line_of(pending_->op.addr) == line,
                   "data response with no matching MSHR at core " << core_);
      GLOCKS_CHECK(find(line) == nullptr,
                   "data response for a line already present");
      const bool needs_excl = pending_->op.type != MemOp::Type::kLoad;
      GLOCKS_CHECK(!needs_excl || msg.exclusive,
                   "write miss answered with a shared copy");
      // Races that overtook this grant on another virtual channel:
      // resolve them after the fill (complete_with_line resets pending_).
      const bool drop_after_fill = pending_->fill_invalidate;
      CohMsgPtr fwd = std::move(pending_->pending_fwd);
      GLOCKS_CHECK(!drop_after_fill || !msg.exclusive,
                   "invalidate-on-fill applies only to shared grants");
      GLOCKS_CHECK(fwd == nullptr || msg.exclusive,
                   "a forward can only chase an exclusive grant");
      const LineState st = msg.exclusive ? LineState::kE : LineState::kS;
      install(line, msg.data, st, now);
      complete_with_line(*find(line), now);
      if (drop_after_fill) {
        // The load's value was legal at grant time; the copy is already
        // logically invalid (we acked the Inv), so drop it now.
        Entry* e = find(line);
        GLOCKS_CHECK(e != nullptr && e->state == LineState::kS,
                     "invalidate-on-fill lost its line");
        e->valid = false;
      }
      if (fwd != nullptr) handle_msg(*fwd, now);
      break;
    }
    case CohType::kAckComplete: {
      GLOCKS_CHECK(pending_ && pending_->sent_upgrade &&
                       line_of(pending_->op.addr) == line,
                   "AckComplete with no matching Upgrade at core " << core_);
      GLOCKS_CHECK(!pending_->upgrade_invalidated,
                   "AckComplete after the S copy was invalidated — the home "
                   "must escalate to a data response");
      Entry* e = find(line);
      GLOCKS_CHECK(e != nullptr && e->state == LineState::kS,
                   "AckComplete but line not Shared");
      e->state = LineState::kM;
      complete_with_line(*e, now);
      break;
    }
    case CohType::kInv: {
      ++stats_.invalidations_received;
      if (Entry* e = find(line)) {
        GLOCKS_CHECK(e->state == LineState::kS,
                     "Inv hit a line in state " << static_cast<int>(e->state));
        e->valid = false;
      }
      if (pending_ && pending_->request_sent &&
          line_of(pending_->op.addr) == line) {
        if (pending_->sent_upgrade) {
          pending_->upgrade_invalidated = true;
        } else if (pending_->op.type == MemOp::Type::kLoad) {
          // The Inv overtook our shared grant (different virtual
          // channels): the fill must not leave a stale copy behind.
          pending_->fill_invalidate = true;
        }
        // A pending GetX needs nothing: the exclusive grant that follows
        // supersedes this (older) invalidation.
      }
      send_to_home(line, CohType::kInvAck);
      break;
    }
    case CohType::kFwdGetS:
    case CohType::kFwdGetX: {
      ++stats_.forwards_served;
      const bool is_getx = msg.type == CohType::kFwdGetX;
      const LineData* data = nullptr;
      Entry* e = find(line);
      if (e != nullptr) {
        GLOCKS_CHECK(e->state != LineState::kS,
                     "forward hit a Shared line at core " << core_);
        data = &e->data;
      } else {
        for (const auto& wb : wb_buffer_) {
          if (wb.line == line) {
            data = &wb.data;
            break;
          }
        }
      }
      if (data == nullptr && pending_ && pending_->request_sent &&
          line_of(pending_->op.addr) == line) {
        // The forward overtook our exclusive grant on the Reply channel.
        // This chases writes and also loads: a GetS to an uncached line
        // is granted Exclusive, making us the owner the home forwards to.
        GLOCKS_CHECK(pending_->pending_fwd == nullptr,
                     "two forwards outstanding for one line");
        pending_->pending_fwd = transport_.make_msg(msg);
        break;
      }
      GLOCKS_CHECK(data != nullptr,
                   "forward for line " << line << " found neither a cached "
                                       << "copy nor a writeback entry");
      // Cache-to-cache transfer straight to the requester...
      CohMsgPtr c2c = transport_.make_msg();
      c2c->type = CohType::kC2CData;
      c2c->line = line;
      c2c->sender = core_;
      c2c->requester = msg.requester;
      c2c->exclusive = is_getx;
      c2c->data = *data;
      transport_.send(core_, msg.requester, std::move(c2c));
      // ...and the home learns the outcome (with data on a downgrade).
      if (is_getx) {
        send_to_home(line, CohType::kFwdAck, nullptr, msg.requester);
        if (e != nullptr) e->valid = false;
      } else {
        send_to_home(line, CohType::kCopyBack, data, msg.requester);
        if (e != nullptr) e->state = LineState::kS;
      }
      break;
    }
    case CohType::kPutAck: {
      auto it = std::find_if(wb_buffer_.begin(), wb_buffer_.end(),
                             [&](const WbEntry& w) { return w.line == line; });
      GLOCKS_CHECK(it != wb_buffer_.end(),
                   "PutAck for line " << line << " with no writeback entry");
      wb_buffer_.erase(it);
      break;
    }
    default:
      GLOCKS_UNREACHABLE("L1 received a home-only message: "
                         << to_string(msg.type));
  }
}

void L1Cache::tick(Cycle now) {
  while (!inbox_.empty() && inbox_.front().ready <= now) {
    auto msg = std::move(inbox_.front().msg);
    inbox_.pop_front();
    handle_msg(*msg, now);
  }

  // End-to-end protocol watchdog (mesh fault-domain runs): a remote
  // request whose response is overdue is re-issued or escalated. Checked
  // after the inbox drain so a response arriving this very cycle wins.
  if (pending_ && pending_->e2e_deadline != kNoCycle &&
      now >= pending_->e2e_deadline) {
    fire_e2e_watchdog(now);
  }

  // Unconditional dormancy is safe here: every deferred continuation has
  // a wake already armed — issue() at lookup_ready, deliver() at each
  // inbox entry's ready cycle — and a blocked front entry re-arms via
  // the deliver that queued it.
  if (!pending_ || pending_->request_sent || now < pending_->lookup_ready) {
    sleep();
    return;
  }

  const Addr line = line_of(pending_->op.addr);
  Entry* e = find(line);
  const bool is_write = pending_->op.type != MemOp::Type::kLoad;
  if (e != nullptr && (!is_write || e->state != LineState::kS)) {
    ++stats_.hits;
    complete_with_line(*e, now);
    sleep();
    return;
  }
  ++stats_.misses;
  pending_->request_sent = true;
  if (e2e_timeout_ != 0) pending_->req_id = ++op_seq_;
  if (e != nullptr) {
    // Write hit on a Shared copy: ask for exclusivity, keep the data.
    ++stats_.upgrades;
    pending_->sent_upgrade = true;
    send_to_home(line, CohType::kUpgrade, nullptr, kNoCore,
                 pending_->req_id);
  } else {
    send_to_home(line, is_write ? CohType::kGetX : CohType::kGetS, nullptr,
                 kNoCore, pending_->req_id);
  }
  arm_e2e_deadline(now);
  sleep();  // the home's response (via deliver) wakes us
}


void L1Cache::save(ckpt::ArchiveWriter& a) const {
  for (const auto& set : sets_) {
    for (const Entry& e : set) {
      a.b(e.valid);
      a.u64(e.line);
      a.u8(static_cast<std::uint8_t>(e.state));
      for (Word w : e.data) a.u64(w);
      a.u64(e.lru);
    }
  }
  a.b(pending_.has_value());
  if (pending_.has_value()) {
    const Pending& p = *pending_;
    a.u8(static_cast<std::uint8_t>(p.op.type));
    a.u64(p.op.addr);
    a.u64(p.op.value);
    a.u64(p.op.expected);
    a.u8(static_cast<std::uint8_t>(p.op.amo));
    a.u64(p.lookup_ready);
    a.b(p.request_sent);
    a.b(p.sent_upgrade);
    a.b(p.upgrade_invalidated);
    a.b(p.fill_invalidate);
    a.b(p.pending_fwd != nullptr);
    if (p.pending_fwd != nullptr) save_coh_msg(a, *p.pending_fwd);
    a.u64(p.req_id);
    a.u64(p.e2e_deadline);
    a.u32(p.e2e_retries);
  }
  a.u64(wb_buffer_.size());
  for (const WbEntry& wb : wb_buffer_) {
    a.u64(wb.line);
    for (Word w : wb.data) a.u64(w);
  }
  a.u64(inbox_.size());
  for (const Inbox& in : inbox_) {
    a.u64(in.ready);
    save_coh_msg(a, *in.msg);
  }
  a.u64(stats_.loads);
  a.u64(stats_.stores);
  a.u64(stats_.amos);
  a.u64(stats_.hits);
  a.u64(stats_.misses);
  a.u64(stats_.upgrades);
  a.u64(stats_.writebacks);
  a.u64(stats_.invalidations_received);
  a.u64(stats_.forwards_served);
  a.u64(op_seq_);
  a.u64(e2e_.timeouts);
  a.u64(e2e_.retries);
}

}  // namespace glocks::mem
