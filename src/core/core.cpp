#include "core/core.hpp"

#include "common/check.hpp"

namespace glocks::core {

Core::Core(CoreId id, std::uint32_t num_glocks, std::uint32_t num_gbarriers)
    : id_(id), lock_regs_(num_glocks), barrier_regs_(num_gbarriers) {
  lock_regs_.owner = this;
  barrier_regs_.owner = this;
  sb_station_.owner = this;
  qolb_station_.owner = this;
}

void Core::set_wake_targets(sim::Component* gline_system,
                            sim::Component* census) {
  gline_system_ = gline_system;
  census_ = census;
  if (ctx_ != nullptr) {
    ctx_->gline_system = gline_system_;
    ctx_->census = census_;
  }
}

void Core::bind(std::uint32_t thread_id, std::uint32_t num_threads,
                mem::L1Cache& l1,
                const std::function<Task<void>(ThreadApi&)>& make_body) {
  GLOCKS_CHECK(ctx_ == nullptr, "core " << id_ << " already has a thread");
  ctx_ = std::make_unique<ThreadContext>();
  ctx_->thread_id = thread_id;
  ctx_->num_threads = num_threads;
  ctx_->core = id_;
  ctx_->l1 = &l1;
  ctx_->lock_regs = &lock_regs_;
  ctx_->barrier_regs = &barrier_regs_;
  ctx_->sb_station = &sb_station_;
  ctx_->qolb_station = &qolb_station_;
  ctx_->core_component = this;
  ctx_->gline_system = gline_system_;
  ctx_->census = census_;
  api_ = std::make_unique<ThreadApi>(*ctx_);
  body_ = make_body(*api_);
  wake();  // an unbound core sleeps; a freshly bound thread has work
}

void Core::resume(Cycle now) {
  if (!started_) {
    started_ = true;
    body_.start();
  } else {
    GLOCKS_CHECK(ctx_->resume_point, "resuming a thread with no suspension");
    auto h = ctx_->resume_point;
    ctx_->resume_point = nullptr;
    h.resume();
  }
  if (body_.done()) {
    body_.rethrow_if_failed();
    ctx_->finished = true;
    ctx_->finish_cycle = now;
  }
}

void Core::go_dormant(Cycle now) {
  using Wait = ThreadContext::Wait;
  dormant_ = true;
  last_tick_ = now;
  dormant_wait_ = ctx_->wait;
  Category charge = ctx_->category;
  if (charge == Category::kBusy && dormant_wait_ == Wait::kMem) {
    charge = Category::kMemory;
  }
  dormant_charge_ = static_cast<std::size_t>(charge);
  // The wait states whose serial tick increments gline_spin_cycles while
  // the condition is still false (kGlineRel does not spin-count).
  dormant_spin_ = dormant_wait_ == Wait::kGlineReq ||
                  dormant_wait_ == Wait::kGBarrier ||
                  dormant_wait_ == Wait::kSbWait ||
                  dormant_wait_ == Wait::kQolbAcq ||
                  dormant_wait_ == Wait::kQolbRel;
  if (dormant_wait_ == Wait::kCompute) {
    sleep_until(now + ctx_->compute_remaining);  // self-timed
  } else {
    sleep();  // the completing hardware / callback delivers the wake
  }
}

void Core::tick(Cycle now) {
  if (ctx_ == nullptr || ctx_->finished) {
    sleep();
    return;
  }

  if (dormant_) {
    // Replay the cycles the kernel skipped: under the serial loop each of
    // them would have charged one cycle to the category captured at
    // sleep time (and spun / counted down compute where applicable).
    dormant_ = false;
    const Cycle missed = now - last_tick_ - 1;
    if (missed > 0) {
      ctx_->cycles[dormant_charge_] += missed;
      if (dormant_spin_) ctx_->gline_spin_cycles += missed;
      if (dormant_wait_ == ThreadContext::Wait::kCompute) {
        ctx_->compute_remaining -= missed;
      }
    }
  }

  // Attribute this live cycle (paper Figure 8 breakdown). Lock/Barrier
  // scopes dominate; otherwise blocked-on-memory cycles are Memory and
  // everything else is Busy.
  Category charge = ctx_->category;
  if (charge == Category::kBusy && ctx_->wait == ThreadContext::Wait::kMem) {
    charge = Category::kMemory;
  }
  ++ctx_->cycles[static_cast<std::size_t>(charge)];

  switch (ctx_->wait) {
    case ThreadContext::Wait::kReady:
      resume(now);
      break;
    case ThreadContext::Wait::kCompute:
      GLOCKS_CHECK(ctx_->compute_remaining > 0, "compute wait with 0 left");
      if (--ctx_->compute_remaining == 0) {
        ctx_->wait = ThreadContext::Wait::kReady;
        resume(now);
      }
      break;
    case ThreadContext::Wait::kMem:
      // The L1 completion callback flips wait to kReady; nothing to do.
      break;
    case ThreadContext::Wait::kGlineReq:
      // Spinning on the lock_req register: granted when the local G-line
      // controller resets it (paper Figure 5's busy-wait loop).
      if (!ctx_->lock_regs->req[ctx_->gline_id]) {
        ctx_->wait = ThreadContext::Wait::kReady;
        resume(now);
      } else {
        ++ctx_->gline_spin_cycles;
      }
      break;
    case ThreadContext::Wait::kGlineRel:
      if (!ctx_->lock_regs->rel[ctx_->gline_id]) {
        ctx_->wait = ThreadContext::Wait::kReady;
        resume(now);
      }
      break;
    case ThreadContext::Wait::kGBarrier:
      if (!ctx_->barrier_regs->wait[ctx_->gline_id]) {
        ctx_->wait = ThreadContext::Wait::kReady;
        resume(now);
      } else {
        ++ctx_->gline_spin_cycles;
      }
      break;
    case ThreadContext::Wait::kSbWait:
      if (ctx_->sb_station->granted) {
        ctx_->sb_station->waiting = false;
        ctx_->sb_station->granted = false;
        ctx_->wait = ThreadContext::Wait::kReady;
        resume(now);
      } else {
        ++ctx_->gline_spin_cycles;  // local register spin, same cost class
      }
      break;
    case ThreadContext::Wait::kQolbAcq:
      if (ctx_->qolb_station->granted) {
        ctx_->qolb_station->waiting = false;
        ctx_->qolb_station->granted = false;
        ctx_->wait = ThreadContext::Wait::kReady;
        resume(now);
      } else {
        ++ctx_->gline_spin_cycles;
      }
      break;
    case ThreadContext::Wait::kQolbRel:
      if (ctx_->qolb_station->release_done) {
        ctx_->qolb_station->release_done = false;
        ctx_->qolb_station->holding = false;
        ctx_->wait = ThreadContext::Wait::kReady;
        resume(now);
      } else {
        ++ctx_->gline_spin_cycles;
      }
      break;
  }

  if (ctx_->finished) {
    if (!finish_reported_) {
      finish_reported_ = true;
      if (on_finish_) on_finish_();
    }
    sleep();
    return;
  }
  // kReady means the thread runs again next cycle; every other wait state
  // has a guaranteed wake (compute timer, completion callback, or the
  // register-clearing hardware), so the skipped cycles can be replayed.
  if (ctx_->wait != ThreadContext::Wait::kReady) go_dormant(now);
}

namespace {

void save_bool_vec(ckpt::ArchiveWriter& a, const std::vector<bool>& v) {
  a.u32(static_cast<std::uint32_t>(v.size()));
  for (bool bit : v) a.b(bit);
}

}  // namespace

void Core::save(ckpt::ArchiveWriter& a) const {
  save_bool_vec(a, lock_regs_.req);
  save_bool_vec(a, lock_regs_.rel);
  save_bool_vec(a, barrier_regs_.arrive);
  save_bool_vec(a, barrier_regs_.wait);
  mem::save_sb_station(a, sb_station_);
  mem::save_qolb_station(a, qolb_station_);
  a.b(started_);
  a.b(finish_reported_);
  a.b(dormant_);
  a.b(dormant_spin_);
  a.u64(static_cast<std::uint64_t>(dormant_charge_));
  a.u8(static_cast<std::uint8_t>(dormant_wait_));
  a.u64(last_tick_);
  a.b(ctx_ != nullptr);
  if (ctx_ == nullptr) return;
  const ThreadContext& t = *ctx_;
  a.u8(static_cast<std::uint8_t>(t.wait));
  a.u64(t.compute_remaining);
  a.u64(t.mem_result);
  a.u32(t.gline_id);
  a.b(t.finished);
  a.u8(static_cast<std::uint8_t>(t.category));
  for (std::uint64_t c : t.cycles) a.u64(c);
  a.u64(t.uops);
  a.u64(t.gline_spin_cycles);
  a.u64(t.finish_cycle);
}

}  // namespace glocks::core
