#include "gline/guarded_glock_unit.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "gline/token_tree.hpp"

namespace glocks::gline {

GuardedGlockUnit::GuardedGlockUnit(
    GlockId glock, std::uint32_t num_cores, std::uint32_t group,
    bool hierarchical, Cycle signal_latency, const FaultConfig& cfg,
    fault::FaultInjector* injector, fault::GlockHealth* health,
    std::vector<glocks::core::LockRegisters*> regs)
    : glock_(glock),
      cfg_(cfg),
      injector_(injector),
      health_(health),
      regs_(std::move(regs)) {
  GLOCKS_CHECK(regs_.size() == num_cores, "one register file per core");
  GLOCKS_CHECK(group >= 2, "guarded unit needs a group size of at least 2");
  GLOCKS_CHECK(injector_ != nullptr && health_ != nullptr,
               "guarded unit needs an injector and a health board");

  const TokenTree tree = build_token_tree({.num_cores = num_cores,
                                           .group = group,
                                           .hierarchical = hierarchical,
                                           .colocate_middle = true,
                                           .single_row_is_root = true});
  num_glines_ = tree.num_glines;
  leaves_.assign(num_cores, LcState::kIdle);
  links_.resize(num_cores + tree.nodes.size());
  for (const TreeNode& t : tree.nodes) {
    mgrs_.push_back(Mgr{t.children, std::vector<bool>(t.children.size())});
    for (std::uint32_t i = 0; i < t.children.size(); ++i) {
      links_[t.children[i]] = std::make_unique<FramedChannel>(
          signal_latency, t.local[i], cfg_, injector_, &stats_);
    }
  }
  mgrs_.back().has_token = true;  // token parks at the root
}

void GuardedGlockUnit::tick_leaf(CoreId c) {
  auto& regs = *regs_[c];
  FramedChannel& ch = *links_[c];
  LcState& state = leaves_[c];
  Sym s;
  switch (state) {
    case LcState::kIdle:
      // While failing, leave new requests parked in the registers: the
      // drain must not create fresh claims on the token, and after
      // demotion the register flush (plus the ResilientGlock reroute)
      // serves them in software.
      if (regs.req[glock_] && !failing_) {
        ch.send(0, Sym::kReq);
        state = LcState::kWaiting;
      }
      break;
    case LcState::kWaiting:
      if (ch.recv(0, s)) {
        GLOCKS_CHECK(s == Sym::kToken,
                     "leaf " << c << " expected TOKEN, got " << to_string(s));
        GLOCKS_CHECK(holder_count_ == 0,
                     "double token grant: core " << c << " granted while held");
        ++holder_count_;
        regs.req[glock_] = false;  // unblocks the core's register spin
        if (regs.owner != nullptr) regs.owner->wake();
        state = LcState::kHolding;
        ++stats_.acquires_granted;
      }
      break;
    case LcState::kHolding:
      if (regs.rel[glock_]) {
        ch.send(0, Sym::kRel);
        regs.rel[glock_] = false;
        if (regs.owner != nullptr) regs.owner->wake();
        state = LcState::kIdle;
        --holder_count_;
        ++stats_.releases;
      }
      break;
  }
}

void GuardedGlockUnit::tick_mgr(std::uint32_t idx) {
  Mgr& m = mgrs_[idx];
  FramedChannel* up = links_[leaves_.size() + idx].get();  // null at root
  // Absorb child symbols. Reliable delivery makes these exact (no toggle
  // ambiguity): a REQ always means "child wants the token".
  Sym s;
  for (std::uint32_t i = 0; i < m.children.size(); ++i) {
    while (links_[m.children[i]]->recv(1, s)) {
      if (s == Sym::kReq) {
        GLOCKS_CHECK(!m.fx[i], "duplicate REQ reached a manager");
        m.fx[i] = true;
      } else {
        GLOCKS_CHECK(s == Sym::kRel, "manager got " << to_string(s)
                                                    << " from a child");
        GLOCKS_CHECK(m.granted == static_cast<int>(i),
                     "REL from a child that was not granted");
        m.fx[i] = false;
        m.granted = -1;
      }
    }
  }
  if (up != nullptr) {
    while (up->recv(0, s)) {
      GLOCKS_CHECK(s == Sym::kToken, "manager expected TOKEN");
      GLOCKS_CHECK(!m.has_token, "duplicate token at a manager");
      m.has_token = true;
      m.granted = -1;
    }
  }

  if (failing_) return;  // no new grants or requests during the drain

  const bool any_pending =
      std::find(m.fx.begin(), m.fx.end(), true) != m.fx.end();

  if (!m.has_token) {
    if (up != nullptr && !m.requested && any_pending) {
      up->send(0, Sym::kReq);
      m.requested = true;
    }
    return;
  }
  if (m.granted != -1) return;

  // Round-robin pass over pending children (baseline policy).
  for (std::uint32_t p = m.pos; p < m.children.size(); ++p) {
    if (m.fx[p]) {
      m.granted = static_cast<int>(p);
      m.pos = p + 1;
      links_[m.children[p]]->send(1, Sym::kToken);
      return;
    }
  }
  m.pos = 0;
  if (up == nullptr) return;  // the root keeps the token parked
  m.has_token = false;
  m.requested = false;
  ++stats_.secondary_passes;
  up->send(0, Sym::kRel);
}

void GuardedGlockUnit::try_demote() {
  // Demotion is safe only once no leaf holds the token and no granted
  // token can still arrive on a live channel — a token landing after the
  // software fallback takes over would mean two lock owners.
  for (const LcState state : leaves_) {
    if (state == LcState::kHolding) return;
  }
  for (const Mgr& m : mgrs_) {
    if (m.granted == -1) continue;
    const std::uint32_t v = m.children[m.granted];
    if (v < leaves_.size() && leaves_[v] == LcState::kWaiting &&
        !links_[v]->dead()) {
      return;
    }
  }
  demoted_ = true;
  health_->demoted[glock_] = 1;
  injector_->counter(&fault::FaultStats::fallback_demotions)++;
  std::fill(leaves_.begin(), leaves_.end(), LcState::kIdle);
}

void GuardedGlockUnit::flush_registers() {
  // The hardware is out of the loop: complete every register handshake
  // immediately so core spins never wedge. The ResilientGlock wrapper
  // observes the demoted flag and takes the software lock instead, so
  // these "grants" confer no exclusive ownership.
  for (auto* regs : regs_) {
    const bool pending = regs->req[glock_] || regs->rel[glock_];
    regs->req[glock_] = false;
    regs->rel[glock_] = false;
    if (pending && regs->owner != nullptr) regs->owner->wake();
  }
}

void GuardedGlockUnit::tick(Cycle now) {
  if (demoted_) {
    flush_registers();
    return;
  }
  for (auto& ch : links_) {
    if (ch) ch->tick(now);
  }
  for (const auto& ch : links_) {
    if (ch && ch->dead()) failing_ = true;
  }
  for (CoreId c = 0; c < leaves_.size(); ++c) tick_leaf(c);
  for (std::uint32_t n = 0; n < mgrs_.size(); ++n) tick_mgr(n);
  if (failing_) try_demote();
}

std::optional<CoreId> GuardedGlockUnit::holder() const {
  for (CoreId c = 0; c < leaves_.size(); ++c) {
    if (leaves_[c] == LcState::kHolding) return c;
  }
  return std::nullopt;
}

bool GuardedGlockUnit::idle() const {
  if (demoted_) return true;  // software owns the lock from here on
  for (const auto& ch : links_) {
    if (ch && !ch->idle()) return false;
  }
  for (const LcState state : leaves_) {
    if (state != LcState::kIdle) return false;
  }
  for (const auto& m : mgrs_) {
    if (m.requested || (m.has_token && &m != &mgrs_.back()) ||
        m.granted != -1) {
      return false;
    }
    for (const bool f : m.fx) {
      if (f) return false;
    }
  }
  return true;
}

std::string GuardedGlockUnit::debug_dump() const {
  std::ostringstream oss;
  oss << "glock " << glock_ << (demoted_ ? " [demoted]" : "")
      << (failing_ && !demoted_ ? " [failing/draining]" : "") << "\n";
  oss << "  leaves:";
  for (CoreId c = 0; c < leaves_.size(); ++c) {
    const char* st = leaves_[c] == LcState::kIdle
                         ? "I"
                         : leaves_[c] == LcState::kWaiting ? "W" : "H";
    oss << " " << c << ":" << st << (links_[c]->dead() ? "!" : "");
  }
  oss << "\n";
  for (std::size_t n = 0; n < mgrs_.size(); ++n) {
    const Mgr& m = mgrs_[n];
    const FramedChannel* up = links_[leaves_.size() + n].get();
    oss << "  mgr " << n << (up ? "" : " (root)") << " token="
        << (m.has_token ? "yes" : "no") << " granted=" << m.granted
        << " req=" << (m.requested ? "yes" : "no")
        << (up && up->dead() ? " up-link=DEAD" : "") << " fx=[";
    for (std::size_t i = 0; i < m.fx.size(); ++i) {
      oss << (i ? "," : "") << (m.fx[i] ? 1 : 0);
    }
    oss << "]\n";
  }
  return oss.str();
}

// ---- checkpoint ----

void GuardedGlockUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(leaves_.size()));
  for (CoreId c = 0; c < leaves_.size(); ++c) {
    a.u8(static_cast<std::uint8_t>(leaves_[c]));
    links_[c]->save(a);
  }
  a.u32(static_cast<std::uint32_t>(mgrs_.size()));
  for (std::size_t n = 0; n < mgrs_.size(); ++n) {
    const Mgr& m = mgrs_[n];
    const auto& up = links_[leaves_.size() + n];
    a.u32(static_cast<std::uint32_t>(m.fx.size()));
    for (bool f : m.fx) a.b(f);
    a.b(up != nullptr);
    if (up != nullptr) up->save(a);
    a.b(m.has_token);
    a.b(m.requested);
    a.i64(m.granted);
    a.u32(m.pos);
  }
  a.u32(holder_count_);
  a.b(failing_);
  a.b(demoted_);
  save_gline_stats(a, stats_);
}

}  // namespace glocks::gline
