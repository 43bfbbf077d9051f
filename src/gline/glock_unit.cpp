#include "gline/glock_unit.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace glocks::gline {

GlockUnit::GlockUnit(GlockId glock, std::uint32_t num_cores,
                     std::uint32_t group, Cycle signal_latency,
                     std::vector<glocks::core::LockRegisters*> regs,
                     bool hierarchical)
    : glock_(glock),
      circular_root_(!hierarchical),
      regs_(std::move(regs)),
      lcs_(num_cores, LcState::kIdle) {
  GLOCKS_CHECK(regs_.size() == num_cores, "one register file per core");
  // The flat network folds the middle child of every group into its
  // manager's tile; the hierarchical one wires every link as a G-line.
  TokenTree tree = build_token_tree({.num_cores = num_cores,
                                     .group = group,
                                     .hierarchical = hierarchical,
                                     .colocate_middle = !hierarchical});
  depth_ = tree.depth;
  num_glines_ = tree.num_glines;

  links_ = make_links(tree, signal_latency);
  for (TreeNode& t : tree.nodes) {
    Node& n = nodes_.emplace_back();
    n.children = std::move(t.children);
    n.fx.assign(n.children.size(), false);
  }
  nodes_.back().has_token = true;  // the token parks at the root
}

void GlockUnit::record_pulse(Wire& w, Cycle now) {
  w.pulse(now);
  if (w.is_gline()) {
    ++stats_.signals;
  } else {
    ++stats_.local_flags;
  }
}

void GlockUnit::tick_local(CoreId c, Cycle now) {
  auto& regs = *regs_[c];
  Link& link = links_[c];
  switch (lcs_[c]) {
    case LcState::kIdle:
      if (regs.req[glock_]) {
        record_pulse(link.up, now);  // REQ
        lcs_[c] = LcState::kWaiting;
      }
      break;
    case LcState::kWaiting:
      if (link.down.poll(now)) {  // TOKEN
        regs.req[glock_] = false;  // unblocks the core's register spin
        if (regs.owner != nullptr) regs.owner->wake();
        lcs_[c] = LcState::kHolding;
        ++stats_.acquires_granted;
      }
      break;
    case LcState::kHolding:
      if (regs.rel[glock_]) {
        record_pulse(link.up, now);  // REL
        regs.rel[glock_] = false;
        if (regs.owner != nullptr) regs.owner->wake();
        lcs_[c] = LcState::kIdle;
        ++stats_.releases;
      }
      break;
  }
}

void GlockUnit::tick_node(std::uint32_t idx, Cycle now) {
  Node& n = nodes_[idx];
  Link& link = links_[lcs_.size() + idx];
  const bool root = idx + 1 == nodes_.size();

  // Absorb this cycle's pulses from the children. The flag toggles:
  // 0 -> 1 records a REQ, 1 -> 0 a REL (paper Section III-D).
  for (std::uint32_t i = 0; i < n.children.size(); ++i) {
    if (links_[n.children[i]].up.poll(now)) {
      n.fx[i] = !n.fx[i];
      if (!n.fx[i]) {
        GLOCKS_CHECK(n.granted == static_cast<int>(i),
                     "REL from a child that does not hold the token");
        n.granted = -1;  // the holder released; schedule the next one
      }
    }
  }
  if (!root && link.down.poll(now)) {  // TOKEN from the parent
    GLOCKS_CHECK(!n.has_token, "duplicate token at a manager");
    n.has_token = true;
    n.granted = -1;
  }

  if (!n.has_token) {
    if (!n.requested && std::find(n.fx.begin(), n.fx.end(), true) !=
                            n.fx.end()) {
      record_pulse(link.up, now);  // REQ towards the parent
      n.requested = true;
    }
    return;
  }
  if (n.granted != -1) return;  // a child holds (or grant in flight)

  // RoundRobin(): scan upward from the pass position; NULL past the end.
  // The flat root's scan instead wraps around, so it never ends a pass.
  const bool circular = root && circular_root_;
  const auto size = static_cast<std::uint32_t>(n.children.size());
  const std::uint32_t span = circular ? size : size - n.pos;
  for (std::uint32_t k = 0; k < span; ++k) {
    const std::uint32_t p = (n.pos + k) % size;
    if (n.fx[p]) {
      n.granted = static_cast<int>(p);
      n.pos = circular ? (p + 1) % size : p + 1;
      record_pulse(links_[n.children[p]].down, now);  // TOKEN
      return;
    }
  }
  if (circular) return;
  n.pos = 0;
  if (root) return;  // the next pass starts next cycle
  // Pass finished: hand the token back so other subtrees get their turn,
  // even if lower-index requests arrived meanwhile (global fairness).
  n.has_token = false;
  n.requested = false;
  ++stats_.secondary_passes;
  record_pulse(link.up, now);  // REL towards the parent
}

void GlockUnit::tick(Cycle now) {
  for (CoreId c = 0; c < lcs_.size(); ++c) tick_local(c, now);
  // nodes_ is in level order, so a plain sweep runs bottom-up.
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) tick_node(n, now);
}

std::optional<CoreId> GlockUnit::holder() const {
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    if (lcs_[c] == LcState::kHolding) return c;
  }
  return std::nullopt;
}

bool GlockUnit::dormant() const {
  for (const Link& l : links_) {
    if (!l.up.idle() || !l.down.idle()) return false;
  }
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    const auto& regs = *regs_[c];
    if (lcs_[c] == LcState::kIdle && regs.req[glock_]) return false;
    if (lcs_[c] == LcState::kHolding && regs.rel[glock_]) return false;
  }
  for (const Node& n : nodes_) {
    const bool any_pending =
        std::find(n.fx.begin(), n.fx.end(), true) != n.fx.end();
    if (n.has_token && n.granted == -1) {
      // A free-to-schedule manager below the root either grants or hands
      // the token back next tick. The root only acts when a flag is
      // pending — but the linear root's stale scan position still gets
      // reset by its next tick.
      if (&n != &nodes_.back() || any_pending ||
          (!circular_root_ && n.pos != 0)) {
        return false;
      }
    }
    // A token-less manager with pending flags will request the token.
    if (!n.has_token && !n.requested && any_pending) return false;
  }
  return true;
}

bool GlockUnit::idle() const {
  for (const Link& l : links_) {
    if (!l.up.idle() || !l.down.idle()) return false;
  }
  for (const LcState s : lcs_) {
    if (s != LcState::kIdle) return false;
  }
  for (const Node& n : nodes_) {
    if (n.requested || n.granted != -1 ||
        (n.has_token && &n != &nodes_.back())) {
      return false;
    }
    for (const bool f : n.fx) {
      if (f) return false;
    }
  }
  return true;
}

// ---- checkpoint ----

void GlockUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(lcs_.size()));
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    a.u8(static_cast<std::uint8_t>(lcs_[c]));
    links_[c].up.save(a);
    links_[c].down.save(a);
  }
  // Managers below the root, then the root without the parent wires and
  // the token/request flags it never uses.
  a.u32(static_cast<std::uint32_t>(nodes_.size() - 1));
  for (std::uint32_t i = 0; i + 1 < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    a.u32(static_cast<std::uint32_t>(n.fx.size()));
    for (bool f : n.fx) a.b(f);
    links_[lcs_.size() + i].up.save(a);
    links_[lcs_.size() + i].down.save(a);
    a.b(n.has_token);
    a.b(n.requested);
    a.i64(n.granted);
    a.u32(n.pos);
  }
  const Node& root = nodes_.back();
  a.u32(static_cast<std::uint32_t>(root.fx.size()));
  for (bool f : root.fx) a.b(f);
  a.b(root.granted == -1);  // token home
  a.i64(root.granted);
  a.u32(root.pos);
  save_gline_stats(a, stats_);
}

}  // namespace glocks::gline
