#include "gline/gbarrier_unit.hpp"

#include "common/check.hpp"

namespace glocks::gline {

GBarrierUnit::GBarrierUnit(std::uint32_t unit, std::uint32_t num_cores,
                           std::uint32_t mesh_width, Cycle signal_latency,
                           std::vector<glocks::core::BarrierRegisters*> regs)
    : unit_(unit), regs_(std::move(regs)), lcs_(num_cores, LcState::kIdle) {
  GLOCKS_CHECK(regs_.size() == num_cores, "one register file per core");
  // The mesh rows under one root, like the flat GLock network.
  const TokenTree tree = build_token_tree({.num_cores = num_cores,
                                           .group = mesh_width,
                                           .colocate_middle = true});
  num_glines_ = tree.num_glines;
  links_ = make_links(tree, signal_latency);
  for (std::size_t r = 0; r + 1 < tree.nodes.size(); ++r) {
    rows_.push_back(Row{tree.nodes[r].children});
  }
}

void GBarrierUnit::record_pulse(Wire& w, Cycle now) {
  w.pulse(now);
  if (w.is_gline()) {
    ++stats_.signals;
  } else {
    ++stats_.local_flags;
  }
}

void GBarrierUnit::tick(Cycle now) {
  // Local controllers: consume arrive registers, deliver releases.
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    auto& regs = *regs_[c];
    switch (lcs_[c]) {
      case LcState::kIdle:
        if (regs.arrive[unit_]) {
          regs.arrive[unit_] = false;
          record_pulse(links_[c].up, now);
          lcs_[c] = LcState::kArrived;
        }
        break;
      case LcState::kArrived:
        if (links_[c].down.poll(now)) {
          regs.wait[unit_] = false;  // unblocks the core's register spin
          if (regs.owner != nullptr) regs.owner->wake();
          lcs_[c] = LcState::kIdle;
        }
        break;
    }
  }

  // Row aggregators: count arrivals, report upward, fan releases out.
  Link* const row_links = &links_[lcs_.size()];
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    Row& row = rows_[r];
    for (std::uint32_t m : row.members) {
      if (links_[m].up.poll(now)) ++row.arrived;
    }
    GLOCKS_CHECK(row.arrived <= row.members.size(),
                 "barrier row over-subscribed");
    if (!row.reported && row.arrived == row.members.size()) {
      record_pulse(row_links[r].up, now);
      row.reported = true;
    }
    if (row_links[r].down.poll(now)) {
      // Root release: broadcast to every member (multi-drop G-line).
      for (std::uint32_t m : row.members) {
        record_pulse(links_[m].down, now);
      }
      row.arrived = 0;
      row.reported = false;
    }
  }

  // Root: when every row has reported, release all rows at once.
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    if (row_links[r].up.poll(now)) ++rows_arrived_;
  }
  if (rows_arrived_ == rows_.size()) {
    rows_arrived_ = 0;
    ++stats_.episodes;
    for (std::uint32_t r = 0; r < rows_.size(); ++r) {
      record_pulse(row_links[r].down, now);
    }
  }
}

bool GBarrierUnit::dormant() const {
  for (const Link& l : links_) {
    if (!l.up.idle() || !l.down.idle()) return false;
  }
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    if (lcs_[c] == LcState::kIdle && regs_[c]->arrive[unit_]) return false;
  }
  for (const auto& row : rows_) {
    if (!row.reported && row.arrived == row.members.size()) return false;
  }
  return rows_arrived_ != rows_.size();
}

bool GBarrierUnit::idle() const {
  for (const Link& l : links_) {
    if (!l.up.idle() || !l.down.idle()) return false;
  }
  for (const LcState s : lcs_) {
    if (s != LcState::kIdle) return false;
  }
  for (const auto& row : rows_) {
    if (row.arrived != 0 || row.reported) return false;
  }
  return rows_arrived_ == 0;
}

// ---- checkpoint ----

void GBarrierUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(lcs_.size()));
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    a.u8(static_cast<std::uint8_t>(lcs_[c]));
    links_[c].up.save(a);
    links_[c].down.save(a);
  }
  a.u32(static_cast<std::uint32_t>(rows_.size()));
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    a.u32(rows_[r].arrived);
    a.b(rows_[r].reported);
    links_[lcs_.size() + r].up.save(a);
    links_[lcs_.size() + r].down.save(a);
  }
  a.u32(rows_arrived_);
  a.u64(stats_.episodes);
  a.u64(stats_.signals);
  a.u64(stats_.local_flags);
}

}  // namespace glocks::gline
