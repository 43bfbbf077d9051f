#include "gline/gbarrier_unit.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace glocks::gline {

GBarrierUnit::GBarrierUnit(std::uint32_t unit, std::uint32_t num_cores,
                           std::uint32_t mesh_width, Cycle signal_latency,
                           std::vector<glocks::core::BarrierRegisters*> regs)
    : unit_(unit), regs_(std::move(regs)) {
  GLOCKS_CHECK(regs_.size() == num_cores, "one register file per core");
  const std::uint32_t num_rows = (num_cores + mesh_width - 1) / mesh_width;
  const std::uint32_t r_row = num_rows / 2;

  std::vector<std::uint32_t> s_col(num_rows);
  for (std::uint32_t r = 0; r < num_rows; ++r) {
    const std::uint32_t row_size =
        std::min(mesh_width, num_cores - r * mesh_width);
    s_col[r] = row_size / 2;
    const bool local = r == r_row;
    rows_.emplace_back(signal_latency, local);
    if (!local) ++num_glines_;
  }
  lcs_.reserve(num_cores);
  for (CoreId c = 0; c < num_cores; ++c) {
    const std::uint32_t r = c / mesh_width;
    const bool local = (c % mesh_width) == s_col[r];
    lcs_.emplace_back(c, signal_latency, local);
    if (!local) ++num_glines_;
    rows_[r].members.push_back(c);
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
  for (auto& lc : lcs_) {
    auto& regs = *regs_[lc.core];
    switch (lc.state) {
      case LcState::kIdle:
        if (regs.arrive[unit_]) {
          regs.arrive[unit_] = false;
          record_pulse(lc.up, now);
          lc.state = LcState::kArrived;
        }
        break;
      case LcState::kArrived:
        if (lc.down.poll(now)) {
          regs.wait[unit_] = false;  // unblocks the core's register spin
          if (regs.owner != nullptr) regs.owner->wake();
          lc.state = LcState::kIdle;
        }
        break;
    }
  }

  // Row aggregators: count arrivals, report upward, fan releases out.
  for (auto& row : rows_) {
    for (std::uint32_t m : row.members) {
      if (lcs_[m].up.poll(now)) ++row.arrived;
    }
    GLOCKS_CHECK(row.arrived <= row.members.size(),
                 "barrier row over-subscribed");
    if (!row.reported && row.arrived == row.members.size()) {
      record_pulse(row.up, now);
      row.reported = true;
    }
    if (row.down.poll(now)) {
      // Root release: broadcast to every member (multi-drop G-line).
      for (std::uint32_t m : row.members) {
        record_pulse(lcs_[m].down, now);
      }
      row.arrived = 0;
      row.reported = false;
    }
  }

  // Root: when every row has reported, release all rows at once.
  for (auto& row : rows_) {
    if (row.up.poll(now)) ++rows_arrived_;
  }
  if (rows_arrived_ == rows_.size()) {
    rows_arrived_ = 0;
    ++stats_.episodes;
    for (auto& row : rows_) record_pulse(row.down, now);
  }
}

bool GBarrierUnit::dormant() const {
  for (const auto& lc : lcs_) {
    if (!lc.up.idle() || !lc.down.idle()) return false;
    if (lc.state == LcState::kIdle && regs_[lc.core]->arrive[unit_]) {
      return false;
    }
  }
  for (const auto& row : rows_) {
    if (!row.up.idle() || !row.down.idle()) return false;
    if (!row.reported && row.arrived == row.members.size()) return false;
  }
  return rows_arrived_ != rows_.size();
}

bool GBarrierUnit::idle() const {
  for (const auto& lc : lcs_) {
    if (lc.state != LcState::kIdle || !lc.up.idle() || !lc.down.idle()) {
      return false;
    }
  }
  for (const auto& row : rows_) {
    if (row.arrived != 0 || row.reported || !row.up.idle() ||
        !row.down.idle()) {
      return false;
    }
  }
  return rows_arrived_ == 0;
}

// ---- checkpoint ----

void GBarrierUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(lcs_.size()));
  for (const LocalCtl& lc : lcs_) {
    a.u8(static_cast<std::uint8_t>(lc.state));
    lc.up.save(a);
    lc.down.save(a);
  }
  a.u32(static_cast<std::uint32_t>(rows_.size()));
  for (const Row& r : rows_) {
    a.u32(r.arrived);
    a.b(r.reported);
    r.up.save(a);
    r.down.save(a);
  }
  a.u32(rows_arrived_);
  a.u64(stats_.episodes);
  a.u64(stats_.signals);
  a.u64(stats_.local_flags);
}

}  // namespace glocks::gline
