#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "locks/factory.hpp"
#include "workloads/registry.hpp"

namespace glocks::ckpt {

namespace {

void save_lock_kind(ArchiveWriter& a, locks::LockKind k) {
  a.str(std::string(locks::to_string(k)));
}

locks::LockKind load_lock_kind(ArchiveReader& a) {
  const std::string name = a.str();
  const auto k = locks::parse_lock_kind(name);
  if (!k) {
    throw CkptError(CkptError::Code::kBadSection,
                    "checkpoint names unknown lock kind '" + name + "'");
  }
  return *k;
}

}  // namespace

void save_run_spec(ArchiveWriter& a, const RunSpec& spec) {
  a.str(spec.workload);
  a.f64(spec.scale);
  a.u64(spec.seed);

  const CmpConfig& c = spec.cmp;
  a.u32(c.num_cores);
  a.u32(c.clock_mhz);
  a.u32(c.issue_width);
  a.u64(c.memory_latency);
  a.u32(c.l1.size_bytes);
  a.u32(c.l1.ways);
  a.u64(c.l1.access_latency);
  a.u32(c.l2.slice_size_bytes);
  a.u32(c.l2.ways);
  a.u64(c.l2.tag_latency);
  a.u64(c.l2.data_latency);
  a.u64(c.noc.router_latency);
  a.u64(c.noc.link_latency);
  a.u32(c.noc.link_width_bytes);
  a.u32(c.noc.input_queue_depth);
  a.u32(c.noc.control_msg_bytes);
  a.u32(c.noc.data_msg_bytes);
  a.b(c.noc.express_routes);
  a.u32(c.gline.num_glocks);
  a.u32(c.gline.num_gbarriers);
  a.u64(c.gline.signal_latency);
  a.b(c.gline.hierarchical);
  a.u32(c.gline.max_transmitters_per_line);
  save_fault_config(a, c.fault);
  a.u64(c.max_cycles);
  a.u8(static_cast<std::uint8_t>(c.engine_mode));
  a.u64(c.drain_budget);

  save_lock_kind(a, spec.policy.highly_contended);
  save_lock_kind(a, spec.policy.regular);
  a.u32(static_cast<std::uint32_t>(spec.policy.overrides.size()));
  for (const auto& [name, kind] : spec.policy.overrides) {  // map: sorted
    a.str(name);
    save_lock_kind(a, kind);
  }

  const power::EnergyParams& e = spec.energy;
  a.f64(e.core_uop_pj);
  a.f64(e.core_stall_cycle_pj);
  a.f64(e.core_regspin_cycle_pj);
  a.f64(e.l1_access_pj);
  a.f64(e.l2_access_pj);
  a.f64(e.dir_lookup_pj);
  a.f64(e.noc_byte_hop_pj);
  a.f64(e.memory_access_pj);
  a.f64(e.gline_signal_pj);
  a.f64(e.gline_controller_pj);
  a.f64(e.tile_leakage_pj_per_cycle);
}

RunSpec load_run_spec(ArchiveReader& a) {
  RunSpec spec;
  spec.workload = a.str();
  spec.scale = a.f64();
  spec.seed = a.u64();

  CmpConfig& c = spec.cmp;
  c.num_cores = a.u32();
  c.clock_mhz = a.u32();
  c.issue_width = a.u32();
  c.memory_latency = a.u64();
  c.l1.size_bytes = a.u32();
  c.l1.ways = a.u32();
  c.l1.access_latency = a.u64();
  c.l2.slice_size_bytes = a.u32();
  c.l2.ways = a.u32();
  c.l2.tag_latency = a.u64();
  c.l2.data_latency = a.u64();
  c.noc.router_latency = a.u64();
  c.noc.link_latency = a.u64();
  c.noc.link_width_bytes = a.u32();
  c.noc.input_queue_depth = a.u32();
  c.noc.control_msg_bytes = a.u32();
  c.noc.data_msg_bytes = a.u32();
  c.noc.express_routes = a.b();
  c.gline.num_glocks = a.u32();
  c.gline.num_gbarriers = a.u32();
  c.gline.signal_latency = a.u64();
  c.gline.hierarchical = a.b();
  c.gline.max_transmitters_per_line = a.u32();
  c.fault.enabled = a.b();
  c.fault.seed = a.u64();
  c.fault.drop_rate = a.f64();
  c.fault.garble_rate = a.f64();
  c.fault.delay_rate = a.f64();
  c.fault.max_delay = a.u32();
  c.fault.noise_rate = a.f64();
  c.fault.stuck_rate = a.f64();
  c.fault.stuck_horizon = a.u64();
  c.fault.watchdog_timeout = a.u64();
  c.fault.backoff_cap = a.u64();
  c.fault.max_retries = a.u32();
  c.fault.fallback_tatas = a.b();
  MeshFaultConfig& m = c.fault.mesh;
  m.enabled = a.b();
  m.drop_rate = a.f64();
  m.garble_rate = a.f64();
  m.delay_rate = a.f64();
  m.max_delay = a.u32();
  m.dead_rate = a.f64();
  m.dead_horizon = a.u64();
  m.retry_timeout = a.u64();
  m.backoff_cap = a.u64();
  m.max_retries = a.u32();
  m.e2e_timeout = a.u64();
  m.e2e_max_retries = a.u32();
  const std::uint32_t nkills = a.u32();
  m.kills.clear();
  for (std::uint32_t i = 0; i < nkills; ++i) {
    LinkKill k;
    k.tile = a.u32();
    k.dir = a.u32();
    k.at = a.u64();
    m.kills.push_back(k);
  }
  c.max_cycles = a.u64();
  const std::uint8_t mode = a.u8();
  if (mode > static_cast<std::uint8_t>(EngineMode::kSerial)) {
    throw CkptError(CkptError::Code::kBadSection,
                    "checkpoint names an unknown engine mode");
  }
  c.engine_mode = static_cast<EngineMode>(mode);
  c.drain_budget = a.u64();

  spec.policy.highly_contended = load_lock_kind(a);
  spec.policy.regular = load_lock_kind(a);
  const std::uint32_t n_overrides = a.u32();
  for (std::uint32_t i = 0; i < n_overrides; ++i) {
    const std::string name = a.str();
    spec.policy.overrides[name] = load_lock_kind(a);
  }

  power::EnergyParams& e = spec.energy;
  e.core_uop_pj = a.f64();
  e.core_stall_cycle_pj = a.f64();
  e.core_regspin_cycle_pj = a.f64();
  e.l1_access_pj = a.f64();
  e.l2_access_pj = a.f64();
  e.dir_lookup_pj = a.f64();
  e.noc_byte_hop_pj = a.f64();
  e.memory_access_pj = a.f64();
  e.gline_signal_pj = a.f64();
  e.gline_controller_pj = a.f64();
  e.tile_leakage_pj_per_cycle = a.f64();
  return spec;
}

std::vector<std::uint8_t> encode_checkpoint(const RunSpec& spec, Cycle cycle,
                                            harness::CmpSystem& sys) {
  // META = [pause cycle][run spec], then the machine sections.
  ArchiveWriter a;
  a.begin_section(tags::kMeta);
  a.u64(cycle);
  save_run_spec(a, spec);
  a.end_section();
  sys.save_state(a);
  return a.buffer();
}

void write_checkpoint(const std::string& path, const RunSpec& spec,
                      Cycle cycle, harness::CmpSystem& sys) {
  write_archive_file(path, encode_checkpoint(spec, cycle, sys));
}

namespace {

CkptMeta read_meta(ArchiveReader& r) {
  if (!r.next_section() || r.section_tag() != tags::kMeta) {
    throw CkptError(CkptError::Code::kBadSection,
                    "checkpoint is missing the meta section");
  }
  CkptMeta meta;
  meta.cycle = r.u64();
  meta.spec = load_run_spec(r);
  if (r.section_remaining() != 0) {
    throw CkptError(CkptError::Code::kBadSection,
                    "checkpoint meta section has trailing bytes");
  }
  return meta;
}

}  // namespace

CkptMeta read_checkpoint_meta(const std::string& path) {
  ArchiveReader r = ArchiveReader::from_file(path);
  return read_meta(r);
}

std::string checkpoint_path(const std::string& dir, const RunSpec& spec,
                            Cycle cycle) {
  return dir + "/" + spec.workload + "-" + std::to_string(cycle) + ".ckpt";
}

std::vector<Cycle> periodic_pauses(Cycle every, Cycle max_cycles) {
  std::vector<Cycle> out;
  if (every == 0) return out;
  // Pauses past the cycle the run actually finishes at are skipped by
  // CmpSystem::run, so this list is an upper bound; cap it so a tiny
  // period against the default 2e9-cycle hard stop cannot OOM.
  constexpr std::size_t kMaxPeriodic = 1u << 20;
  for (Cycle p = every; p < max_cycles && out.size() < kMaxPeriodic;
       p += every) {
    out.push_back(p);
  }
  return out;
}

harness::RunResult run_with_checkpoints(const RunSpec& spec,
                                        const std::vector<Cycle>& pause_at,
                                        const std::string& dir,
                                        std::vector<std::string>* written) {
  const auto wl = workloads::make_workload(spec.workload, spec.scale);
  harness::RunConfig cfg;
  cfg.cmp = spec.cmp;
  cfg.policy = spec.policy;
  cfg.seed = spec.seed;
  cfg.energy = spec.energy;
  harness::RunHooks hooks;
  hooks.pause_at = pause_at;
  hooks.on_pause = [&](harness::CmpSystem& sys, Cycle at) {
    const std::string path = checkpoint_path(dir, spec, at);
    write_checkpoint(path, spec, at, sys);
    if (written != nullptr) written->push_back(path);
  };
  return harness::run_workload(*wl, cfg, hooks);
}

namespace {

std::string fourcc(std::uint32_t tag) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char ch = static_cast<char>((tag >> (8 * i)) & 0xFF);
    if (ch >= 32 && ch < 127) s[static_cast<std::size_t>(i)] = ch;
  }
  return s;
}

/// Names the first point where the replayed archive differs from the
/// saved one, in terms a human can act on: byte offset + the section that
/// offset falls in, read from whichever archive holds that byte (the
/// longer one, when the other is a prefix of it).
std::string divergence_message(const std::vector<std::uint8_t>& saved,
                               const std::vector<std::uint8_t>& replayed) {
  const std::size_t n = std::min(saved.size(), replayed.size());
  std::size_t diff = 0;
  while (diff < n && saved[diff] == replayed[diff]) ++diff;
  const std::vector<std::uint8_t>& holder =
      diff < saved.size() ? saved : replayed;

  // Walk that archive's frames: 12-byte header, then per section
  // [u32 tag][u64 len][payload][u32 crc], all little-endian.
  std::string section = "header";
  std::size_t pos = 12;
  while (diff >= pos && pos + 12 <= holder.size()) {
    std::uint32_t tag = 0;
    for (int i = 0; i < 4; ++i) {
      tag |= static_cast<std::uint32_t>(
                 holder[pos + static_cast<std::size_t>(i)])
             << (8 * i);
    }
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(
                 holder[pos + 4 + static_cast<std::size_t>(i)])
             << (8 * i);
    }
    const std::size_t end = pos + 12 + static_cast<std::size_t>(len) + 4;
    if (diff < end || end > holder.size()) {
      section = fourcc(tag);
      break;
    }
    pos = end;
  }

  std::ostringstream oss;
  oss << "restore divergence: replayed machine state differs from the "
         "checkpoint at byte "
      << diff << " (section " << section << "; saved " << saved.size()
      << " bytes, replayed " << replayed.size() << ")";
  return oss.str();
}

}  // namespace

harness::RunResult restore_and_run(const std::string& path) {
  ArchiveReader r = ArchiveReader::from_file(path);
  const CkptMeta meta = read_meta(r);

  // Validate the whole archive up front — every section's CRC, framing,
  // and the absence of truncation. A damaged file must be rejected as
  // damaged (kBadCrc / kTruncated / kBadSection) before any replay
  // starts, not surface minutes later as a confusing divergence report.
  {
    ArchiveReader check(r.data());
    std::vector<std::uint8_t> skip;
    while (check.next_section()) {
      skip.resize(check.section_remaining());
      check.bytes(skip.data(), skip.size());
    }
  }

  const auto wl = workloads::make_workload(meta.spec.workload,
                                           meta.spec.scale);
  harness::RunConfig cfg;
  cfg.cmp = meta.spec.cmp;
  cfg.policy = meta.spec.policy;
  cfg.seed = meta.spec.seed;
  cfg.energy = meta.spec.energy;

  bool verified = false;
  harness::RunHooks hooks;
  hooks.pause_at = {meta.cycle};
  hooks.on_pause = [&](harness::CmpSystem& sys, Cycle at) {
    const std::vector<std::uint8_t> replayed =
        encode_checkpoint(meta.spec, at, sys);
    if (replayed != r.data()) {
      throw CkptError(CkptError::Code::kStateDivergence,
                      divergence_message(r.data(), replayed));
    }
    verified = true;
  };
  harness::RunResult result = harness::run_workload(*wl, cfg, hooks);
  if (!verified) {
    throw CkptError(
        CkptError::Code::kStateDivergence,
        "restore divergence: the replayed run finished before cycle " +
            std::to_string(meta.cycle) +
            ", where the checkpoint was taken — the checkpoint does not "
            "belong to this run");
  }
  return result;
}

}  // namespace glocks::ckpt
