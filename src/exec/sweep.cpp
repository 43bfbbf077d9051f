#include "exec/sweep.hpp"

#include <map>
#include <sstream>

#include "common/check.hpp"
#include "exec/ordered_emitter.hpp"
#include "exec/parallel_for.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "workloads/registry.hpp"

namespace glocks::exec {

namespace {

struct GridPoint {
  std::string workload;
  locks::LockKind kind;
  std::uint32_t cores;
  std::uint64_t seed;
};

std::vector<GridPoint> expand(const SweepSpec& spec) {
  std::vector<GridPoint> grid;
  grid.reserve(sweep_size(spec));
  for (const auto& w : spec.workloads) {
    for (const auto k : spec.lock_kinds) {
      for (const auto c : spec.core_counts) {
        for (const auto s : spec.seeds) grid.push_back({w, k, c, s});
      }
    }
  }
  return grid;
}

}  // namespace

std::size_t sweep_size(const SweepSpec& spec) {
  return spec.workloads.size() * spec.lock_kinds.size() *
         spec.core_counts.size() * spec.seeds.size();
}

std::vector<std::uint8_t> sweep_signature(const SweepSpec& spec) {
  ckpt::ArchiveWriter w;
  w.begin_section(ckpt::tags::kSweepSpec);
  w.u32(static_cast<std::uint32_t>(spec.workloads.size()));
  for (const auto& name : spec.workloads) w.str(name);
  w.u32(static_cast<std::uint32_t>(spec.lock_kinds.size()));
  for (const auto k : spec.lock_kinds) {
    w.str(std::string(locks::to_string(k)));
  }
  w.u32(static_cast<std::uint32_t>(spec.core_counts.size()));
  for (const auto c : spec.core_counts) w.u32(c);
  w.u32(static_cast<std::uint32_t>(spec.seeds.size()));
  for (const auto s : spec.seeds) w.u64(s);
  w.f64(spec.scale);
  const FaultConfig& f = spec.fault;
  w.b(f.enabled);
  w.u64(f.seed);
  w.f64(f.drop_rate);
  w.f64(f.garble_rate);
  w.f64(f.delay_rate);
  w.u32(f.max_delay);
  w.f64(f.noise_rate);
  w.f64(f.stuck_rate);
  w.u64(f.stuck_horizon);
  w.u64(f.watchdog_timeout);
  w.u64(f.backoff_cap);
  w.u32(f.max_retries);
  w.b(f.fallback_tatas);
  const MeshFaultConfig& m = f.mesh;
  w.b(m.enabled);
  w.f64(m.drop_rate);
  w.f64(m.garble_rate);
  w.f64(m.delay_rate);
  w.u32(m.max_delay);
  w.f64(m.dead_rate);
  w.u64(m.dead_horizon);
  w.u64(m.retry_timeout);
  w.u64(m.backoff_cap);
  w.u32(m.max_retries);
  w.u64(m.e2e_timeout);
  w.u32(m.e2e_max_retries);
  w.u32(static_cast<std::uint32_t>(m.kills.size()));
  for (const LinkKill& k : m.kills) {
    w.u32(k.tile);
    w.u32(k.dir);
    w.u64(k.at);
  }
  w.end_section();
  return w.buffer();
}

void run_sweep(const SweepSpec& spec, std::ostream& os,
               perf::SimPerf* perf_out, ckpt::SweepManifest* manifest) {
  GLOCKS_CHECK(sweep_size(spec) > 0,
               "empty sweep grid: every axis needs at least one value");
  const std::vector<GridPoint> grid = expand(spec);

  os << "cores,seed,";
  harness::write_csv_header(os, spec.fault.enabled,
                            spec.fault.mesh.enabled);
  os.flush();

  // Rows a previous (interrupted) sweep already finished: emitted from
  // the manifest, never re-run. The manifest is keyed on the spec
  // signature, so a stored index always addresses the same grid point.
  const std::map<std::uint64_t, std::string> no_rows;
  const auto& done = manifest != nullptr ? manifest->completed() : no_rows;

  // Per-point slots, folded after the join: workers write disjoint
  // indices, so no locking is needed and the fold order is grid order
  // (deterministic) regardless of completion order.
  std::vector<perf::SimPerf> perfs(perf_out != nullptr ? grid.size() : 0);

  OrderedEmitter emitter(os, grid.size());
  for (const auto& [index, row] : done) {
    GLOCKS_CHECK(index < grid.size(),
                 "sweep manifest row index " << index
                                             << " outside the grid");
    emitter.emit(static_cast<std::size_t>(index), row);
  }
  // Each grid point builds its own machine inside run_workload — no
  // simulator state crosses threads; only the rendered row does.
  parallel_for(grid.size(), spec.jobs, [&](std::size_t i) {
    if (done.count(i) != 0) return;  // resumed from the manifest
    const GridPoint& p = grid[i];
    harness::RunConfig cfg;
    cfg.cmp.num_cores = p.cores;
    // Meshes past the flat G-line reach get the hierarchical network
    // rather than being rejected (the same rule as glocksim).
    cfg.cmp.gline.hierarchical = cfg.cmp.exceeds_flat_gline_reach();
    cfg.policy.highly_contended = p.kind;
    cfg.seed = p.seed;
    if (spec.fault.any()) {
      cfg.cmp.fault = spec.fault;
      // Each point gets its own fault schedule, replicable from the
      // (plan seed, workload seed) pair alone.
      cfg.cmp.fault.seed =
          spec.fault.seed ^ (p.seed * 0x9E3779B97F4A7C15ULL);
    }
    auto wl = workloads::make_workload(p.workload, spec.scale);
    const auto r = harness::run_workload(*wl, cfg);
    if (perf_out != nullptr) perfs[i] = r.perf;
    std::ostringstream row;
    row << p.cores << ',' << p.seed << ',';
    harness::write_csv_row(r, row, spec.fault.enabled,
                           spec.fault.mesh.enabled);
    // Record before emit: a kill between the two costs at worst one
    // re-run on resume, never a row the resumed CSV lacks.
    if (manifest != nullptr) manifest->record(i, row.str());
    emitter.emit(i, row.str());
  });
  if (perf_out != nullptr) {
    for (const auto& p : perfs) perf_out->add(p);
  }
}

}  // namespace glocks::exec
