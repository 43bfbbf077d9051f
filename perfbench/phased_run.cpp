#include "phased_run.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "power/energy_model.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

using namespace glocks;

/// Opens a span on construction and closes it on destruction; a null
/// log records nothing.
class Phase {
 public:
  Phase(SpanLog* log, const char* name, std::int32_t parent,
        std::int32_t point)
      : log_(log), id_(log != nullptr ? log->begin(name, parent, point) : -1) {}
  ~Phase() {
    if (log_ != nullptr) log_->end(id_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// A machine with its workload bound, ready to run.
struct Machine {
  std::unique_ptr<harness::Workload> workload;
  std::unique_ptr<harness::CmpSystem> sys;
  std::unique_ptr<harness::WorkloadContext> ctx;
};

/// Everything run_workload does before CmpSystem::run, one span per call.
Machine build(const std::string& name, double scale,
              const harness::RunConfig& cfg, SpanLog* log,
              std::int32_t parent, std::int32_t point) {
  Machine m;
  {
    const Phase p(log, "workloads.make", parent, point);
    m.workload = workloads::make_workload(name, scale);
  }
  {
    const Phase p(log, "harness.build", parent, point);
    m.sys = std::make_unique<harness::CmpSystem>(cfg.cmp);
  }
  {
    const Phase p(log, "workloads.setup", parent, point);
    harness::CmpSystem& sys = *m.sys;
    m.ctx = std::make_unique<harness::WorkloadContext>(sys, cfg.policy,
                                                       cfg.seed);
    harness::Workload* wl = m.workload.get();
    harness::WorkloadContext* ctx = m.ctx.get();
    wl->setup(*ctx);
    for (CoreId c = 0; c < sys.num_cores(); ++c) {
      sys.core(c).bind(c, sys.num_cores(), sys.hierarchy().l1(c),
                       [wl, ctx](core::ThreadApi& api) {
                         return wl->thread_body(api, *ctx);
                       });
    }
    for (CoreId c = 0; c < sys.num_cores(); ++c) {
      sys.core(c).context().engine = &sys.engine();
    }
  }
  return m;
}

/// Tears the machine down in run_workload's order: context, system, then
/// the workload its caller owned.
void teardown(Machine& m, SpanLog* log, std::int32_t parent,
              std::int32_t point) {
  const Phase p(log, "harness.teardown", parent, point);
  m.ctx.reset();
  m.sys.reset();
  m.workload.reset();
}

}  // namespace

std::int32_t SpanLog::begin(const char* name, std::int32_t parent,
                            std::int32_t point) {
  const double t = now();
  spans_.push_back(Span{name, t, t, parent, point});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end = now();
}

void SpanLog::absorb(SpanLog&& other, std::int32_t root) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 ? root : s.parent + base;
    spans_.push_back(s);
  }
  other.spans_.clear();
}

double SpanLog::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

harness::RunResult run_phased(const std::string& workload, double scale,
                              const harness::RunConfig& cfg, SpanLog& log,
                              std::int32_t parent, std::int32_t point) {
  const perf::WallTimer timer;
  Machine m = build(workload, scale, cfg, &log, parent, point);
  harness::CmpSystem& sys = *m.sys;

  harness::RunResult r;
  r.workload = m.workload->name();
  r.hc_lock_kind =
      std::string(locks::to_string(cfg.policy.highly_contended));
  {
    const Phase p(&log, "sim.run", parent, point);
    r.cycles = sys.run();
  }
  {
    const Phase p(&log, "harness.collect", parent, point);
    r.perf = perf::capture(sys.engine(), timer.seconds());
    const auto& ps = sys.hierarchy().msg_pool_stats();
    const auto& xp = sys.mesh().express_perf();
    r.perf.msg.pool_heap_allocs = ps.heap_allocs;
    r.perf.msg.pool_heap_bytes = ps.heap_bytes;
    r.perf.msg.pool_acquires = ps.acquires;
    r.perf.msg.pool_reuses = ps.reuses;
    r.perf.msg.pool_high_water = ps.high_water;
    r.perf.msg.express_hits = xp.hits;
    r.perf.msg.express_declined = xp.declined;
    r.perf.msg.express_materialized = xp.materialized;
  }
  {
    const Phase p(&log, "workloads.verify", parent, point);
    m.workload->verify(*m.ctx);
  }
  {
    const Phase p(&log, "harness.collect", parent, point);
    for (CoreId c = 0; c < sys.num_cores(); ++c) {
      const core::ThreadContext& t = sys.core(c).context();
      for (std::size_t i = 0; i < core::kNumCategories; ++i) {
        r.category_cycles[i] += t.cycles[i];
      }
      r.uops += t.uops;
      r.gline_spin_cycles += t.gline_spin_cycles;
    }
    r.traffic = sys.mesh().stats();
    r.l1 = sys.hierarchy().total_l1_stats();
    r.dir = sys.hierarchy().total_dir_stats();
    r.gline = sys.glines().total_stats();
    r.fault = sys.glines().finalize_fault_stats();
    const auto& census = sys.census();
    for (std::size_t i = 0; i < census.num_locks(); ++i) {
      const auto& stats = census.lock_stats(i);
      harness::RunResult::LockCensus lc;
      lc.name = stats.name;
      lc.acquires = stats.acquires;
      lc.jain_fairness = stats.jain_index(sys.num_cores());
      const auto& by_thread = stats.acquires_by_thread;
      lc.max_thread_acquires =
          by_thread.empty()
              ? 0
              : *std::max_element(by_thread.begin(), by_thread.end());
      lc.min_thread_acquires =
          by_thread.size() < sys.num_cores()
              ? 0
              : *std::min_element(by_thread.begin(), by_thread.end());
      lc.census = census.histogram(i);
      r.lock_census.push_back(std::move(lc));
    }
  }
  {
    const Phase p(&log, "power.estimate", parent, point);
    power::ActivityCounts act;
    act.cycles = r.cycles;
    act.num_tiles = sys.num_cores();
    act.uops = r.uops;
    act.busy_cycles = r.category_cycles[0];
    act.stall_cycles = r.total_thread_cycles() - r.category_cycles[0];
    act.gline_spin_cycles = r.gline_spin_cycles;
    act.l1 = r.l1;
    act.dir = r.dir;
    act.noc = r.traffic;
    act.gline = r.gline;
    const power::EnergyModel model(cfg.energy);
    r.energy = model.estimate(act);
    r.ed2p =
        power::EnergyModel::ed2p(r.energy, r.cycles, cfg.cmp.clock_mhz);
  }
  teardown(m, &log, parent, point);
  return r;
}

double setup_seconds(const std::string& workload, double scale,
                     const harness::RunConfig& cfg) {
  const perf::WallTimer timer;
  Machine m = build(workload, scale, cfg, nullptr, -1, -1);
  const double s = timer.seconds();
  teardown(m, nullptr, -1, -1);
  return s;
}

}  // namespace perfbench
