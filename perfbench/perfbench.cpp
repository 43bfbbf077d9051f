// The benchmark binary. Runs a grid of simulator points in a closed loop for a
// time budget, checks every point's statistics against the serial
// reference kernel, and prints the raw measurements as one JSON line.
// run.py builds this binary, chooses the grid of each named workload and
// turns the raw measurements into the reported metrics.
//
// Every point runs clean (no faults), unsharded, without checkpoints or a
// tracer, on the event kernel, with the modelled caches starting empty.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "exec/parallel_for.hpp"
#include "exec/sweep.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "phased_run.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace glocks;
using perfbench::SpanLog;

#if !defined(__OPTIMIZE__)
constexpr const char* kUnmeasurable = "an unoptimised build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
constexpr const char* kUnmeasurable = "a sanitizer build";
#else
constexpr const char* kUnmeasurable = nullptr;
#endif

/// Largest core count the flat G-line network supports at unit signal
/// latency (a 7x7 mesh); bigger machines use the hierarchical network.
constexpr std::uint32_t kFlatGlineMaxCores = 49;

struct Options {
  std::vector<std::string> workloads;
  std::vector<locks::LockKind> locks;
  std::vector<std::uint32_t> cores;
  std::vector<std::uint64_t> seeds;
  double scale = 1.0;
  unsigned jobs = 1;
  /// Untraced passes go through exec::run_sweep instead of one
  /// harness::run_workload call per point.
  bool sweep = false;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  /// Test hook: perturbs this point's reference so it must fail.
  long corrupt_point = -1;
};

struct Point {
  std::string workload;
  locks::LockKind kind;
  std::uint32_t cores;
  std::uint64_t seed;
};

/// What one pass produced for one point: an error, or its statistics.
struct Outcome {
  std::string error;
  std::string digest;  ///< empty for run_sweep passes (rows only)
  std::string row;
  std::vector<std::uint64_t> counts;
  double seconds = 0.0;  ///< host time, where the pass measures it
};

struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  std::uint64_t sim_cycles = 0;
  std::vector<Outcome> points;
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "glocks_perfbench: " << msg << "\n"
            << "usage: glocks_perfbench --workloads A,B --locks mcs,glock "
               "--cores 32 --seeds 1 [--scale X] [--jobs N] [--sweep 0|1] "
               "[--seconds S] [--trace 0|1] [--spans FILE] "
               "[--corrupt-point I]\n";
  std::exit(2);
}

std::vector<std::string> split(std::string_view s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? s.size() : comma;
    out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty() || v[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return x;
}

double parse_positive(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  double x = 0.0;
  try {
    x = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || !(x > 0.0)) {
    usage(flag + " needs a positive number, got '" + v + "'");
  }
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workloads") {
      o.workloads = split(v);
    } else if (flag == "--locks") {
      for (const auto& name : split(v)) {
        const auto kind = locks::parse_lock_kind(name);
        if (!kind) usage("unknown lock kind '" + name + "'");
        o.locks.push_back(*kind);
      }
    } else if (flag == "--cores") {
      for (const auto& c : split(v)) {
        const std::uint64_t n = parse_uint(flag, c);
        if (n == 0 || n > 4096) usage("--cores must be in [1, 4096]");
        o.cores.push_back(static_cast<std::uint32_t>(n));
      }
    } else if (flag == "--seeds") {
      for (const auto& s : split(v)) o.seeds.push_back(parse_uint(flag, s));
    } else if (flag == "--scale") {
      o.scale = parse_positive(flag, v);
      if (o.scale > 1.0) usage("--scale must be in (0, 1]");
    } else if (flag == "--jobs") {
      o.jobs = static_cast<unsigned>(parse_uint(flag, v));
      if (o.jobs == 0 || o.jobs > 256) usage("--jobs must be in [1, 256]");
    } else if (flag == "--sweep") {
      o.sweep = parse_uint(flag, v) != 0;
    } else if (flag == "--seconds") {
      o.seconds = parse_positive(flag, v);
    } else if (flag == "--trace") {
      o.trace = parse_uint(flag, v) != 0;
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else if (flag == "--corrupt-point") {
      o.corrupt_point = static_cast<long>(parse_uint(flag, v));
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (o.workloads.empty() || o.locks.empty() || o.cores.empty() ||
      o.seeds.empty()) {
    usage("--workloads, --locks, --cores and --seeds are required");
  }
  for (const auto& w : o.workloads) {
    try {
      (void)workloads::make_workload(w, o.scale);
    } catch (const std::exception& e) {
      usage(e.what());
    }
  }
  if (o.sweep && *std::max_element(o.cores.begin(), o.cores.end()) >
                     kFlatGlineMaxCores) {
    usage("--sweep runs the flat G-line network: --cores must be <= 49");
  }
  if (o.trace && o.spans_path.empty()) usage("--trace 1 needs --spans");
  return o;
}

/// Grid points in exec::run_sweep's order (workload outermost, seed
/// innermost), so point i is also row i of the sweep's CSV.
std::vector<Point> expand(const Options& o) {
  std::vector<Point> grid;
  for (const auto& w : o.workloads) {
    for (const auto k : o.locks) {
      for (const auto c : o.cores) {
        for (const auto s : o.seeds) grid.push_back({w, k, c, s});
      }
    }
  }
  return grid;
}

harness::RunConfig config_for(const Point& p) {
  harness::RunConfig cfg;
  cfg.cmp.num_cores = p.cores;
  cfg.cmp.gline.hierarchical = p.cores > kFlatGlineMaxCores;
  cfg.policy.highly_contended = p.kind;
  cfg.seed = p.seed;
  return cfg;
}

std::string describe(const Point& p) {
  std::ostringstream os;
  os << p.workload << '/' << locks::to_string(p.kind) << '/' << p.cores
     << "c/seed" << p.seed;
  return os.str();
}

/// Every simulated statistic the determinism contract covers, as
/// space-separated name=value tokens; doubles in hex so equality is
/// bit-for-bit.
std::string digest(const harness::RunResult& r) {
  std::ostringstream os;
  os << std::hexfloat << "workload=" << r.workload
     << " hc_lock=" << r.hc_lock_kind << " cycles=" << r.cycles;
  for (std::size_t i = 0; i < core::kNumCategories; ++i) {
    os << " category" << i << '=' << r.category_cycles[i];
  }
  os << " uops=" << r.uops << " gline_spin=" << r.gline_spin_cycles;
  for (const auto cls : {noc::MsgClass::kRequest, noc::MsgClass::kReply,
                         noc::MsgClass::kCoherence}) {
    const auto name = noc::to_string(cls);
    os << ' ' << name << ".bytes=" << r.traffic.bytes(cls) << ' ' << name
       << ".packets=" << r.traffic.packets(cls) << ' ' << name
       << ".hops=" << r.traffic.hops(cls);
  }
  const mem::L1Stats& l1 = r.l1;
  os << " l1.loads=" << l1.loads << " l1.stores=" << l1.stores
     << " l1.amos=" << l1.amos << " l1.hits=" << l1.hits
     << " l1.misses=" << l1.misses << " l1.upgrades=" << l1.upgrades
     << " l1.writebacks=" << l1.writebacks
     << " l1.invalidations=" << l1.invalidations_received
     << " l1.forwards=" << l1.forwards_served;
  const mem::DirStats& d = r.dir;
  os << " dir.gets=" << d.gets << " dir.getx=" << d.getx
     << " dir.upgrades=" << d.upgrades << " dir.putm=" << d.putm
     << " dir.stale_putm=" << d.stale_putm
     << " dir.invalidations=" << d.invalidations_sent
     << " dir.forwards=" << d.forwards_sent << " dir.l2_hits=" << d.l2_hits
     << " dir.l2_misses=" << d.l2_misses
     << " dir.memory_fetches=" << d.memory_fetches
     << " dir.memory_writebacks=" << d.memory_writebacks
     << " dir.deferred=" << d.deferred_requests;
  const gline::GlineStats& g = r.gline;
  os << " gline.signals=" << g.signals << " gline.local_flags="
     << g.local_flags << " gline.grants=" << g.acquires_granted
     << " gline.releases=" << g.releases
     << " gline.secondary_passes=" << g.secondary_passes;
  os << " energy_pj=" << r.energy.total() << " ed2p=" << r.ed2p;
  for (const auto& lc : r.lock_census) {
    os << " lock." << lc.name << ".acquires=" << lc.acquires;
  }
  return os.str();
}

/// The point's row exactly as exec::run_sweep writes it.
std::string csv_row(const Point& p, const harness::RunResult& r) {
  std::ostringstream os;
  os << p.cores << ',' << p.seed << ',';
  harness::write_csv_row(r, os);
  return os.str();
}

/// Names of the layer counters, in the order layer_counts() fills them.
const std::vector<std::string_view>& count_names() {
  static const std::vector<std::string_view> names = {
      "sim.ticks_executed", "sim.ticks_skipped",
      "sim.cycles_stepped", "sim.cycles_skipped", "sim.clock_jumps",
      "sim.wakes", "core.ticks", "core.wakes", "core.uops",
      "core.lock_cycles", "core.memory_cycles", "core.gline_spin_cycles",
      "mem.l1_ticks", "mem.dir_ticks", "mem.sync_station_ticks",
      "mem.l1_accesses", "mem.l1_hits", "mem.l1_misses", "mem.dir_requests",
      "mem.invalidations_sent", "mem.deferred_requests",
      "mem.pool_acquires", "mem.pool_reuses", "mem.pool_high_water",
      "noc.mesh_ticks", "noc.router_ticks", "noc.packets", "noc.hops",
      "noc.bytes_request", "noc.bytes_reply", "noc.bytes_coherence",
      "noc.express_hits", "noc.express_declined",
      "noc.express_materialized", "gline.ticks", "gline.signals",
      "gline.acquires", "gline.secondary_passes", "locks.acquires"};
  return names;
}

/// Counters folded over a pass by maximum rather than sum.
bool folds_by_max(std::string_view name) {
  return name == "mem.pool_high_water";
}

/// One point's layer counters, read from the public statistics.
std::vector<std::uint64_t> layer_counts(const harness::RunResult& r,
                                        std::uint32_t mesh_tiles) {
  std::uint64_t core_ticks = 0, core_wakes = 0, l1_ticks = 0, dir_ticks = 0,
                station_ticks = 0, mesh_ticks = 0, gline_ticks = 0;
  for (const sim::SlotPerf& s : r.perf.slots) {
    const std::string_view n = s.name;
    if (n.rfind("core", 0) == 0) {
      core_ticks += s.ticks;
      core_wakes += s.wakes;
    } else if (n.rfind("l1_", 0) == 0) {
      l1_ticks += s.ticks;
    } else if (n.rfind("dir", 0) == 0) {
      dir_ticks += s.ticks;
    } else if (n.rfind("sb", 0) == 0 || n.rfind("qolb", 0) == 0) {
      station_ticks += s.ticks;
    } else if (n == "mesh") {
      mesh_ticks += s.ticks;
    } else if (n == "glines") {
      gline_ticks += s.ticks;
    }
  }
  std::uint64_t lock_acquires = 0;
  for (const auto& lc : r.lock_census) lock_acquires += lc.acquires;
  const sim::EnginePerf& e = r.perf.engine;
  const perf::MsgPathPerf& m = r.perf.msg;
  const auto cat = [&](core::Category c) {
    return r.category_cycles[static_cast<std::size_t>(c)];
  };
  std::vector<std::uint64_t> v = {
      e.ticks_executed, e.ticks_skipped,
      e.cycles_stepped, e.cycles_skipped, e.clock_jumps, e.wakes_scheduled,
      core_ticks, core_wakes, r.uops, cat(core::Category::kLock),
      cat(core::Category::kMemory), r.gline_spin_cycles, l1_ticks,
      dir_ticks, station_ticks, r.l1.accesses(), r.l1.hits, r.l1.misses,
      r.dir.gets + r.dir.getx + r.dir.upgrades + r.dir.putm,
      r.dir.invalidations_sent, r.dir.deferred_requests, m.pool_acquires,
      m.pool_reuses, m.pool_high_water, mesh_ticks, mesh_ticks * mesh_tiles,
      r.traffic.total_packets(), r.traffic.total_hops(),
      r.traffic.bytes(noc::MsgClass::kRequest),
      r.traffic.bytes(noc::MsgClass::kReply),
      r.traffic.bytes(noc::MsgClass::kCoherence), m.express_hits,
      m.express_declined, m.express_materialized, gline_ticks,
      r.gline.signals, r.gline.acquires_granted, r.gline.secondary_passes,
      lock_acquires};
  return v;
}

/// Fills in the statistics of every point of `pass` that did not fail,
/// after the pass's timing has stopped.
void record(Pass& pass, const std::vector<Point>& grid,
            const std::vector<harness::RunResult>& results) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    Outcome& out = pass.points[i];
    if (!out.error.empty()) continue;
    const harness::RunResult& r = results[i];
    out.digest = digest(r);
    out.row = csv_row(grid[i], r);
    out.counts = layer_counts(r, config_for(grid[i]).cmp.mesh_tiles());
    pass.sim_cycles += r.perf.sim_cycles;
  }
}

/// One pass with one harness::run_workload call per point.
Pass run_grid_pass(const Options& o, const std::vector<Point>& grid) {
  Pass pass;
  pass.points.resize(grid.size());
  std::vector<harness::RunResult> results(grid.size());
  const perf::WallTimer timer;
  exec::parallel_for(grid.size(), o.jobs, [&](std::size_t i) {
    const Point& p = grid[i];
    const perf::WallTimer point_timer;
    try {
      auto wl = workloads::make_workload(p.workload, o.scale);
      results[i] = harness::run_workload(*wl, config_for(p));
    } catch (const std::exception& e) {
      pass.points[i].error = e.what();
    }
    pass.points[i].seconds = point_timer.seconds();
  });
  pass.wall_s = timer.seconds();
  record(pass, grid, results);
  return pass;
}

/// One pass through exec::run_sweep, the `glocks-sweep --jobs` path.
Pass run_sweep_pass(const Options& o, const std::vector<Point>& grid) {
  exec::SweepSpec spec;
  spec.workloads = o.workloads;
  spec.lock_kinds = o.locks;
  spec.core_counts = o.cores;
  spec.seeds = o.seeds;
  spec.scale = o.scale;
  spec.jobs = o.jobs;
  Pass pass;
  pass.points.resize(grid.size());
  std::ostringstream csv;
  perf::SimPerf perf;
  const perf::WallTimer timer;
  try {
    exec::run_sweep(spec, csv, &perf);
  } catch (const std::exception& e) {
    // run_sweep stops at the first failing point; nothing it ran counts.
    for (auto& out : pass.points) out.error = e.what();
  }
  pass.wall_s = timer.seconds();
  pass.sim_cycles = perf.sim_cycles;
  std::istringstream lines(csv.str());
  std::string line;
  std::getline(lines, line);  // header
  for (std::size_t i = 0; i < grid.size() && std::getline(lines, line);
       ++i) {
    pass.points[i].row = line + "\n";
  }
  return pass;
}

/// One pass through the phase-by-phase runner, logging spans.
Pass run_traced_pass(const Options& o, const std::vector<Point>& grid,
                     SpanLog& log) {
  Pass pass;
  pass.traced = true;
  pass.points.resize(grid.size());
  std::vector<harness::RunResult> results(grid.size());
  std::vector<SpanLog> logs(grid.size(), SpanLog(log.epoch()));
  const perf::WallTimer timer;
  const std::int32_t root = log.begin("pass", -1, -1);
  exec::parallel_for(grid.size(), o.jobs, [&](std::size_t i) {
    const Point& p = grid[i];
    SpanLog& own = logs[i];
    const auto id = static_cast<std::int32_t>(i);
    const std::int32_t span = own.begin("point", -1, id);
    try {
      results[i] = perfbench::run_phased(p.workload, o.scale, config_for(p),
                                         own, span, id);
    } catch (const std::exception& e) {
      pass.points[i].error = e.what();
    }
    own.end(span);
  });
  log.end(root);
  pass.wall_s = timer.seconds();
  for (auto& l : logs) log.absorb(std::move(l), root);
  record(pass, grid, results);
  return pass;
}

/// Sum over points of the host time to make, build and set up each one.
double setup_pass(const Options& o, const std::vector<Point>& grid) {
  double total = 0.0;
  for (const Point& p : grid) {
    total += perfbench::setup_seconds(p.workload, o.scale, config_for(p));
  }
  return total;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// First token where two digests differ, for the failure message.
std::string first_difference(const std::string& got, const std::string& ref) {
  std::istringstream a(got), b(ref);
  std::string x, y;
  while (true) {
    const bool more_a = static_cast<bool>(a >> x);
    const bool more_b = static_cast<bool>(b >> y);
    if (!more_a && !more_b) return "rows differ";
    if (!more_a || !more_b || x != y) {
      return (more_a ? x : "<end>") + " vs reference " +
             (more_b ? y : "<end>");
    }
  }
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << std::hex << std::setw(2) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  out << std::setprecision(17);
  for (std::size_t pass = 0; pass < logs.size(); ++pass) {
    const auto& spans = logs[pass].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const perfbench::Span& s = spans[i];
      out << "{\"pass\": " << pass << ", \"id\": " << i
          << ", \"name\": \"" << s.name << "\", \"start\": " << s.start
          << ", \"end\": " << s.end << ", \"parent\": " << s.parent
          << ", \"point\": " << s.point << "}\n";
    }
  }
  if (!out) {
    std::cerr << "glocks_perfbench: cannot write spans to " << path << "\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (kUnmeasurable != nullptr) {
    std::cerr << "glocks_perfbench: refusing to report numbers from "
              << kUnmeasurable << "\n";
    return 3;
  }
  const Options o = parse(argc, argv);
  const std::vector<Point> grid = expand(o);

  // Set-up host time, sampled several times so one slow sample cannot
  // set the figure.
  std::vector<double> setup_s;
  const perf::WallTimer setup_timer;
  while (setup_s.size() < 7 ||
         (setup_timer.seconds() < 3.0 && setup_s.size() < 400)) {
    setup_s.push_back(setup_pass(o, grid));
  }

  // The closed loop: passes back to back until the budget is spent, and
  // at least two so the median is never a single sample. A traced run
  // alternates untraced and traced passes so both see the same host
  // conditions.
  std::vector<Pass> passes;
  std::vector<SpanLog> span_logs;
  const auto epoch = SpanLog::Clock::now();
  const perf::WallTimer budget;
  std::size_t untraced = 0, traced = 0;
  while (true) {
    if (o.trace && traced < untraced) {
      span_logs.emplace_back(epoch);
      passes.push_back(run_traced_pass(o, grid, span_logs.back()));
      ++traced;
    } else {
      passes.push_back(o.sweep ? run_sweep_pass(o, grid)
                               : run_grid_pass(o, grid));
      ++untraced;
    }
    const bool enough = o.trace ? traced == untraced : untraced >= 2;
    if (enough && budget.seconds() >= o.seconds) break;
  }
  const double rss_mb = peak_rss_mb();

  // The serial reference kernel, after the timed passes so its memory
  // stays out of peak_rss_mb. Longest points first (by the first pass's
  // host time, where it has one) keeps the check's makespan short.
  std::vector<std::size_t> order(grid.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return passes.front().points[a].seconds >
                            passes.front().points[b].seconds;
                   });
  // Untimed, so it may use every core, up to four to bound its memory.
  const unsigned ref_jobs =
      std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  std::vector<Outcome> ref(grid.size());
  std::vector<Cycle> ref_cycles(grid.size(), 0);
  const perf::WallTimer ref_timer;
  exec::parallel_for(grid.size(), ref_jobs, [&](std::size_t j) {
    const std::size_t i = order[j];
    const Point& p = grid[i];
    harness::RunConfig cfg = config_for(p);
    cfg.cmp.engine_mode = EngineMode::kSerial;
    try {
      auto wl = workloads::make_workload(p.workload, o.scale);
      harness::RunResult r = harness::run_workload(*wl, cfg);
      if (static_cast<long>(i) == o.corrupt_point) ++r.cycles;
      ref_cycles[i] = r.cycles;
      ref[i] = Outcome{"", digest(r), csv_row(p, r), {}};
    } catch (const std::exception& e) {
      ref[i].error = e.what();
    }
  });
  const double ref_s = ref_timer.seconds();

  // Correctness: every point of every pass against the reference. Every
  // traced point also against the first untraced pass (statistics and
  // layer counters), so the phased runner cannot drift from the harness,
  // and against the first traced pass, so its counters repeat exactly.
  std::vector<std::string> failures;
  std::vector<bool> pass_ok(passes.size(), true);
  std::size_t attempted = 0, failed = 0;
  const Pass& baseline = passes.front();
  const auto first_traced = std::find_if(
      passes.begin(), passes.end(), [](const Pass& p) { return p.traced; });
  for (std::size_t k = 0; k < passes.size(); ++k) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const Outcome& got = passes[k].points[i];
      std::string why;
      if (!ref[i].error.empty()) {
        why = "reference failed: " + ref[i].error;
      } else if (!got.error.empty()) {
        why = got.error;
      } else if (!got.digest.empty() && got.digest != ref[i].digest) {
        why = first_difference(got.digest, ref[i].digest);
      } else if (got.row != ref[i].row) {
        why = "csv row " + first_difference(got.row, ref[i].row);
      } else if (passes[k].traced) {
        const Outcome& base = baseline.points[i];
        const Outcome& first = first_traced->points[i];
        if (base.error.empty() && !base.digest.empty() &&
            (got.digest != base.digest || got.counts != base.counts)) {
          why = "traced runner drifted from harness::run_workload";
        } else if (first.error.empty() && got.counts != first.counts) {
          why = "layer counters differ from the first traced pass";
        }
      }
      ++attempted;
      if (!why.empty()) {
        ++failed;
        pass_ok[k] = false;
        if (failures.size() < 20) {
          failures.push_back("pass " + std::to_string(k) + " point " +
                             describe(grid[i]) + ": " + why);
        }
      }
    }
  }

  // Layer counters of one traced pass that passed every check (all such
  // passes agree), folded over the grid.
  const auto& names = count_names();
  std::vector<std::uint64_t> counts;
  for (std::size_t k = 0; k < passes.size() && counts.empty(); ++k) {
    if (!passes[k].traced || !pass_ok[k]) continue;
    counts.assign(names.size(), 0);
    for (const Outcome& out : passes[k].points) {
      for (std::size_t c = 0; c < names.size(); ++c) {
        counts[c] = folds_by_max(names[c])
                        ? std::max(counts[c], out.counts[c])
                        : counts[c] + out.counts[c];
      }
    }
  }
  if (o.trace) write_spans(o.spans_path, span_logs);

  std::ostringstream js;
  js << std::setprecision(17) << "{\"meta\": {\"compiler\": ";
  write_json_string(js, PERFBENCH_COMPILER);
  js << ", \"build_type\": ";
  write_json_string(js, PERFBENCH_BUILD_TYPE);
  js << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"jobs\": " << o.jobs << ", \"ref_jobs\": " << ref_jobs
     << "}, \"points\": [";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    js << (i > 0 ? ", " : "") << "{\"workload\": ";
    write_json_string(js, grid[i].workload);
    js << ", \"lock\": \"" << locks::to_string(grid[i].kind)
       << "\", \"cores\": " << grid[i].cores << ", \"seed\": "
       << grid[i].seed << ", \"cycles\": " << ref_cycles[i] << "}";
  }
  js << "], \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    js << (i > 0 ? ", " : "") << setup_s[i];
  }
  js << "], \"passes\": [";
  for (std::size_t k = 0; k < passes.size(); ++k) {
    js << (k > 0 ? ", " : "") << "{\"traced\": "
       << (passes[k].traced ? "true" : "false")
       << ", \"ok\": " << (pass_ok[k] ? "true" : "false")
       << ", \"wall_s\": " << passes[k].wall_s
       << ", \"sim_cycles\": " << passes[k].sim_cycles << "}";
  }
  js << "], \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) js << ", ";
    write_json_string(js, failures[i]);
  }
  js << "], \"peak_rss_mb\": " << rss_mb << ", \"reference_s\": " << ref_s
     << ", \"counts\": {";
  for (std::size_t c = 0; c < counts.size(); ++c) {
    js << (c > 0 ? ", " : "") << '"' << names[c] << "\": " << counts[c];
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
