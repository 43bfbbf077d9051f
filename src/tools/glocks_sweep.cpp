// glocks-sweep — batch experiment runner producing one CSV table.
//
//   glocks-sweep --workloads SCTR,RAYTR --locks mcs,glock --cores 8,16,32
//   glocks-sweep --all --locks mcs,glock --jobs 8 > results.csv
//
// `glocks-sweep --help` prints the flag reference (kUsage below).
// Mistakes on the command line exit with status 2 and the usage text on
// stderr; a failing grid point exits with status 1.
//
// Output: the report CSV header plus one row per
// (workload, lock, cores, seed), with `cores` and `seed` columns
// prepended. Every run is an independent simulation with its own
// machine, so runs parallelize freely across --jobs worker threads; rows
// stream as the leading edge of the grid completes and are always
// emitted in grid order, so the CSV bytes are identical for any --jobs
// value (tests/determinism_test.cpp holds us to that).
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/manifest.hpp"
#include "exec/job_pool.hpp"
#include "exec/sweep.hpp"
#include "fault/fault.hpp"
#include "tools/args.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace glocks;
using tools::usage_check;

constexpr const char* kUsage =
    R"(usage: glocks-sweep (--workloads A,B,... | --all) [flags]
       glocks-sweep --help

  --workloads A,B,...   benchmarks to run
  --all                 every registry workload
  --locks a,b,...       highly-contended lock kinds      [mcs,glock]
  --cores n1,n2,...     core counts; meshes wider than 7 tiles use the
                        hierarchical G-line network     [32]
  --scale X             input scale in (0,1]             [1.0]
  --seeds n1,n2,...     workload seeds (--seed N works too)  [1]
  --jobs N              simulations run concurrently     [nproc]
                        (or the GLOCKS_JOBS env var)
  --faults SPEC         fault-injection plan for every grid point: a
                        bare rate ("0.001") or a key=value list; bare
                        keys target the G-line domain ("drop=1e-3,
                        stuck=1e-4,seed=7,fallback=mcs"), a "gline:" or
                        "mesh:" prefix names the domain ("mesh:drop=1e-4,
                        mesh:dead=1e-6"; "mesh:kill=TILE.D@CYCLE", D in
                        n/s/e/w, scripts a link death). Adds the armed
                        domains' fault columns; each point mixes its
                        workload seed into the plan seed, so the table
                        stays byte-identical across --jobs values. See
                        docs/fault_model.md.
  --perf                print an aggregate simulator-throughput summary
                        (all runs folded) to stderr
  --manifest FILE       sweep-resume file: finished grid points are
                        appended as they complete; rerunning the same
                        command after a kill emits them from FILE and
                        runs only the missing points (CSV unchanged).
                        FILE is keyed on the grid (jobs excluded).
  --help                print this text
)";

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run(int argc, char** argv) {
  const tools::Args args(argc, argv, {"all", "perf", "help"},
                         {"workloads", "locks", "cores", "scale", "seeds",
                          "seed", "jobs", "faults", "manifest"});
  if (args.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  exec::SweepSpec spec;
  if (args.has("all")) {
    for (const auto& e : workloads::registry()) {
      spec.workloads.push_back(e.name);
    }
  } else {
    spec.workloads = split(args.get("workloads"));
  }
  usage_check(!spec.workloads.empty(),
              "nothing to run: pass --workloads or --all");
  for (const auto& name : spec.workloads) {
    bool known = false;
    for (const auto& e : workloads::registry()) known = known || e.name == name;
    usage_check(known, "unknown workload '" + name + "'");
  }

  for (const auto& lname : split(args.get("locks", "mcs,glock"))) {
    const auto kind = locks::parse_lock_kind(lname);
    usage_check(kind.has_value(), "unknown lock kind '" + lname + "'");
    spec.lock_kinds.push_back(*kind);
  }
  for (const auto& cstr : split(args.get("cores", "32"))) {
    const std::uint64_t cores = tools::Args::parse_u64("cores", cstr);
    usage_check(cores >= 1, "--cores must be at least 1");
    spec.core_counts.push_back(static_cast<std::uint32_t>(cores));
  }
  spec.scale = args.get_double("scale", 1.0);
  usage_check(spec.scale > 0.0 && spec.scale <= 1.0,
              "--scale must be in (0,1], got " + args.get("scale"));

  // --seeds takes a comma list so seed replication parallelizes like
  // any other grid axis; --seed is the single-value spelling.
  usage_check(!(args.has("seed") && args.has("seeds")),
              "pass --seed or --seeds, not both");
  if (args.has("seeds")) {
    spec.seeds.clear();
    for (const auto& sstr : split(args.get("seeds"))) {
      spec.seeds.push_back(tools::Args::parse_u64("seeds", sstr));
    }
    usage_check(!spec.seeds.empty(), "--seeds needs at least one seed");
  } else {
    spec.seeds = {args.get_u64("seed", 1)};
  }

  spec.jobs =
      static_cast<unsigned>(args.get_u64("jobs", exec::default_jobs()));
  usage_check(spec.jobs >= 1, "--jobs must be >= 1");

  if (args.has("faults")) {
    spec.fault = fault::parse_fault_spec(args.get("faults"));
  }

  std::unique_ptr<ckpt::SweepManifest> manifest;
  if (args.has("manifest")) {
    manifest = std::make_unique<ckpt::SweepManifest>(
        args.get("manifest"), exec::sweep_signature(spec));
    if (!manifest->completed().empty()) {
      std::fprintf(stderr,
                   "glocks-sweep: resuming, %zu of %zu grid points "
                   "already in the manifest\n",
                   manifest->completed().size(), exec::sweep_size(spec));
    }
  }

  if (args.has("perf")) {
    perf::SimPerf agg;
    exec::run_sweep(spec, std::cout, &agg, manifest.get());
    std::cerr << agg.summary();
  } else {
    exec::run_sweep(spec, std::cout, nullptr, manifest.get());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const tools::UsageError& e) {
    std::fprintf(stderr, "glocks-sweep: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glocks-sweep: %s\n", e.what());
    return 1;
  }
}
