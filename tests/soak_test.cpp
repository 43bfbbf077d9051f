// Whole-chip randomized soak: many seeds x mixed lock kinds x mixed
// operation streams, all three synchronization fabrics (software locks,
// GLocks, SB locks, barriers) active at once, with tiny caches to maximize
// protocol churn. Each run checks mutual exclusion canaries, counter
// sums, and full drain. This is the regression net for the protocol
// races the virtual-channel work surfaced.
//
// The runs also execute under exec::parallel_for: each soak owns its whole
// machine, so concurrent runs on worker threads must produce the same
// cycle counts as serial ones — the suite stays meaningful (and small
// enough to be quick) under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/rng.hpp"
#include "exec/parallel_for.hpp"
#include "harness/cmp_system.hpp"
#include "harness/workload.hpp"
#include "locks/factory.hpp"
#include "sync/barrier.hpp"

namespace glocks {
namespace {

using core::Task;
using core::ThreadApi;

struct SoakWorld {
  std::vector<locks::Lock*> locks;
  std::vector<Addr> counters;      ///< one per lock, same index
  std::vector<Word> expected;      ///< increments applied per counter
  std::vector<int> inside;
  sync::Barrier* barrier = nullptr;
  Addr scratch = 0;  ///< shared array the threads also churn through
  int violations = 0;

  struct Step {
    enum Kind { kLock, kScratch, kBarrier, kCompute } kind;
    std::uint32_t arg;
  };
  std::vector<std::vector<Step>> plans;

  Task<void> body(ThreadApi& t) {
    for (const Step& s : plans[t.thread_id()]) {
      switch (s.kind) {
        case Step::kLock: {
          auto& lock = *locks[s.arg];
          co_await lock.acquire(t);
          if (++inside[s.arg] != 1) ++violations;
          const Addr a = counters[s.arg];
          const Word v = co_await t.load(a);
          co_await t.compute(1 + s.arg % 4);
          co_await t.store(a, v + 1);
          --inside[s.arg];
          co_await lock.release(t);
          break;
        }
        case Step::kScratch:
          co_await t.store(scratch + (s.arg % 64) * sizeof(Word),
                           s.arg);  // racy on purpose; churns coherence
          co_await t.load(scratch + ((s.arg * 7) % 64) * sizeof(Word));
          break;
        case Step::kBarrier:
          co_await barrier->await(t);
          break;
        case Step::kCompute:
          co_await t.compute(1 + s.arg % 16);
          break;
      }
    }
  }
};

/// Everything one soak run produces; asserted by the caller so the same
/// soak can run directly or on a parallel_for worker thread.
struct SoakOutcome {
  Cycle cycles = 0;
  int violations = 0;
  bool quiescent = false;
  std::vector<std::string> lock_kinds;
  std::vector<Word> expected;
  std::vector<Word> observed;           ///< coherent counter values
  std::vector<std::uint64_t> acquires;  ///< per-lock census
  std::uint64_t pool_heap_allocs = 0;   ///< message-pool slab mallocs
  std::uint64_t pool_heap_bytes = 0;
};

/// With `churn_at`, the run pauses at each listed cycle and serializes
/// the whole machine (the checkpoint layer's save path); each archive
/// lands in `saves`. Serialization is read-only, so the outcome must be
/// bit-identical to a plain run — the churn test below holds us to that.
SoakOutcome run_soak(std::uint64_t seed, std::uint32_t cores,
                     const std::vector<Cycle>* churn_at = nullptr,
                     std::vector<std::vector<std::uint8_t>>* saves =
                         nullptr) {
  CmpConfig cfg;
  cfg.num_cores = cores;
  cfg.l1.size_bytes = 2 * 1024;        // brutal: constant evictions
  cfg.l2.slice_size_bytes = 16 * 1024;
  harness::CmpSystem sys(cfg);
  harness::WorkloadContext ctx(sys, harness::LockPolicy{}, seed);

  const locks::LockKind kinds[] = {
      locks::LockKind::kTatas, locks::LockKind::kMcs,
      locks::LockKind::kGlock, locks::LockKind::kSb,
      locks::LockKind::kTicket, locks::LockKind::kGlock,
  };
  locks::GlockAllocator glocks(2);
  std::vector<std::unique_ptr<locks::Lock>> owned;
  SoakWorld world;
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    owned.push_back(locks::make_lock(kinds[i], "soak" + std::to_string(i),
                                     ctx.heap(), cores, &glocks));
    owned.back()->preload(ctx.memory());
    world.locks.push_back(owned.back().get());
    world.counters.push_back(ctx.heap().alloc_line());
    world.inside.push_back(0);
  }
  world.expected.assign(world.locks.size(), 0);
  world.barrier = &ctx.make_tree_barrier();
  world.scratch = ctx.heap().alloc_lines(8);

  // Random per-thread plans. Barriers must appear the same number of
  // times in every thread's plan.
  Rng rng(seed);
  constexpr int kBarriers = 3;
  world.plans.resize(cores);
  for (std::uint32_t c = 0; c < cores; ++c) {
    std::vector<SoakWorld::Step> plan;
    for (int seg = 0; seg <= kBarriers; ++seg) {
      const int n = 10 + static_cast<int>(rng.below(15));
      for (int i = 0; i < n; ++i) {
        const auto roll = rng.below(10);
        if (roll < 5) {
          const auto li =
              static_cast<std::uint32_t>(rng.below(world.locks.size()));
          plan.push_back({SoakWorld::Step::kLock, li});
          ++world.expected[li];
        } else if (roll < 8) {
          plan.push_back({SoakWorld::Step::kScratch,
                          static_cast<std::uint32_t>(rng.below(512))});
        } else {
          plan.push_back({SoakWorld::Step::kCompute,
                          static_cast<std::uint32_t>(rng.below(64))});
        }
      }
      if (seg < kBarriers) plan.push_back({SoakWorld::Step::kBarrier, 0});
    }
    world.plans[c] = std::move(plan);
  }

  for (CoreId c = 0; c < cores; ++c) {
    sys.core(c).bind(c, cores, sys.hierarchy().l1(c),
                     [&world](ThreadApi& t) { return world.body(t); });
  }

  SoakOutcome out;
  if (churn_at != nullptr) {
    out.cycles = sys.run(*churn_at, [&](Cycle) {
      ckpt::ArchiveWriter w;
      sys.save_state(w);
      if (saves != nullptr) saves->push_back(w.buffer());
    });
  } else {
    out.cycles = sys.run();
  }
  out.violations = world.violations;
  out.quiescent = sys.hierarchy().quiescent();
  out.pool_heap_allocs = sys.hierarchy().msg_pool_stats().heap_allocs;
  out.pool_heap_bytes = sys.hierarchy().msg_pool_stats().heap_bytes;
  out.expected = world.expected;
  for (std::size_t i = 0; i < world.locks.size(); ++i) {
    out.lock_kinds.emplace_back(world.locks[i]->kind_name());
    out.observed.push_back(
        sys.hierarchy().coherent_peek(world.counters[i]));
    out.acquires.push_back(world.locks[i]->stats().acquires);
  }
  return out;
}

void expect_clean(const SoakOutcome& out) {
  EXPECT_EQ(out.violations, 0);
  for (std::size_t i = 0; i < out.observed.size(); ++i) {
    EXPECT_EQ(out.observed[i], out.expected[i])
        << "lock " << i << " (" << out.lock_kinds[i] << ")";
    EXPECT_EQ(out.acquires[i], out.expected[i]);
  }
  EXPECT_TRUE(out.quiescent);
}

struct SoakParams {
  std::uint64_t seed;
  std::uint32_t cores;
};

class Soak : public ::testing::TestWithParam<SoakParams> {};

TEST_P(Soak, MixedFabricChurnStaysCoherent) {
  const auto [seed, cores] = GetParam();
  expect_clean(run_soak(seed, cores));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, Soak,
    ::testing::Values(SoakParams{1, 9}, SoakParams{2, 9}, SoakParams{3, 16},
                      SoakParams{4, 16}, SoakParams{5, 25},
                      SoakParams{6, 25}, SoakParams{7, 32},
                      SoakParams{8, 32}, SoakParams{9, 12},
                      SoakParams{10, 7}),
    [](const auto& info) {
      return "s" + std::to_string(info.param.seed) + "_c" +
             std::to_string(info.param.cores);
    });

// The parallel variant: several whole-machine soaks in flight at once.
// Config sizes stay small so the test remains quick under TSan, which
// is where this test earns its keep — it is the only suite driving the
// full simulator from concurrent threads.
TEST(SoakPool, ConcurrentSoaksMatchSerialBitForBit) {
  const SoakParams grid[] = {{1, 9}, {2, 9}, {9, 12}, {10, 7}};

  std::vector<SoakOutcome> serial;
  for (const auto& p : grid) serial.push_back(run_soak(p.seed, p.cores));

  std::vector<SoakOutcome> pooled(std::size(grid));
  exec::parallel_for(std::size(grid), 4, [&pooled, &grid](std::size_t i) {
    pooled[i] = run_soak(grid[i].seed, grid[i].cores);
  });

  for (std::size_t i = 0; i < std::size(grid); ++i) {
    expect_clean(pooled[i]);
    EXPECT_EQ(pooled[i].cycles, serial[i].cycles)
        << "seed " << grid[i].seed
        << ": a worker thread changed simulated time";
    EXPECT_EQ(pooled[i].observed, serial[i].observed);
    EXPECT_EQ(pooled[i].acquires, serial[i].acquires);
  }
}

// Checkpoint churn: serializing the entire machine every few dozen
// cycles of a mixed-fabric soak must be invisible. Three properties
// hold it together: the churned run's outcome (cycles, counters,
// acquires) matches the untouched run bit for bit; the message-pool
// slab accounting is unchanged, so the save path neither acquires
// pooled messages nor perturbs warmup; and the archive written at each
// pause is byte-identical across two churned runs — serialized state
// does not drift between deterministic replicas.
TEST(SoakCkptChurn, PeriodicSaveStateIsInvisibleAndByteStable) {
  const std::uint64_t seed = 9;
  const std::uint32_t cores = 12;
  const SoakOutcome plain = run_soak(seed, cores);

  std::vector<Cycle> pauses;
  const Cycle every = std::max<Cycle>(plain.cycles / 32, 1);
  for (Cycle at = every; at < plain.cycles; at += every) {
    pauses.push_back(at);
  }
  ASSERT_GE(pauses.size(), 8u) << "run too short to churn meaningfully";

  std::vector<std::vector<std::uint8_t>> saves_a, saves_b;
  const SoakOutcome churn_a = run_soak(seed, cores, &pauses, &saves_a);
  const SoakOutcome churn_b = run_soak(seed, cores, &pauses, &saves_b);

  expect_clean(churn_a);
  EXPECT_EQ(churn_a.cycles, plain.cycles)
      << "checkpoint pauses changed simulated time";
  EXPECT_EQ(churn_a.observed, plain.observed);
  EXPECT_EQ(churn_a.acquires, plain.acquires);
  EXPECT_EQ(churn_a.pool_heap_allocs, plain.pool_heap_allocs)
      << "save_state grew the message pool";
  EXPECT_EQ(churn_a.pool_heap_bytes, plain.pool_heap_bytes);

  // Every pause before the finish cycle fires (none silently skipped),
  // and the two churned runs saw identical machine bytes at each one.
  EXPECT_EQ(saves_a.size(), pauses.size());
  ASSERT_EQ(saves_a.size(), saves_b.size());
  for (std::size_t i = 0; i < saves_a.size(); ++i) {
    EXPECT_TRUE(saves_a[i] == saves_b[i])
        << "archive at pause " << i << " (cycle " << pauses[i]
        << ") drifted between identical runs";
  }
}

}  // namespace
}  // namespace glocks
