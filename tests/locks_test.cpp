// Lock algorithm tests: mutual exclusion (with an overlap canary), FIFO
// fairness of the queue-based locks, statistics, factory and allocator.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/cmp_system.hpp"
#include "harness/workload.hpp"
#include "locks/factory.hpp"

namespace glocks {
namespace {

using core::Task;
using core::ThreadApi;

/// Runs `threads` threads that each enter the lock `iters` times. A C++
/// side canary counts simultaneous critical-section occupancy — any
/// mutual-exclusion violation trips it because the critical section spans
/// several suspension points.
struct LockStress {
  locks::Lock* lock = nullptr;
  int inside = 0;
  int max_inside = 0;
  std::vector<std::uint32_t> grant_order;

  Task<void> body(ThreadApi& t, std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      co_await lock->acquire(t);
      ++inside;
      max_inside = std::max(max_inside, inside);
      grant_order.push_back(t.thread_id());
      co_await t.compute(3);
      co_await t.load(0x900000);  // a memory op inside the CS
      --inside;
      co_await lock->release(t);
      co_await t.compute(1 + t.thread_id() % 3);
    }
  }
};

class LockKinds : public ::testing::TestWithParam<locks::LockKind> {};

TEST_P(LockKinds, MutualExclusionUnderStress) {
  CmpConfig cfg;
  cfg.num_cores = 9;
  harness::CmpSystem sys(cfg);
  harness::WorkloadContext ctx(sys, harness::LockPolicy{}, 1);
  locks::GlockAllocator glocks(2);
  auto lock =
      locks::make_lock(GetParam(), "stress", ctx.heap(), 9, &glocks);
  lock->preload(ctx.memory());

  LockStress stress;
  stress.lock = lock.get();
  for (CoreId c = 0; c < 9; ++c) {
    sys.core(c).bind(c, 9, sys.hierarchy().l1(c),
                     [&](ThreadApi& t) { return stress.body(t, 12); });
  }
  sys.run();
  EXPECT_EQ(stress.max_inside, 1) << "two threads inside the CS at once";
  EXPECT_EQ(stress.grant_order.size(), 9u * 12u);
  EXPECT_EQ(lock->stats().acquires, 9u * 12u);
  EXPECT_EQ(lock->stats().releases, 9u * 12u);
  EXPECT_EQ(lock->stats().current_requesters, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, LockKinds,
    ::testing::ValuesIn(locks::all_lock_kinds()),
    [](const auto& info) {
      std::string n(locks::to_string(info.param));
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

/// Fair locks must grant in request order. We request from every thread
/// in a staggered pattern and check each thread gets one grant per round
/// (no thread laps another): the max spread of completion counts is 1.
class FairLockKinds : public ::testing::TestWithParam<locks::LockKind> {};

TEST_P(FairLockKinds, NoThreadLapsAnother) {
  CmpConfig cfg;
  cfg.num_cores = 9;
  harness::CmpSystem sys(cfg);
  harness::WorkloadContext ctx(sys, harness::LockPolicy{}, 1);
  locks::GlockAllocator glocks(2);
  auto lock =
      locks::make_lock(GetParam(), "fair", ctx.heap(), 9, &glocks);
  lock->preload(ctx.memory());

  LockStress stress;
  stress.lock = lock.get();
  for (CoreId c = 0; c < 9; ++c) {
    sys.core(c).bind(c, 9, sys.hierarchy().l1(c),
                     [&](ThreadApi& t) { return stress.body(t, 10); });
  }
  sys.run();

  // At every point of the grant sequence, a thread that is still running
  // may be at most a couple of rounds ahead of any other still-running
  // thread: FIFO-fair locks cannot let one thread lap the pack.
  std::vector<int> count(9, 0);
  for (std::size_t i = 0; i < stress.grant_order.size(); ++i) {
    const std::uint32_t who = stress.grant_order[i];
    ++count[who];
    for (std::uint32_t other = 0; other < 9; ++other) {
      if (count[other] >= 10) continue;  // finished threads don't compete
      EXPECT_LE(count[who] - count[other], 3)
          << "thread " << who << " lapped thread " << other
          << " at grant " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FairKinds, FairLockKinds,
                         ::testing::Values(locks::LockKind::kTicket,
                                           locks::LockKind::kArray,
                                           locks::LockKind::kMcs,
                                           locks::LockKind::kClh,
                                           locks::LockKind::kSb,
                                           locks::LockKind::kQolb,
                                           locks::LockKind::kIdeal,
                                           locks::LockKind::kGlock),
                         [](const auto& info) {
                           return std::string(
                               locks::to_string(info.param));
                         });

TEST(LockFactory, ParseAndNames) {
  EXPECT_EQ(locks::parse_lock_kind("mcs"), locks::LockKind::kMcs);
  EXPECT_EQ(locks::parse_lock_kind("glock"), locks::LockKind::kGlock);
  EXPECT_EQ(locks::parse_lock_kind("tatas-backoff"),
            locks::LockKind::kTatasBackoff);
  EXPECT_FALSE(locks::parse_lock_kind("bogus").has_value());
  for (auto k : {locks::LockKind::kSimple, locks::LockKind::kIdeal}) {
    EXPECT_EQ(locks::parse_lock_kind(std::string(locks::to_string(k))), k);
  }
}

TEST(GlockAllocator, EnforcesTheHardwareBudget) {
  locks::GlockAllocator alloc(2);
  EXPECT_EQ(alloc.allocate(), 0u);
  EXPECT_EQ(alloc.allocate(), 1u);
  EXPECT_EQ(alloc.remaining(), 0u);
  EXPECT_THROW(alloc.allocate(), SimError);
}

TEST(LockFactory, GlockWithoutAllocatorThrows) {
  mem::SimAllocator heap;
  EXPECT_THROW(
      locks::make_lock(locks::LockKind::kGlock, "x", heap, 4, nullptr),
      SimError);
}

TEST(LockFactory, NamesAreAttached) {
  mem::SimAllocator heap;
  auto lock = locks::make_lock(locks::LockKind::kTicket, "my-lock", heap, 4);
  EXPECT_EQ(lock->stats().name, "my-lock");
  EXPECT_EQ(lock->kind_name(), "ticket");
}

}  // namespace
}  // namespace glocks
