// Fan-out semantics for the run-level parallelism subsystem (src/exec):
// index-ordered results, exception capture/propagation, the jobs=1
// degenerate case, ordered streaming output, and a stress run with
// hundreds of tiny jobs. Everything here is scheduling-independent so
// the suite is stable under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/ordered_emitter.hpp"
#include "exec/parallel_for.hpp"

namespace glocks::exec {
namespace {

TEST(ParallelForTest, ResultsArriveInIndexOrder) {
  const auto out = parallel_map<std::size_t>(
      64, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(200);
  parallel_for(hits.size(), 8,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, Jobs1RunsInlineOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(32);
  std::size_t order_breaks = 0;
  std::size_t last = 0;
  parallel_for(ran.size(), 1, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
    if (i != 0 && i != last + 1) ++order_breaks;
    last = i;
  });
  for (const auto id : ran) EXPECT_EQ(id, caller);
  EXPECT_EQ(order_breaks, 0u) << "jobs=1 must be a plain serial loop";
}

TEST(ParallelForTest, ZeroCountIsANoop) {
  bool called = false;
  parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, LowestFailingIndexWins) {
  for (const unsigned jobs : {1u, 4u}) {
    try {
      parallel_for(50, jobs, [](std::size_t i) {
        if (i == 7 || i == 31) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 7") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelForTest, StressHundredsOfTinyJobs) {
  std::atomic<std::uint64_t> sum{0};
  constexpr std::size_t kJobs = 500;
  parallel_for(kJobs, 8, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kJobs * (kJobs - 1) / 2);
}

TEST(OrderedEmitterTest, OutOfOrderEmitsComeOutInOrder) {
  std::ostringstream os;
  OrderedEmitter em(os, 4);
  em.emit(2, "row2\n");
  em.emit(0, "row0\n");
  em.emit(1, "row1\n");
  em.emit(3, "row3\n");
  EXPECT_EQ(os.str(), "row0\nrow1\nrow2\nrow3\n");
  EXPECT_EQ(em.flushed(), 4u);
}

TEST(OrderedEmitterTest, PrefixStreamsBeforeTailArrives) {
  std::ostringstream os;
  OrderedEmitter em(os, 3);
  em.emit(2, "c");
  EXPECT_EQ(os.str(), "");  // row 2 is held: the prefix is incomplete
  EXPECT_EQ(em.flushed(), 0u);
  em.emit(0, "a");
  EXPECT_EQ(os.str(), "a");  // partial output usable immediately
  EXPECT_EQ(em.flushed(), 1u);
  em.emit(1, "b");
  EXPECT_EQ(os.str(), "abc");
  EXPECT_EQ(em.flushed(), 3u);
}

TEST(OrderedEmitterTest, ConcurrentProducersNeverInterleave) {
  std::ostringstream os;
  constexpr std::size_t kRows = 100;
  OrderedEmitter em(os, kRows);
  parallel_for(kRows, 8, [&](std::size_t i) {
    em.emit(i, "row" + std::to_string(i) + "\n");
  });
  std::string expect;
  for (std::size_t i = 0; i < kRows; ++i) {
    expect += "row" + std::to_string(i) + "\n";
  }
  EXPECT_EQ(os.str(), expect);
}

TEST(DefaultJobsTest, IsAlwaysAtLeastOne) {
  EXPECT_GE(default_jobs(), 1u);
}

}  // namespace
}  // namespace glocks::exec
