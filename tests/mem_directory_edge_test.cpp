// Directed tests of directory corner cases: the deferred (blocked-line)
// queue, upgrade escalation after a racing invalidation, stale-PutM
// recognition, and heavy same-line fan-in.
#include <gtest/gtest.h>

#include <cstddef>

#include "ckpt/archive.hpp"
#include "mem_test_util.hpp"

namespace glocks {
namespace {

using mem::AmoKind;
using mem::MemOp;
using test::MemHarness;

constexpr Addr kA = 0x10000;  // home tile 0 on a 4-core machine

/// Issues an op without waiting; completion recorded in `done`.
void issue_async(MemHarness& m, CoreId c, const mem::MemOp& op,
                 bool* done) {
  m.hier().l1(c).issue(op, [done](Word) { *done = true; });
}

TEST(DirectoryEdge, ConcurrentRequestsToOneLineAreDeferredNotLost) {
  MemHarness m;
  // All four cores store to the same line at once: the home can only
  // process one transaction at a time; the rest queue per line.
  bool done[4] = {false, false, false, false};
  for (CoreId c = 0; c < 4; ++c) {
    issue_async(m, c,
                {MemOp::Type::kStore, kA + c * 8, Word{100} + c, 0,
                 AmoKind::kTestAndSet},
                &done[c]);
  }
  m.engine().run_until([&] { return done[0] && done[1] && done[2] &&
                                    done[3]; },
                       100000);
  m.drain();
  EXPECT_GT(m.hier().total_dir_stats().deferred_requests, 0u);
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(m.hier().coherent_peek(kA + c * 8), Word{100} + c);
  }
}

TEST(DirectoryEdge, UpgradeEscalatesWhenInvalidatedFirst) {
  MemHarness m;
  // Cores 0 and 1 share the line; both then store. One of the two must
  // lose its S copy to an invalidation and have its Upgrade escalated to
  // a data response at the home.
  m.load(0, kA);
  m.load(1, kA);
  bool d0 = false, d1 = false;
  issue_async(m, 0, {MemOp::Type::kStore, kA, 7, 0, AmoKind::kTestAndSet},
              &d0);
  issue_async(m, 1, {MemOp::Type::kStore, kA, 9, 0, AmoKind::kTestAndSet},
              &d1);
  m.engine().run_until([&] { return d0 && d1; }, 100000);
  m.drain();
  // Both stores retired; the final value is one of them.
  const Word v = m.hier().coherent_peek(kA);
  EXPECT_TRUE(v == 7 || v == 9) << v;
  // Both cores issued Upgrades (they held S copies).
  EXPECT_GE(m.hier().total_l1_stats().upgrades, 2u);
  EXPECT_GE(m.hier().total_dir_stats().invalidations_sent, 1u);
}

TEST(DirectoryEdge, StalePutMAfterOwnershipMoved) {
  // Force an eviction race: core 0 dirties many conflicting lines so its
  // PutM for kA can be in flight while core 1 takes ownership.
  MemHarness m;
  const Addr stride = Addr{128} * kLineBytes;  // same L1 set
  m.store(0, kA, 42);
  for (Word i = 1; i <= 3; ++i) m.store(0, kA + i * stride, i);
  // Fill the set's last way: the fill evicts kA, putting its PutM in
  // flight while core 1's GetX races it to the home.
  bool steal_done = false;
  bool evict_done = false;
  issue_async(m, 0,
              {MemOp::Type::kStore, kA + 4 * stride, 1, 0,
               AmoKind::kTestAndSet},
              &evict_done);
  issue_async(m, 1, {MemOp::Type::kStore, kA, 99, 0, AmoKind::kTestAndSet},
              &steal_done);
  m.engine().run_until([&] { return steal_done && evict_done; }, 100000);
  m.drain();
  EXPECT_EQ(m.hier().coherent_peek(kA), 99u);
  // Whether the PutM arrived before or after the ownership transfer, the
  // protocol settles with no writeback entries stuck anywhere.
  EXPECT_TRUE(m.hier().quiescent());
}

TEST(DirectoryEdge, FanInAtomicsAreSerializedExactly) {
  MemHarness m(MemHarness::small_config(9));
  constexpr int kPerCore = 40;
  bool done[9] = {};
  int finished = 0;
  // Each core fires a chain of fetch&adds; chains interleave freely.
  struct Chain {
    MemHarness* m;
    CoreId c;
    int left;
    bool* done_flag;
    int* finished;
    void fire() {
      if (left == 0) {
        *done_flag = true;
        ++*finished;
        return;
      }
      --left;
      m->hier().l1(c).issue(
          {MemOp::Type::kAmo, kA, 1, 0, AmoKind::kFetchAdd},
          [this](Word) { fire(); });
    }
  };
  std::vector<Chain> chains;
  chains.reserve(9);
  for (CoreId c = 0; c < 9; ++c) {
    chains.push_back(Chain{&m, c, kPerCore, &done[c], &finished});
  }
  for (auto& ch : chains) ch.fire();
  m.engine().run_until([&] { return finished == 9; }, 2000000);
  m.drain();
  EXPECT_EQ(m.hier().coherent_peek(kA), 9u * kPerCore);
  // Exclusive ownership had to move between cores many times.
  EXPECT_GT(m.hier().total_dir_stats().forwards_sent, 20u);
}

TEST(DirectoryEdge, SilentSEvictionToleratedByLaterInvalidate) {
  // Tiny L1 forces Shared lines out silently; the directory's stale
  // sharer entries must be handled by InvAcks from cores without copies.
  CmpConfig cfg = MemHarness::small_config();
  cfg.l1.size_bytes = 2 * 1024;
  MemHarness m(cfg);
  m.load(0, kA);  // owner...
  m.load(1, kA);  // ...downgraded: both cores now share the line
  // Evict kA from core 1 silently by filling its set with loads.
  const Addr stride = Addr{8} * kLineBytes;  // 8 sets in a 2KB L1
  for (Word i = 1; i <= 5; ++i) m.load(1, kA + i * stride);
  EXPECT_EQ(m.hier().l1(1).probe_state(line_of(kA)), 'I');
  // Core 2 writes: the home still lists core 1 and must collect its ack.
  m.store(2, kA, 5);
  m.drain();
  EXPECT_EQ(m.load(1, kA), 5u);
  EXPECT_GE(m.hier().total_l1_stats().invalidations_received, 1u);
}

TEST(DirectoryEdge, L2SetsFillOnFirstUseAndEvictTheLruWay) {
  // 16 tiles: lines kL0 + k * 1024 (k = 0..5) share L2 set 0 of home
  // tile 0 (1024 sets, a multiple of the tile count). Each is loaded by
  // its own core so no L1 eviction adds traffic.
  MemHarness m(MemHarness::small_config(16));
  const std::uint32_t sets = m.config().l2.num_sets();
  ASSERT_EQ(sets, 1024u);
  ASSERT_EQ(m.config().l2.ways, 4u);
  const Addr l0 = line_of(kA);
  auto line = [&](Addr k) { return l0 + k * sets; };
  auto addr = [&](Addr k) { return line(k) * kLineBytes; };
  mem::DirSlice& home = m.hier().dir(0);

  // Nothing touched yet: any probe, of any set, finds nothing.
  EXPECT_EQ(home.probe_l2_data(line(0)), nullptr);
  EXPECT_EQ(home.probe_l2_data(l0 + 7), nullptr);

  // Line 0 becomes dirty in the L2: core 1 owns it, core 2's read pulls
  // the copy back into the home.
  m.store(1, addr(0), 5);
  m.load(2, addr(0));
  m.drain();
  ASSERT_NE(home.probe_l2_data(line(0)), nullptr);
  EXPECT_EQ((*home.probe_l2_data(line(0)))[0], 5u);
  EXPECT_EQ(home.probe_l2_data(l0 + 7), nullptr);  // other sets stay empty
  // Three clean lines fill the set; line 0 is now the LRU way.
  for (Addr k = 1; k <= 3; ++k) m.load(static_cast<CoreId>(2 + k), addr(k));
  m.drain();
  EXPECT_EQ(home.stats().memory_writebacks, 0u);

  // The fifth line evicts dirty line 0: one writeback.
  m.load(6, addr(4));
  m.drain();
  EXPECT_EQ(home.probe_l2_data(line(0)), nullptr);
  EXPECT_NE(home.probe_l2_data(line(4)), nullptr);
  EXPECT_EQ(home.stats().memory_writebacks, 1u);
  // The sixth evicts clean line 1: no writeback.
  m.load(7, addr(5));
  m.drain();
  EXPECT_EQ(home.probe_l2_data(line(1)), nullptr);
  for (Addr k = 2; k <= 5; ++k) {
    EXPECT_NE(home.probe_l2_data(line(k)), nullptr) << k;
  }
  EXPECT_EQ(home.stats().memory_writebacks, 1u);
  EXPECT_EQ(m.load(8, addr(0)), 5u);  // the written-back value survives
}

TEST(DirectoryEdge, FreshSliceSavesEveryL2WayAsAZeroEntry) {
  // A set that was never filled saves as `ways` default entries: valid,
  // line, 8 data words, dirty, lru = 1 + 8 + 64 + 1 + 8 = 82 bytes each.
  MemHarness m;
  ckpt::ArchiveWriter empty;
  empty.begin_section(1);
  empty.end_section();
  // Everything before the trailing CRC of an empty section is framing.
  const std::size_t payload_at = empty.buffer().size() - 4;

  ckpt::ArchiveWriter a;
  a.begin_section(1);
  m.hier().dir(3).save(a);
  a.end_section();
  const auto& buf = a.buffer();
  const std::size_t l2_bytes =
      std::size_t{m.config().l2.num_sets()} * m.config().l2.ways * 82;
  ASSERT_GT(buf.size(), payload_at + l2_bytes);
  std::size_t nonzero = 0;
  for (std::size_t i = payload_at; i < payload_at + l2_bytes; ++i) {
    nonzero += buf[i] != 0;
  }
  EXPECT_EQ(nonzero, 0u);
}

}  // namespace
}  // namespace glocks
