// Directed tests of the MESI directory protocol: state transitions,
// invalidations, cache-to-cache transfers, writebacks, upgrade races,
// atomics, and eviction corner cases.
#include <gtest/gtest.h>

#include <cstddef>

#include "ckpt/archive.hpp"
#include "mem_test_util.hpp"

namespace glocks {
namespace {

using mem::AmoKind;
using mem::MemOp;
using test::MemHarness;

constexpr Addr kA = 0x10000;  // home tile = line 0x400 % 4 = 0

TEST(MemProtocol, ColdLoadReturnsZeroAndGrantsExclusive) {
  MemHarness m;
  EXPECT_EQ(m.load(1, kA), 0u);
  EXPECT_EQ(m.hier().l1(1).probe_state(line_of(kA)), 'E');
  EXPECT_EQ(m.hier().dir(0).probe_state(line_of(kA)), 'M');  // E == owned
}

TEST(MemProtocol, StoreThenLoadSameCore) {
  MemHarness m;
  m.store(0, kA, 123);
  EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA)), 'M');
  EXPECT_EQ(m.load(0, kA), 123u);
}

TEST(MemProtocol, SecondReaderDowngradesOwnerToShared) {
  MemHarness m;
  m.store(0, kA, 7);
  EXPECT_EQ(m.load(1, kA), 7u);  // cache-to-cache transfer
  m.drain();  // let the CopyBack settle at the home
  EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA)), 'S');
  EXPECT_EQ(m.hier().l1(1).probe_state(line_of(kA)), 'S');
  EXPECT_EQ(m.hier().dir(0).probe_state(line_of(kA)), 'S');
  EXPECT_EQ(m.hier().dir(0).probe_sharers(line_of(kA)), 2u);
  EXPECT_GE(m.hier().l1(0).stats().forwards_served, 1u);
}

TEST(MemProtocol, WriterInvalidatesAllSharers) {
  MemHarness m;
  for (CoreId c = 0; c < 4; ++c) EXPECT_EQ(m.load(c, kA), 0u);
  m.store(2, kA, 55);
  EXPECT_EQ(m.hier().l1(2).probe_state(line_of(kA)), 'M');
  for (CoreId c : {0u, 1u, 3u}) {
    EXPECT_EQ(m.hier().l1(c).probe_state(line_of(kA)), 'I') << c;
  }
  EXPECT_EQ(m.load(1, kA), 55u);
}

TEST(MemProtocol, UpgradeFromSharedKeepsData) {
  MemHarness m;
  m.store(0, kA, 9);
  EXPECT_EQ(m.load(1, kA), 9u);  // both now S
  m.store(1, kA, 10);            // S -> M via Upgrade
  EXPECT_GE(m.hier().l1(1).stats().upgrades, 1u);
  EXPECT_EQ(m.load(1, kA), 10u);
  EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA)), 'I');
}

TEST(MemProtocol, WriteMissStealsOwnership) {
  MemHarness m;
  m.store(0, kA, 1);
  m.store(1, kA, 2);  // FwdGetX: 0 -> invalid, 1 -> M
  EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA)), 'I');
  EXPECT_EQ(m.hier().l1(1).probe_state(line_of(kA)), 'M');
  EXPECT_EQ(m.load(2, kA), 2u);
}

TEST(MemProtocol, SilentExclusiveUpgradeCostsNothing) {
  MemHarness m;
  EXPECT_EQ(m.load(0, kA), 0u);  // granted E
  const auto misses_before = m.hier().l1(0).stats().misses;
  m.store(0, kA, 4);  // E -> M silently, a hit
  EXPECT_EQ(m.hier().l1(0).stats().misses, misses_before);
  EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA)), 'M');
}

TEST(MemProtocol, AmoSemantics) {
  MemHarness m;
  EXPECT_EQ(m.amo(0, AmoKind::kTestAndSet, kA, 0), 0u);
  EXPECT_EQ(m.load(1, kA), 1u);
  EXPECT_EQ(m.amo(1, AmoKind::kSwap, kA, 42), 1u);
  EXPECT_EQ(m.amo(2, AmoKind::kFetchAdd, kA, 8), 42u);
  EXPECT_EQ(m.amo(3, AmoKind::kCompareSwap, kA, 99, /*expected=*/50), 50u);
  EXPECT_EQ(m.load(0, kA), 99u);
  EXPECT_EQ(m.amo(0, AmoKind::kCompareSwap, kA, 7, /*expected=*/1), 99u);
  EXPECT_EQ(m.load(0, kA), 99u);  // failed CAS writes nothing
}

TEST(MemProtocol, DistinctWordsOfOneLineDoNotClobber) {
  MemHarness m;
  m.store(0, kA, 1);
  m.store(1, kA + 8, 2);
  m.store(2, kA + 16, 3);
  EXPECT_EQ(m.load(3, kA), 1u);
  EXPECT_EQ(m.load(3, kA + 8), 2u);
  EXPECT_EQ(m.load(3, kA + 16), 3u);
}

TEST(MemProtocol, EvictionWritesBackAndRefetchesCorrectly) {
  // L1: 128 sets * 4 ways; addresses 128 lines apart collide in set 0.
  MemHarness m;
  const Addr stride = Addr{128} * kLineBytes;
  for (Word i = 0; i < 6; ++i) {
    m.store(0, kA + i * stride, 100 + i);  // evicts the first two lines
  }
  m.drain();
  EXPECT_GE(m.hier().l1(0).stats().writebacks, 2u);
  for (Word i = 0; i < 6; ++i) {
    EXPECT_EQ(m.load(0, kA + i * stride), 100 + i) << i;
  }
  m.drain();
  EXPECT_EQ(m.hier().total_dir_stats().stale_putm, 0u);
}

TEST(MemProtocol, L1SetsFillOnFirstUseAndSaveUntouchedWaysAsZeros) {
  // L1: 128 sets * 4 ways; lines 128 apart share set 0. An L1 allocates a
  // set's ways on the first install into it, and saves a set never
  // filled as `ways` default entries: valid, line, state, 8 data words,
  // lru = 1 + 8 + 1 + 64 + 8 = 82 bytes each, all zero.
  MemHarness m;
  ASSERT_EQ(m.config().l1.num_sets(), 128u);
  ASSERT_EQ(m.config().l1.ways, 4u);
  const Addr stride = Addr{128} * kLineBytes;
  const std::size_t l1_bytes = std::size_t{128} * 4 * 82;
  const auto save_l1 = [&](CoreId c) {
    ckpt::ArchiveWriter a;
    a.begin_section(1);
    m.hier().l1(c).save(a);
    a.end_section();
    return a.buffer();
  };
  ckpt::ArchiveWriter empty;
  empty.begin_section(1);
  empty.end_section();
  // Everything before the trailing CRC of an empty section is framing.
  const std::size_t payload_at = empty.buffer().size() - 4;

  const auto fresh = save_l1(0);
  ASSERT_GT(fresh.size(), payload_at + l1_bytes);
  std::size_t nonzero = 0;
  for (std::size_t i = payload_at; i < payload_at + l1_bytes; ++i) {
    nonzero += fresh[i] != 0;
  }
  EXPECT_EQ(nonzero, 0u);
  EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA)), 'I');

  // Five lines into set 0: the fifth evicts the LRU (first) line, and the
  // other sets stay empty.
  for (Word i = 0; i < 5; ++i) m.store(0, kA + i * stride, 10 + i);
  m.drain();
  EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA)), 'I');
  for (Word i = 1; i < 5; ++i) {
    EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA + i * stride)), 'M')
        << i;
  }
  EXPECT_EQ(m.hier().l1(0).probe_state(line_of(kA) + 1), 'I');
  EXPECT_EQ(m.hier().l1(0).stats().writebacks, 1u);
  // Set 0 now saves its four ways; the archive keeps its length, and
  // every set after it still saves as zeros.
  const auto used = save_l1(0);
  EXPECT_EQ(used.size(), fresh.size());
  nonzero = 0;
  for (std::size_t i = payload_at + 4 * 82; i < payload_at + l1_bytes; ++i) {
    nonzero += used[i] != 0;
  }
  EXPECT_EQ(nonzero, 0u);
  EXPECT_EQ(m.load(1, kA), 10u);  // the written-back value survives
}

TEST(MemProtocol, ForwardRacingEvictionServedFromWritebackBuffer) {
  // Core 0 dirties a line and evicts it (PutM in flight); core 1 reads it
  // immediately. Whatever interleaving occurs, core 1 must see the data.
  MemHarness m;
  const Addr stride = Addr{128} * kLineBytes;
  m.store(0, kA, 77);
  // Issue the conflicting stores without draining so the PutM can race.
  for (Word i = 1; i <= 4; ++i) m.store(0, kA + i * stride, i);
  EXPECT_EQ(m.load(1, kA), 77u);
  m.drain();
}

TEST(MemProtocol, L2CapacityEvictionPreservesData) {
  // Shrink the L2 so slice sets overflow and dirty lines hit memory.
  CmpConfig cfg = MemHarness::small_config();
  cfg.l2.slice_size_bytes = 4 * 1024;  // 16 sets * 4 ways per slice
  MemHarness m(cfg);
  const Word lines = 600;
  for (Word i = 0; i < lines; ++i) {
    m.store(0, kA + i * kLineBytes, 7000 + i);
  }
  // Push the writebacks through: evict from L1 by touching a disjoint
  // region, then reread everything.
  for (Word i = 0; i < 600; ++i) {
    m.load(1, 0x400000 + i * kLineBytes);
  }
  for (Word i = 0; i < lines; ++i) {
    EXPECT_EQ(m.load(2, kA + i * kLineBytes), 7000 + i) << i;
  }
  m.drain();
  EXPECT_GT(m.hier().total_dir_stats().memory_writebacks, 0u);
}

TEST(MemProtocol, HitAndMissLatencies) {
  MemHarness m;
  // Warm: first access misses to the local home (tile 0 owns line 0x400).
  m.load(0, kA);
  const Cycle hit = m.timed(0, {MemOp::Type::kLoad, kA, 0, 0,
                                AmoKind::kTestAndSet});
  // timed() counts whole engine steps, one past the completing cycle.
  EXPECT_EQ(hit, m.config().l1.access_latency + 1);
  // A cold remote line misses through the mesh to another tile's home.
  const Addr remote = kA + kLineBytes;  // home tile 1
  const Cycle miss = m.timed(0, {MemOp::Type::kLoad, remote, 0, 0,
                                 AmoKind::kTestAndSet});
  EXPECT_GT(miss, m.config().memory_latency);  // cold: memory fetch
  const Cycle warm_miss = m.timed(2, {MemOp::Type::kLoad, remote, 0, 0,
                                      AmoKind::kTestAndSet});
  EXPECT_LT(warm_miss, m.config().memory_latency);  // served by L2/C2C
  EXPECT_GT(warm_miss, 2 * m.config().noc.router_latency);
}

TEST(MemProtocol, StatsCountOperations) {
  MemHarness m;
  m.load(0, kA);
  m.store(1, kA, 5);
  m.amo(2, AmoKind::kFetchAdd, kA, 1);
  const auto l1 = m.hier().total_l1_stats();
  EXPECT_EQ(l1.loads, 1u);
  EXPECT_EQ(l1.stores, 1u);
  EXPECT_EQ(l1.amos, 1u);
  EXPECT_EQ(l1.accesses(), 3u);
  const auto dir = m.hier().total_dir_stats();
  EXPECT_GE(dir.gets + dir.getx + dir.upgrades, 3u);
}

TEST(MemProtocol, LocalHomeAccessBypassesNetwork) {
  MemHarness m;
  // Line with home == requesting tile: no mesh traffic at all.
  m.load(0, kA);  // home of line 0x400 is tile 0
  m.drain();
  // (cold miss goes to memory through the local slice, not the mesh)
  // Only check the *mesh* saw nothing:
  // MemHarness has no direct mesh access; use hierarchy stats instead.
  EXPECT_EQ(m.hier().total_dir_stats().l2_misses, 1u);
}

}  // namespace
}  // namespace glocks
