// Tests for the hierarchical GLock network (Section V scaling path 2):
// GlockUnit built with the hierarchical token-tree shape.
#include <gtest/gtest.h>

#include <vector>

#include "gline/glock_unit.hpp"
#include "harness/runner.hpp"
#include "workloads/micro.hpp"

namespace glocks {
namespace {

class HierFixture {
 public:
  /// `group` is the reach (hierarchical) or the mesh width (flat).
  explicit HierFixture(std::uint32_t cores, std::uint32_t group = 6,
                       bool hierarchical = true) {
    for (std::uint32_t c = 0; c < cores; ++c) regs_.emplace_back(1);
    for (auto& r : regs_) ptrs_.push_back(&r);
    unit_ = std::make_unique<gline::GlockUnit>(0, cores, group, 1, ptrs_,
                                               hierarchical);
  }
  void request(CoreId c) { regs_[c].req[0] = true; }
  bool waiting(CoreId c) const { return regs_[c].req[0]; }
  void release(CoreId c) { regs_[c].rel[0] = true; }
  int ticks_to_grant(CoreId c, int limit = 200) {
    int n = 0;
    while (waiting(c) && n < limit) {
      unit_->tick(now_++);
      ++n;
    }
    return n;
  }
  void tick(int n) {
    for (int i = 0; i < n; ++i) unit_->tick(now_++);
  }

  Cycle now_ = 0;
  std::vector<core::LockRegisters> regs_;
  std::vector<core::LockRegisters*> ptrs_;
  std::unique_ptr<gline::GlockUnit> unit_;
};

TEST(HierGlock, TreeShapeMatchesReach) {
  // 100 cores, reach 6: 17 segment nodes + 3 group nodes + 1 root.
  HierFixture f(100);
  EXPECT_EQ(f.unit_->num_secondary_managers() + 1, 21u);
  EXPECT_EQ(f.unit_->depth(), 3u);
  // wires: 100 leaf wires + 17 + 3 (non-root nodes).
  EXPECT_EQ(f.unit_->num_glines(), 120u);
}

TEST(HierGlock, SmallChipCollapsesToTwoLevels) {
  HierFixture f(9, 3);
  EXPECT_EQ(f.unit_->depth(), 2u);  // 3 segments + root
  EXPECT_EQ(f.unit_->num_secondary_managers() + 1, 4u);
  EXPECT_EQ(f.unit_->num_glines(), 12u);  // nothing is co-located
}

// The one behavioural difference between the two shapes: how the root
// restarts its pass. Both trees are three groups of three cores with the
// same signal timing, so only the root policy separates them.
TEST(HierGlock, RootWrapIsOneCycleSlowerThanTheFlatRoot) {
  auto wrap_latency = [](bool hierarchical) {
    HierFixture f(9, 3, hierarchical);
    f.request(8);
    f.ticks_to_grant(8);  // the root has granted the last group
    f.request(0);
    f.tick(6);  // core 0's REQ reaches the root, which waits on group 2
    EXPECT_TRUE(f.waiting(0));
    f.release(8);
    return f.ticks_to_grant(0);
  };
  // LC 8 sends REL; group 2 ends its pass and returns the token; the
  // flat root scans circularly and sends it on to group 0 in the cycle
  // it comes home; group 0 grants core 0; LC 0 picks the token up.
  const int flat = wrap_latency(false);
  EXPECT_EQ(flat, 5);
  // The hierarchical root's linear scan runs off the end first, resets
  // its pass, and grants group 0 exactly one cycle later.
  EXPECT_EQ(wrap_latency(true), flat + 1);
}

TEST(HierGlock, GrantLatencyGrowsLogarithmically) {
  HierFixture small(36);   // depth 2
  HierFixture large(216);  // depth 3
  small.request(0);
  large.request(0);
  const int t_small = small.ticks_to_grant(0);
  const int t_large = large.ticks_to_grant(0);
  EXPECT_LE(t_small, 7);
  EXPECT_LE(t_large, 9);  // two extra signal cycles for one extra level
  EXPECT_GT(t_large, t_small);
}

TEST(HierGlock, MutualExclusionAndFullRotationAt100Cores) {
  HierFixture f(100);
  for (CoreId c = 0; c < 100; ++c) f.request(c);
  std::vector<bool> granted(100, false);
  int grants = 0;
  while (grants < 100) {
    f.tick(1);
    if (auto h = f.unit_->holder()) {
      if (!f.waiting(*h)) {
        EXPECT_FALSE(granted[*h]) << "double grant to core " << *h;
        granted[*h] = true;
        ++grants;
        f.release(*h);
      }
    }
    ASSERT_LT(f.now_, 20000u);
  }
  f.tick(20);
  EXPECT_TRUE(f.unit_->idle());
  EXPECT_EQ(f.unit_->stats().acquires_granted, 100u);
}

TEST(HierGlock, EndToEndSctrOn256Cores) {
  // A 16x16 chip is far beyond the flat design's reach; the hierarchical
  // network runs it at unit signal latency.
  workloads::MicroParams p;
  p.total_iterations = 512;
  workloads::SingleCounter wl(p);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 256;
  cfg.cmp.gline.hierarchical = true;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  const auto r = harness::run_workload(wl, cfg);  // verify() inside
  EXPECT_GT(r.gline.acquires_granted, 0u);
}

TEST(HierGlock, FlatDesignStillRejectsOversizeChips) {
  workloads::MicroParams p;
  p.total_iterations = 64;
  workloads::SingleCounter wl(p);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 256;
  cfg.cmp.gline.hierarchical = false;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  EXPECT_THROW(harness::run_workload(wl, cfg), SimError);
}

}  // namespace
}  // namespace glocks
