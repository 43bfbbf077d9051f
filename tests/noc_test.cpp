// Unit tests for the 2D-mesh network: routing, latency, ordering,
// backpressure, and Figure 9 traffic accounting.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/config.hpp"
#include "noc/mesh.hpp"

namespace glocks::noc {
namespace {

struct Delivery {
  Cycle cycle;
  std::uint64_t seq;
  CoreId src;
};

class MeshFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kTiles = 16;
  static constexpr std::uint32_t kWidth = 4;

  MeshFixture() : mesh_(kTiles, kWidth, NocConfig{}) {
    for (CoreId t = 0; t < kTiles; ++t) {
      mesh_.set_sink(t, [this, t](Packet&& p) {
        deliveries_[t].push_back(Delivery{now_, p.seq, p.src});
      });
    }
  }

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      mesh_.tick(now_);
      ++now_;
    }
  }

  Cycle now_ = 0;
  Mesh mesh_;
  std::map<CoreId, std::vector<Delivery>> deliveries_;
};

TEST_F(MeshFixture, ZeroLoadLatencyMatchesHopFormula) {
  // inject(1) + hops*(router 3 + link 1) + final router 3.
  const NocConfig cfg;
  for (const auto [src, dst] : {std::pair<CoreId, CoreId>{0, 1},
                                {0, 3},
                                {0, 15},
                                {5, 6},
                                {12, 3}}) {
    deliveries_.clear();
    mesh_.send(src, dst, MsgClass::kRequest, 8, now_);
    const Cycle t0 = now_;
    run(200);
    ASSERT_EQ(deliveries_[dst].size(), 1u) << src << "->" << dst;
    const Cycle hops = mesh_.hop_distance(src, dst);
    const Cycle expect =
        t0 + 1 +
        hops * (cfg.router_latency + cfg.link_latency) +
        cfg.router_latency;
    EXPECT_EQ(deliveries_[dst][0].cycle, expect) << src << "->" << dst;
  }
}

TEST_F(MeshFixture, XYRoutingCountsHopBytesPerSwitch) {
  // 0 -> 15 crosses 6 hops + enters at the source router: the packet is
  // forwarded by 7 routers in total (source + 5 intermediate + dest).
  mesh_.send(0, 15, MsgClass::kReply, 72, now_);
  run(100);
  EXPECT_EQ(mesh_.stats().hops(MsgClass::kReply), 7u);
  EXPECT_EQ(mesh_.stats().bytes(MsgClass::kReply), 7u * 72u);
  EXPECT_EQ(mesh_.stats().packets(MsgClass::kReply), 1u);
}

TEST_F(MeshFixture, TrafficClassesAccountedSeparately) {
  mesh_.send(0, 1, MsgClass::kRequest, 8, now_);
  mesh_.send(0, 1, MsgClass::kCoherence, 8, now_);
  mesh_.send(1, 0, MsgClass::kReply, 72, now_);
  run(100);
  EXPECT_EQ(mesh_.stats().bytes(MsgClass::kRequest), 2u * 8u);
  EXPECT_EQ(mesh_.stats().bytes(MsgClass::kCoherence), 2u * 8u);
  EXPECT_EQ(mesh_.stats().bytes(MsgClass::kReply), 2u * 72u);
  EXPECT_EQ(mesh_.stats().total_packets(), 3u);
}

TEST_F(MeshFixture, SameSrcDstPairDeliversInFifoOrder) {
  for (int i = 0; i < 20; ++i) {
    mesh_.send(0, 15, MsgClass::kRequest, 8, now_);
  }
  run(400);
  ASSERT_EQ(deliveries_[15].size(), 20u);
  for (std::size_t i = 1; i < 20; ++i) {
    EXPECT_LT(deliveries_[15][i - 1].seq, deliveries_[15][i].seq);
  }
}

TEST_F(MeshFixture, HeavyFanInDeliversEverythingDespiteBackpressure) {
  // Every tile floods tile 5; bounded router queues must not drop or
  // deadlock, and the NIC outbox absorbs the excess.
  int expected = 0;
  for (CoreId src = 0; src < kTiles; ++src) {
    if (src == 5) continue;
    for (int i = 0; i < 40; ++i) {
      mesh_.send(src, 5, MsgClass::kRequest, 8, now_);
      ++expected;
    }
  }
  run(5000);
  EXPECT_EQ(static_cast<int>(deliveries_[5].size()), expected);
  EXPECT_TRUE(mesh_.idle());
}

TEST_F(MeshFixture, EjectionPortDeliversAtMostOnePerCycle) {
  for (CoreId src = 1; src < 5; ++src) {
    mesh_.send(src, 0, MsgClass::kRequest, 8, now_);
  }
  run(200);
  ASSERT_EQ(deliveries_[0].size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(deliveries_[0][i].cycle, deliveries_[0][i - 1].cycle);
  }
}

TEST_F(MeshFixture, IdleAfterDrainAndBusyInFlight) {
  EXPECT_TRUE(mesh_.idle());
  mesh_.send(0, 15, MsgClass::kRequest, 8, now_);
  EXPECT_FALSE(mesh_.idle());
  run(100);
  EXPECT_TRUE(mesh_.idle());
}

TEST_F(MeshFixture, RejectsSameTileMessages) {
  EXPECT_THROW(mesh_.send(3, 3, MsgClass::kRequest, 8, now_),
               glocks::SimError);
}

TEST_F(MeshFixture, HopDistanceIsManhattan) {
  EXPECT_EQ(mesh_.hop_distance(0, 0), 0u);
  EXPECT_EQ(mesh_.hop_distance(0, 3), 3u);
  EXPECT_EQ(mesh_.hop_distance(0, 15), 6u);
  EXPECT_EQ(mesh_.hop_distance(15, 0), 6u);
  EXPECT_EQ(mesh_.hop_distance(5, 10), 2u);
}

TEST_F(MeshFixture, MaterializedEjectionsDrainInArrivalOrderAcrossClasses) {
  // Regression: two same-pair express flights of different classes, the
  // later one of a lower-numbered class, forced to materialize just
  // before the first arrival. Both land in the destination's single
  // cross-class ejection FIFO, which must be seeded in arrival order —
  // seeding in class order head-of-line blocks the earlier packet
  // behind the later one.
  mesh_.send(3, 0, MsgClass::kCoherence, 8, now_);  // arrives at 16
  run(1);
  mesh_.send(3, 0, MsgClass::kRequest, 8, now_);  // arrives at 17
  run(14);
  ASSERT_EQ(now_, 15u);
  // Two identical same-cycle sends double-book an output port: the
  // second conflicts and materializes every active flight while both
  // earlier packets are past their last switch.
  mesh_.send(5, 6, MsgClass::kRequest, 8, now_);
  mesh_.send(5, 6, MsgClass::kRequest, 8, now_);
  EXPECT_GE(mesh_.express_perf().materialized, 2u);
  run(100);
  ASSERT_EQ(deliveries_[0].size(), 2u);
  EXPECT_EQ(deliveries_[0][0].cycle, 16u);  // kCoherence, sent first
  EXPECT_EQ(deliveries_[0][1].cycle, 17u);  // kRequest, sent second
  EXPECT_LT(deliveries_[0][0].seq, deliveries_[0][1].seq);
}

// The mesh ticks only backlogged NICs and occupied routers. These pin
// literal delivery cycles (recorded from a mesh that ticked every NIC and
// router on every cycle) for the cases a worklist could get wrong.

/// "cycle:src.k" for every delivery at `dst`, k = the source's k-th send.
std::string trace(const std::vector<Delivery>& ds) {
  std::string out;
  for (const Delivery& d : ds) {
    if (!out.empty()) out += ' ';
    out += std::to_string(d.cycle) + ':' + std::to_string(d.src) + '.' +
           std::to_string(d.seq & ((std::uint64_t{1} << 40) - 1));
  }
  return out;
}

TEST_F(MeshFixture, NicBacklogSurvivesAFullLocalFifo) {
  // Four more packets than the local input FIFO holds, all sent in one
  // cycle: the NIC must stay listed until its last packet is injected.
  const NocConfig cfg;
  const std::uint32_t n = cfg.input_queue_depth + 4;
  for (std::uint32_t i = 0; i < n; ++i) {
    mesh_.send(0, 3, MsgClass::kRequest, 8, now_);
  }
  run(200);
  ASSERT_EQ(deliveries_[3].size(), n);
  EXPECT_EQ(trace(deliveries_[3]),
            "16:0.0 17:0.1 18:0.2 19:0.3 20:0.4 21:0.5 22:0.6 23:0.7 "
            "24:0.8 25:0.9 26:0.10 27:0.11 28:0.12 29:0.13 30:0.14 "
            "31:0.15 32:0.16 33:0.17 34:0.18 35:0.19");
  EXPECT_TRUE(mesh_.idle());
}

TEST_F(MeshFixture, WestAndNorthForwardsReachLowerRoutersNextTick) {
  // Two identical sends force the hop-by-hop path (the second conflicts
  // with the first's express flight); everything after rides the physical
  // fabric. 15 -> 0 runs west then north, 7 -> 4 west, 13 -> 1 north:
  // each hop hands a packet to a lower-numbered router than the sender,
  // one the router walk has already passed this tick.
  mesh_.send(15, 0, MsgClass::kRequest, 8, now_);
  mesh_.send(15, 0, MsgClass::kRequest, 8, now_);
  mesh_.send(7, 4, MsgClass::kReply, 72, now_);
  mesh_.send(13, 1, MsgClass::kCoherence, 8, now_);
  run(2);
  mesh_.send(14, 0, MsgClass::kRequest, 8, now_);
  mesh_.send(11, 8, MsgClass::kRequest, 8, now_);
  run(200);
  EXPECT_EQ(trace(deliveries_[0]), "26:14.0 28:15.0 29:15.1");
  EXPECT_EQ(trace(deliveries_[4]), "16:7.0");
  EXPECT_EQ(trace(deliveries_[1]), "16:13.0");
  EXPECT_EQ(trace(deliveries_[8]), "18:11.0");
  EXPECT_EQ(mesh_.express_perf().hits, 0u);
  EXPECT_TRUE(mesh_.idle());
}

TEST_F(MeshFixture, ExpressMaterializationLandsInIdleRouters) {
  // 0 -> 15 flies express; ten cycles in, a conflicting pair of sends
  // demotes it into routers that hold nothing and are on no worklist.
  mesh_.send(0, 15, MsgClass::kReply, 72, now_);
  run(10);
  mesh_.send(5, 6, MsgClass::kRequest, 8, now_);
  mesh_.send(5, 6, MsgClass::kRequest, 8, now_);
  EXPECT_EQ(mesh_.express_perf().materialized, 2u);
  run(200);
  EXPECT_EQ(trace(deliveries_[15]), "28:0.0");
  EXPECT_EQ(trace(deliveries_[6]), "18:5.0 19:5.1");
  EXPECT_EQ(mesh_.stats().hops(MsgClass::kReply), 7u);
  EXPECT_TRUE(mesh_.idle());
}

// Property: the express fast-forward path is an invisible optimisation.
// Two meshes — express on vs off — driven in lockstep with identical
// random traffic must deliver every packet at the identical cycle, in
// the identical order, with identical per-class traffic accounting. The
// load alternates between sparse phases (express engages) and bursts
// (conflicts force declines and mid-flight materialization), so every
// express code path is crossed and checked.
TEST(ExpressProperty, LockstepMatchesHopByHopExactly) {
  struct D {
    Cycle cycle;
    std::uint64_t seq;
    CoreId src;
    MsgClass cls;
    bool operator==(const D& o) const {
      return cycle == o.cycle && seq == o.seq && src == o.src &&
             cls == o.cls;
    }
  };
  ExpressPerf total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    NocConfig on, off;
    on.express_routes = true;
    off.express_routes = false;
    Mesh a(16, 4, on), b(16, 4, off);
    std::map<CoreId, std::vector<D>> da, db;
    Cycle now = 0;
    for (CoreId t = 0; t < 16; ++t) {
      a.set_sink(t, [&da, &now, t](Packet&& p) {
        da[t].push_back(D{now, p.seq, p.src, p.cls});
      });
      b.set_sink(t, [&db, &now, t](Packet&& p) {
        db[t].push_back(D{now, p.seq, p.src, p.cls});
      });
    }
    Rng rng(seed);
    for (int step = 0; step < 4000; ++step) {
      // Alternate sparse and bursty load phases.
      const bool burst = (step / 250) % 2 == 1;
      const double p = burst ? 0.5 : 0.03;
      if (rng.uniform() < p) {
        const int n = burst ? 1 + static_cast<int>(rng.below(4)) : 1;
        for (int i = 0; i < n; ++i) {
          const auto src = static_cast<CoreId>(rng.below(16));
          auto dst = static_cast<CoreId>(rng.below(16));
          if (dst == src) dst = (dst + 1) % 16;
          const auto cls = static_cast<MsgClass>(rng.below(3));
          const std::uint32_t bytes = cls == MsgClass::kReply ? 72 : 8;
          a.send(src, dst, cls, bytes, now);
          b.send(src, dst, cls, bytes, now);
        }
      }
      a.tick(now);
      b.tick(now);
      ++now;
    }
    // Drain both fabrics completely.
    for (int step = 0; step < 3000 && !(a.idle() && b.idle()); ++step) {
      a.tick(now);
      b.tick(now);
      ++now;
    }
    ASSERT_TRUE(a.idle() && b.idle()) << "seed " << seed;
    for (CoreId t = 0; t < 16; ++t) {
      ASSERT_EQ(da[t].size(), db[t].size())
          << "tile " << t << " seed " << seed;
      for (std::size_t i = 0; i < da[t].size(); ++i) {
        EXPECT_TRUE(da[t][i] == db[t][i])
            << "tile " << t << " delivery " << i << " seed " << seed
            << ": express (cycle " << da[t][i].cycle << ", seq "
            << da[t][i].seq << ") vs physical (cycle " << db[t][i].cycle
            << ", seq " << db[t][i].seq << ")";
      }
    }
    for (const auto cls :
         {MsgClass::kRequest, MsgClass::kReply, MsgClass::kCoherence}) {
      EXPECT_EQ(a.stats().bytes(cls), b.stats().bytes(cls)) << "seed " << seed;
      EXPECT_EQ(a.stats().hops(cls), b.stats().hops(cls)) << "seed " << seed;
      EXPECT_EQ(a.stats().packets(cls), b.stats().packets(cls))
          << "seed " << seed;
    }
    total.hits += a.express_perf().hits;
    total.declined += a.express_perf().declined;
    total.materialized += a.express_perf().materialized;
  }
  // The load pattern must have crossed every express code path, or the
  // property proves less than it claims.
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.declined, 0u);
  EXPECT_GT(total.materialized, 0u);
}

TEST(MsgClass, Names) {
  EXPECT_EQ(to_string(MsgClass::kRequest), "Request");
  EXPECT_EQ(to_string(MsgClass::kReply), "Reply");
  EXPECT_EQ(to_string(MsgClass::kCoherence), "Coherence");
}

}  // namespace
}  // namespace glocks::noc
