// Tests of the event-driven scheduler layered on the cycle engine:
// wake ordering, the N -> N+1 visibility bump, clock-jump bounds, and —
// the property everything else exists to protect — bit-identity between
// the event kernel and the serial tick-everything reference for every
// registry workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "harness/runner.hpp"
#include "result_diff.hpp"
#include "sim/engine.hpp"
#include "workloads/registry.hpp"

namespace glocks::sim {
namespace {

/// Records (id, cycle) for every tick, then goes straight back to sleep.
/// Work arrives only via wake()/wake_at() from the test body.
class Napper final : public Component {
 public:
  Napper(int id, std::vector<std::pair<int, Cycle>>& log)
      : id_(id), log_(log) {}
  void tick(Cycle now) override {
    log_.emplace_back(id_, now);
    sleep();
  }

 private:
  int id_;
  std::vector<std::pair<int, Cycle>>& log_;
};

/// Wakes a peer during its own tick at a chosen cycle, then sleeps.
class Waker final : public Component {
 public:
  Waker(Component& target, Cycle fire,
        std::vector<std::pair<int, Cycle>>& log)
      : target_(target), fire_(fire), log_(log) {}
  void tick(Cycle now) override {
    log_.emplace_back(-1, now);
    if (now == fire_) {
      target_.wake();
      sleep();
      return;
    }
    // Stay active until the firing cycle so the wake happens mid-scan.
  }

 private:
  Component& target_;
  Cycle fire_;
  std::vector<std::pair<int, Cycle>>& log_;
};

using Log = std::vector<std::pair<int, Cycle>>;

TEST(EngineEvent, SameCycleWakesTickInRegistrationOrder) {
  Engine e;
  Log log;
  Napper a(1, log), b(2, log), c(3, log);
  e.add(a);
  e.add(b);
  e.add(c);
  // First cycle: everyone ticks once (registration order) and sleeps.
  e.step();
  log.clear();

  // Arm the same wake cycle in scrambled order; the heap tie-breaks on
  // the slot index, so the scan still visits registration order.
  c.wake_at(10);
  a.wake_at(10);
  b.wake_at(10);
  e.run_until([&] { return log.size() >= 3; }, 100);

  const Log want = {{1, 10}, {2, 10}, {3, 10}};
  EXPECT_EQ(log, want);
}

TEST(EngineEvent, WakeFromEarlierSlotLandsSameCycle) {
  // A producer in an earlier slot wakes a later-slot sleeper mid-scan:
  // the sleeper's slot has not been visited yet, so it ticks this very
  // cycle — exactly when the serial loop would have ticked it.
  Engine e;
  Log log;
  Napper sleeper(1, log);
  Waker producer(sleeper, 4, log);
  e.add(producer);  // slot 0
  e.add(sleeper);   // slot 1
  e.step();         // both tick at 0; sleeper naps, producer stays up
  log.clear();
  e.run_until([&] { return !log.empty() && log.back().first == 1; }, 100);
  // The sleeper's one post-nap tick happens at the producer's fire
  // cycle, not one later.
  EXPECT_EQ(log.back(), (std::pair<int, Cycle>{1, 4}));
}

TEST(EngineEvent, WakeFromLaterSlotBumpsToNextCycle) {
  // The mirror case: the producer sits in a *later* slot, so by the time
  // it fires, the sleeper's slot has already been passed over this
  // cycle. The wake must land on the next cycle — the serial rule that
  // state written during cycle N is observed at N+1.
  Engine e;
  Log log;
  Napper sleeper(1, log);
  Waker producer(sleeper, 4, log);
  e.add(sleeper);   // slot 0
  e.add(producer);  // slot 1
  e.step();
  log.clear();
  e.run_until([&] { return !log.empty() && log.back().first == 1; }, 100);
  EXPECT_EQ(log.back(), (std::pair<int, Cycle>{1, 5}));
}

TEST(EngineEvent, WakeInThePastIsACheckedError) {
  Engine e;
  Log log;
  Napper a(1, log);
  e.add(a);
  for (int i = 0; i < 5; ++i) e.step();
  ASSERT_EQ(e.now(), 5u);
  EXPECT_THROW(a.wake_at(3), SimError);
}

TEST(EngineEvent, ClockJumpStopsExactlyAtNearestWake) {
  Engine e;
  Log log;
  Napper a(1, log), b(2, log);
  e.add(a);
  e.add(b);
  e.step();  // both nap immediately
  log.clear();

  a.wake_at(100);
  b.wake_at(250);
  e.run_until([&] { return log.size() >= 2; }, 1000);

  // Each wake is honoured at exactly its cycle: the jump lands *on* the
  // nearest wake, never beyond it, and the second wake is not consumed
  // by the first jump.
  const Log want = {{1, 100}, {2, 250}};
  EXPECT_EQ(log, want);

  // Both gaps were skipped, not stepped: cycles 1..99 and 101..249 never
  // ran a scan.
  const EnginePerf& p = e.perf();
  EXPECT_GE(p.clock_jumps, 2u);
  EXPECT_GE(p.cycles_skipped, 99u + 149u);
  EXPECT_LE(p.cycles_stepped, 10u);
}

TEST(EngineEvent, SerialModeIgnoresSleep) {
  // In kSerial mode sleep()/wake() are no-ops: every component ticks
  // every cycle, preserving the original reference loop.
  Engine e(EngineMode::kSerial);
  Log log;
  Napper a(1, log);
  e.add(a);
  for (int i = 0; i < 5; ++i) e.step();
  EXPECT_EQ(log.size(), 5u);
}

// The active-slot scan over more than two 64-bit words of slots. Each
// Node has an inbox; it logs a tick only when it consumes posted work,
// so the log is the same under both engine modes exactly when the event
// kernel ticks every woken slot on the cycle the serial loop would have
// shown it the work.
class Node final : public Component {
 public:
  using Action = std::function<void(Cycle)>;

  Node(int id, Log& log) : id_(id), log_(log) {}
  void post() {
    pending_ = true;
    wake();
  }
  void at(Cycle c, Action a) { script_.emplace(c, std::move(a)); }
  Cycle probe() const { return next_tick_cycle(); }

  void tick(Cycle now) override {
    if (pending_) {
      log_.emplace_back(id_, now);
      pending_ = false;
    }
    const auto [first, last] = script_.equal_range(now);
    for (auto it = first; it != last; ++it) it->second(now);
    const auto next = script_.upper_bound(now);
    if (next == script_.end()) {
      sleep();
    } else {
      sleep_until(next->first);
    }
  }

 private:
  int id_;
  Log& log_;
  bool pending_ = false;
  std::multimap<Cycle, Action> script_;
};

struct ScanScript {
  static constexpr int kNodes = 140;  // slots 0..139: three words
  static constexpr Cycle kCycles = 40;

  explicit ScanScript(EngineMode mode) : e(mode) {
    for (int i = 0; i < kNodes; ++i) e.add(nodes.emplace_back(i, log));
    auto post = [this](int to) {
      return [this, to](Cycle) { nodes[to].post(); };
    };
    // Lower into higher slot, same word (3 -> 40) and across the word
    // boundary (63 -> 64, 60 -> 130 two words up): this cycle.
    nodes[3].at(5, post(40));
    nodes[63].at(10, post(64));
    nodes[60].at(10, post(130));
    // Higher into lower slot (100 -> 5): next cycle.
    nodes[100].at(15, post(5));
    // Slot 7 consumes a post from slot 2 and sleeps; slot 90 posts to it
    // again in the same cycle: it ticks again on the next one.
    nodes[2].at(20, post(7));
    nodes[90].at(20, post(7));
    // A chain within one cycle: 10 -> 70 -> 135 all tick at 25; 70's
    // post back down to 20 lands on 26.
    nodes[10].at(25, post(70));
    nodes[70].at(25, [this](Cycle) {
      nodes[135].post();
      nodes[20].post();
    });
    // next_tick_cycle() from inside slot 65's tick at cycle 30.
    nodes[65].at(30, [this](Cycle) {
      for (int s : {0, 64, 65, 66, 129}) probes.push_back(nodes[s].probe());
    });
    for (Cycle c = 0; c < kCycles; ++c) e.step();
  }

  Engine e;
  Log log;
  std::deque<Node> nodes;  // stable addresses: the engine holds them
  std::vector<Cycle> probes;
};

TEST(EngineEvent, ActiveSlotScanTicksWokenSlotsOnTheSerialCycle) {
  const ScanScript event(EngineMode::kEventDriven);
  const ScanScript serial(EngineMode::kSerial);

  const Log want = {{40, 5},  {64, 10}, {130, 10}, {5, 16},  {7, 20},
                    {7, 21},  {70, 25}, {135, 25}, {20, 26}};
  EXPECT_EQ(event.log, want);
  EXPECT_EQ(serial.log, want);
  const std::vector<Cycle> want_probes = {31, 31, 31, 30, 30};
  EXPECT_EQ(event.probes, want_probes);
  EXPECT_EQ(serial.probes, want_probes);

  // Serial ticks every slot on every cycle; the event kernel pays only
  // for the slots it ticks, and counts the rest as skipped.
  const EnginePerf& s = serial.e.perf();
  const EnginePerf& ev = event.e.perf();
  const std::uint64_t slot_cycles = ScanScript::kNodes * ScanScript::kCycles;
  EXPECT_EQ(s.ticks_executed, slot_cycles);
  EXPECT_EQ(s.ticks_skipped, 0u);
  EXPECT_EQ(ev.cycles_stepped, s.cycles_stepped);
  EXPECT_EQ(ev.ticks_executed + ev.ticks_skipped, slot_cycles);
  // Cycle 0 ticks all 140 slots; after that only the 9 scripted ticks
  // and the 9 logged ones run, slot 70's two sharing one tick at 25.
  EXPECT_EQ(ev.ticks_executed, 140u + 9u + 9u - 1u);
  EXPECT_EQ(event.e.slot_perf()[7].ticks, 3u);  // cycles 0, 20 and 21
  EXPECT_EQ(serial.e.slot_perf()[7].ticks, ScanScript::kCycles);
}

// The headline acceptance property: for every workload in the registry,
// the event-driven kernel reproduces the serial reference bit-for-bit
// across every reported metric (cycles, per-category breakdowns, cache
// and directory counters, G-line traffic, energy, the lock census —
// everything diff_results covers).
harness::RunResult run_mode(const workloads::RegistryEntry& entry,
                            EngineMode mode) {
  auto wl = entry.make(0.25);
  harness::RunConfig cfg;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  cfg.seed = 5;
  cfg.cmp.engine_mode = mode;
  return harness::run_workload(*wl, cfg);
}

class EveryWorkloadEventVsSerial
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EveryWorkloadEventVsSerial, EventKernelIsBitIdenticalToSerial) {
  const auto& entry = workloads::registry()[GetParam()];
  const auto serial = run_mode(entry, EngineMode::kSerial);
  const auto event = run_mode(entry, EngineMode::kEventDriven);
  const std::string diff = test::diff_results(serial, event);
  EXPECT_EQ(diff, "") << entry.name << ": " << diff;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryWorkloadEventVsSerial,
    ::testing::Range<std::size_t>(0, workloads::registry().size()),
    [](const auto& info) {
      return workloads::registry()[info.param].name;
    });

}  // namespace
}  // namespace glocks::sim
