// The assembled memory system of the CMP.
//
// One L1 + one L2/directory slice per tile, a shared backing store, and a
// transport that routes coherence messages over the mesh — except between
// components of the same tile, which bypass the network entirely (local L2
// slice accesses generate no traffic, as in the paper's testbed).
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "mem/address_map.hpp"
#include "mem/backing_store.hpp"
#include "mem/directory.hpp"
#include "mem/l1_cache.hpp"
#include "mem/qolb.hpp"
#include "mem/sync_buffer.hpp"
#include "noc/mesh.hpp"
#include "sim/engine.hpp"

namespace glocks::mem {

class Hierarchy final : public Transport {
 public:
  /// Wires into `mesh` (registers per-tile sinks) and registers every
  /// cache/directory component with `engine`.
  Hierarchy(const CmpConfig& cfg, noc::Mesh& mesh, sim::Engine& engine);

  L1Cache& l1(CoreId core) { return *l1s_[core]; }
  const L1Cache& l1(CoreId core) const { return *l1s_[core]; }
  DirSlice& dir(CoreId tile) { return *dirs_[tile]; }
  SyncBuffer& sync_buffer(CoreId tile) { return *sbs_[tile]; }
  QolbHome& qolb_home(CoreId tile) { return *qolbs_[tile]; }
  /// Registers the core-side SB wait station for grant delivery.
  void set_sb_station(CoreId core, SbStation* station) {
    sb_stations_[core] = station;
  }
  void set_qolb_station(CoreId core, QolbStation* station) {
    qolb_stations_[core] = station;
  }
  SbStats total_sb_stats() const;
  QolbStats total_qolb_stats() const;
  BackingStore& memory() { return memory_; }
  const AddressMap& address_map() const { return amap_; }
  std::uint32_t num_tiles() const {
    return static_cast<std::uint32_t>(l1s_.size());
  }

  /// Transport: mesh for remote tiles, 1-cycle bypass within a tile.
  void send(CoreId src, CoreId dst, CohMsgPtr msg) override;
  /// Transport: fresh/copied message nodes from the shared slab pool.
  CohMsgPtr make_msg() override { return msg_pool_.acquire(); }
  CohMsgPtr make_msg(const CohMsg& init) override {
    return msg_pool_.acquire(init);
  }

  /// Pool counters for the --perf layer (allocations, reuses,
  /// high-water mark of simultaneously-live messages).
  const CohMsgPool::Stats& msg_pool_stats() const {
    return msg_pool_.stats();
  }
  /// Test hook: the allocation-regression gate watches real heap trips.
  CohMsgPool& msg_pool() { return msg_pool_; }

  /// True when no coherence activity is pending anywhere.
  bool quiescent() const;

  /// Pre-loads `line` into its home L2 slice (clean). Called at setup
  /// time for data the program initialized before the timed parallel
  /// phase, so first touches don't pay the 400-cycle cold-memory penalty
  /// the real workloads would have amortized during initialization.
  void prewarm_line(Addr line) {
    dirs_[amap_.home_of_line(line)]->prewarm(line, memory_.read_line(line));
  }

  /// Reads the architecturally-current value of a word: the owning L1's
  /// copy if a core holds the line M/E, else the home L2 slice's copy,
  /// else memory. For post-run verification only (no timing effect).
  Word coherent_peek(Addr addr) const;

  /// Aggregate stats over all tiles (for the energy model / reports).
  L1Stats total_l1_stats() const;
  DirStats total_dir_stats() const;

  /// Checkpoint: backing store, every L1/directory/SB/QOLB component,
  /// and the logical message-pool counters.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  void deliver_local(CoreId tile, CohMsgPtr msg, Cycle ready);
  /// True when `t` is handled by the L1 (CPU side) rather than the home.
  static bool is_l1_bound(CohType t);

  const sim::Engine& engine_;
  NocConfig noc_cfg_;
  AddressMap amap_;
  BackingStore memory_;
  noc::Mesh& mesh_;
  /// Every coherence message in the machine lives in one of these nodes;
  /// steady state cycles through the free list with zero heap traffic.
  CohMsgPool msg_pool_;
  std::vector<std::unique_ptr<L1Cache>> l1s_;
  std::vector<std::unique_ptr<DirSlice>> dirs_;
  std::vector<std::unique_ptr<SyncBuffer>> sbs_;
  std::vector<SbStation*> sb_stations_;
  std::vector<std::unique_ptr<QolbHome>> qolbs_;
  std::vector<QolbStation*> qolb_stations_;
};

/// The mesh's payload writer (noc::PayloadSaver): PayloadKind::kCohMsg
/// pointees are coherence messages from a hierarchy's pool.
void save_payload(ckpt::ArchiveWriter& a, const noc::Packet& p);

}  // namespace glocks::mem
