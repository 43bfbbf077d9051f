// Home node: one tile's slice of the shared L2 plus its directory bank.
//
// Directory organization: full-map, stored densely per touched line. The
// directory state survives L2 data eviction (a "complete directory"): if
// the data for a Shared line has been evicted from the L2 slice it is
// re-fetched from memory, never recalled from the L1s. This idealization —
// common in protocol studies — removes L2-capacity recalls, which are
// orthogonal to lock behaviour.
//
// The directory is blocking: one active transaction per line; requests
// arriving for a busy line queue in per-line FIFO order. Invalidation acks
// are collected at the home before the grant is sent.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/backing_store.hpp"
#include "mem/l1_cache.hpp"
#include "mem/protocol.hpp"
#include "mem/sharer_set.hpp"
#include "sim/engine.hpp"

namespace glocks::mem {

struct DirStats {
  std::uint64_t gets = 0;
  std::uint64_t getx = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t putm = 0;
  std::uint64_t stale_putm = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t forwards_sent = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;       ///< data reads that went to memory
  std::uint64_t memory_fetches = 0;
  std::uint64_t memory_writebacks = 0;
  std::uint64_t deferred_requests = 0;
  /// Duplicate end-to-end retries dropped (mesh fault-domain runs: a
  /// watchdog re-issue whose original was still alive at the home).
  std::uint64_t dup_requests = 0;
  std::uint64_t l2_accesses() const { return l2_hits + l2_misses; }
};

class DirSlice final : public sim::Component {
 public:
  DirSlice(CoreId tile, std::uint32_t num_cores, const L2Config& cfg,
           Cycle memory_latency, Transport& transport, BackingStore& memory,
           const sim::Engine& engine);

  void deliver(CohMsgPtr msg, Cycle ready);
  void tick(Cycle now) override;

  const DirStats& stats() const { return stats_; }

  /// True when no transaction is active and no message is queued.
  bool quiescent() const { return txns_.empty() && inbox_.empty(); }

  /// Test hook: directory state of a line ('U','S','M', or '-' untracked).
  char probe_state(Addr line) const;
  std::uint32_t probe_sharers(Addr line) const;

  /// The L2 slice's copy of a line, if cached (for coherent post-run
  /// verification; does not touch LRU or timing).
  const LineData* probe_l2_data(Addr line) const;

  /// Installs a clean copy of `line` into the L2 slice before the run
  /// starts (setup-time warm-up of program-initialized data).
  void prewarm(Addr line, const LineData& data) {
    l2_install(line, data, /*dirty=*/false, 0);
  }

  /// Checkpoint: L2 lines, directory entries, active transactions,
  /// deferred queues, inbox, in-flight data reads, and stats. Map-backed
  /// state is written in sorted key order so the bytes are canonical.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class DirState : std::uint8_t { kU, kS, kM };

  struct DirEntry {
    DirState state = DirState::kU;
    CoreId owner = kNoCore;
    SharerSet sharers;
  };

  struct L2Entry {
    bool valid = false;
    Addr line = 0;
    LineData data{};
    bool dirty = false;
    Cycle lru = 0;
  };

  /// Phases of an active transaction.
  enum class Phase : std::uint8_t {
    kReadData,      ///< waiting for the L2/memory read to mature
    kWaitInvAcks,   ///< waiting for sharer invalidation acks
    kWaitCopyBack,  ///< FwdGetS outstanding
    kWaitFwdAck,    ///< FwdGetX outstanding
  };

  struct Txn {
    CohType type = CohType::kGetS;
    CoreId requester = 0;
    Phase phase = Phase::kReadData;
    std::uint32_t pending_acks = 0;
    Cycle wake_at = kNoCycle;
    bool requester_had_copy = false;  ///< Upgrade fast path applies
    std::uint64_t req_id = 0;  ///< end-to-end request id (0 = untagged)
  };

  struct Inbox {
    Cycle ready;
    CohMsgPtr msg;
  };

  DirEntry& entry(Addr line);
  L2Entry* l2_find(Addr line);
  void l2_install(Addr line, const LineData& data, bool dirty, Cycle now);
  /// Returns (latency, data) for reading `line`'s current memory-system
  /// copy; installs into L2 on a memory fetch.
  std::pair<Cycle, LineData> read_line_data(Addr line, Cycle now);

  void handle_msg(CohMsgPtr msg, Cycle now);
  /// True when a tagged request is a watchdog re-issue whose original is
  /// still alive here (active txn, deferred copy, or already granted).
  bool is_duplicate_request(const CohMsg& m) const;
  void start_request(CohMsgPtr msg, Cycle now);
  void finish_read_phase(Addr line, Txn& txn, Cycle now);
  void after_inv_acks(Addr line, Txn& txn, Cycle now);
  void complete_txn(Addr line, Cycle now);
  void send(CoreId dst, CohType type, Addr line, CoreId requester,
            bool exclusive = false, const LineData* data = nullptr);

  CoreId tile_;
  std::uint32_t num_cores_;
  L2Config cfg_;
  Cycle memory_latency_;
  Transport& transport_;
  BackingStore& memory_;
  const sim::Engine& engine_;
  std::uint32_t num_sets_;
  std::vector<std::vector<L2Entry>> l2_sets_;
  std::unordered_map<Addr, DirEntry> dir_;
  std::unordered_map<Addr, Txn> txns_;
  std::unordered_map<Addr, std::deque<CohMsgPtr>> deferred_;
  std::deque<Inbox> inbox_;
  /// Data reads in flight: line -> data to hand to the txn at wake time.
  std::unordered_map<Addr, LineData> read_buf_;
  /// Last completed tagged request id per requester (e2e retry dedup; a
  /// core's single MSHR means one outstanding id, so one slot suffices).
  std::vector<std::uint64_t> last_done_;
  DirStats stats_;
};

}  // namespace glocks::mem
