// Private per-core L1 data cache.
//
// Blocking design: the in-order core has at most one outstanding memory
// operation, so the L1 has a single MSHR. Lines are in M/E/S (absence = I).
// Evicted M/E lines sit in a writeback buffer until the home acknowledges
// the PutM, and forwarded requests that race with the eviction are served
// from that buffer.
//
// Atomic read-modify-write operations (test&set, swap, fetch&add, CAS) are
// performed by first obtaining the line in M, then applying the update in
// the same cycle the exclusive grant lands — the blocking directory
// guarantees no intervening remote access.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/protocol.hpp"
#include "sim/engine.hpp"

namespace glocks::mem {

/// Sends coherence messages between tiles (mesh or same-tile bypass),
/// and owns the pool those messages are allocated from.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(CoreId src, CoreId dst, CohMsgPtr msg) = 0;
  /// A fresh value-initialised message node from the transport's pool.
  virtual CohMsgPtr make_msg() = 0;
  /// A pooled copy of `init` (the L1 snapshots forwards that race with
  /// an in-flight fill).
  virtual CohMsgPtr make_msg(const CohMsg& init) = 0;
};

/// Kinds of atomic read-modify-write the core can issue.
enum class AmoKind : std::uint8_t {
  kTestAndSet,   ///< old = word; word = 1;      returns old
  kSwap,         ///< old = word; word = operand; returns old
  kFetchAdd,     ///< old = word; word += operand; returns old
  kCompareSwap,  ///< old = word; if (old == expected) word = operand; returns old
};

struct MemOp {
  enum class Type : std::uint8_t { kLoad, kStore, kAmo };
  Type type = Type::kLoad;
  Addr addr = 0;       ///< word-aligned byte address
  Word value = 0;      ///< store value / AMO operand
  Word expected = 0;   ///< CAS comparand
  AmoKind amo = AmoKind::kTestAndSet;
};

/// End-to-end watchdog counters (mesh fault-domain runs only; both stay
/// zero in faults-off runs and are reported through the mesh fault block).
struct E2eStats {
  std::uint64_t timeouts = 0;  ///< armed deadlines that fired
  std::uint64_t retries = 0;   ///< requests re-issued after a timeout
};

struct L1Stats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t amos = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t upgrades = 0;   ///< misses resolved by Upgrade
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations_received = 0;
  std::uint64_t forwards_served = 0;
  std::uint64_t accesses() const { return loads + stores + amos; }
};

class L1Cache final : public sim::Component {
 public:
  using Callback = std::function<void(Word)>;

  L1Cache(CoreId core, const L1Config& cfg, const AddressMap& amap,
          Transport& transport, const sim::Engine& engine);

  /// Starts a memory operation. Exactly one may be in flight; `done` fires
  /// (with the loaded / pre-AMO value, 0 for stores) when it retires.
  void issue(const MemOp& op, Callback done);

  bool busy() const { return pending_.has_value(); }

  /// No pending op, no unprocessed messages, no writeback awaiting ack.
  bool quiet() const {
    return !pending_.has_value() && inbox_.empty() && wb_buffer_.empty();
  }

  /// Incoming coherence message (from the transport).
  void deliver(CohMsgPtr msg, Cycle ready);

  /// Builds a message on the transport's pool; used by the lock awaiters,
  /// which have no transport handle of their own.
  CohMsgPtr make_msg() { return transport_.make_msg(); }

  /// Sends a synchronization message (SB lock traffic) from this core's
  /// tile; used by the SB lock awaiters, which have no transport handle.
  void send_sync(CoreId dst, CohMsgPtr msg) {
    msg->sender = core_;
    transport_.send(core_, dst, std::move(msg));
  }

  void tick(Cycle now) override;

  const L1Stats& stats() const { return stats_; }

  /// Arms the end-to-end request watchdog (mesh fault-domain runs): a
  /// remote-home request unanswered after `timeout` cycles is re-issued
  /// with the same request id — the home admits exactly one copy per
  /// (requester, id), so the retry and the original cannot both take
  /// effect — and after `max_retries` re-issues the op fails with a
  /// structured SimError naming the requester, line, home, and (via
  /// `context`, the mesh's dead-link report) the likely culprit.
  void set_e2e_watchdog(Cycle timeout, std::uint32_t max_retries,
                        std::function<std::string()> context);
  const E2eStats& e2e_stats() const { return e2e_; }

  /// Test hook: current MESI state of a line ('M','E','S','I').
  char probe_state(Addr line) const;

  /// One-line MSHR description for hang reports ("" when idle): the
  /// pending op and, when the e2e watchdog is armed, its retry state.
  std::string mshr_dump() const;

  /// Returns the line's data iff this L1 owns it (M/E), else nullptr.
  /// Used by coherent post-run verification, not by the timing model.
  const LineData* probe_owned_data(Addr line) const;

  /// Checkpoint: every line, the single MSHR (timing/protocol fields —
  /// the retire callback is host-side state, re-established by replay;
  /// see docs/checkpoint_format.md), writeback buffer, inbox, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class LineState : std::uint8_t { kS, kE, kM };

  struct Entry {
    bool valid = false;
    Addr line = 0;
    LineState state = LineState::kS;
    LineData data{};
    Cycle lru = 0;
  };

  struct Pending {
    MemOp op;
    Callback done;
    Cycle lookup_ready = 0;   ///< when the tag lookup completes
    bool request_sent = false;
    bool sent_upgrade = false;
    bool upgrade_invalidated = false;
    /// An Inv overtook our shared-data grant (virtual-channel reorder):
    /// consume the fill for this op, then drop the line immediately.
    bool fill_invalidate = false;
    /// A forward overtook our exclusive-data grant: serve it right after
    /// the fill completes. At most one (the home blocks per line).
    CohMsgPtr pending_fwd;
    /// End-to-end watchdog state (mesh fault-domain runs): the unique id
    /// stamped on the request, the deadline armed when it went to a
    /// remote home (kNoCycle = unarmed), and re-issues so far.
    std::uint64_t req_id = 0;
    Cycle e2e_deadline = kNoCycle;
    std::uint32_t e2e_retries = 0;
  };

  struct WbEntry {
    Addr line;
    LineData data;
  };

  struct Inbox {
    Cycle ready;
    CohMsgPtr msg;
  };

  Entry* find(Addr line);
  const Entry* find(Addr line) const;
  Entry& victimize(Addr incoming_line, Cycle now);
  void install(Addr line, const LineData& data, LineState st, Cycle now);
  void complete_with_line(Entry& e, Cycle now);
  void send_to_home(Addr line, CohType type, const LineData* data = nullptr,
                    CoreId requester = kNoCore, std::uint64_t req_id = 0);
  void handle_msg(CohMsg& msg, Cycle now);
  /// Arms (or re-arms) the pending request's end-to-end deadline; no-op
  /// when the watchdog is off or the home is this tile (same-tile bypass
  /// traffic never crosses the mesh).
  void arm_e2e_deadline(Cycle now);
  /// The deadline fired: re-issue the request or, with the retry budget
  /// exhausted, throw the structured SimError.
  void fire_e2e_watchdog(Cycle now);
  Word apply_amo(LineData& data, std::uint32_t word_idx, const MemOp& op);

  CoreId core_;
  L1Config cfg_;
  const AddressMap& amap_;
  Transport& transport_;
  const sim::Engine& engine_;
  std::uint32_t num_sets_;
  std::vector<std::vector<Entry>> sets_;
  std::optional<Pending> pending_;
  std::deque<WbEntry> wb_buffer_;
  std::deque<Inbox> inbox_;
  L1Stats stats_;
  /// End-to-end watchdog configuration (timeout 0 = disabled) and state.
  Cycle e2e_timeout_ = 0;
  std::uint32_t e2e_max_retries_ = 0;
  std::function<std::string()> e2e_context_;
  std::uint64_t op_seq_ = 0;  ///< request-id source (monotonic per core)
  E2eStats e2e_;
};

}  // namespace glocks::mem
