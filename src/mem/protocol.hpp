// Coherence protocol message vocabulary (MESI, full-map directory).
//
// Message taxonomy and how it maps onto the paper's Figure 9 traffic
// categories:
//
//   Request   (control)  GetS, GetX, Upgrade — an L1 miss travelling to the
//                        line's home directory.
//   Reply     (data)     Data from the home directory (or memory via the
//                        home) back to the requester.
//   Coherence            everything else the protocol generates:
//     control            Inv, InvAck, FwdGetS, FwdGetX, FwdAck, PutAck,
//                        AckComplete (dataless upgrade grant)
//     data               cache-to-cache Data (owner -> requester), CopyBack
//                        (owner -> home on a downgrade), PutM (writeback).
//
// The directory is *blocking*: one transaction per line at a time; requests
// that hit a busy line wait in a per-line deferred queue at the home.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "ckpt/archive.hpp"
#include "common/pool.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"

namespace glocks::mem {

/// One cache line of simulated data.
using LineData = std::array<Word, kWordsPerLine>;

enum class CohType : std::uint8_t {
  // L1 -> home requests.
  kGetS,     ///< read miss: want a readable copy
  kGetX,     ///< write miss: want an exclusive copy with data
  kUpgrade,  ///< write hit on Shared: want exclusivity, already have data
  kPutM,     ///< writeback of a Modified/Exclusive line (carries data)
  // home -> L1.
  kData,         ///< line data from the home; `exclusive` selects E/M vs S
  kAckComplete,  ///< dataless grant completing an Upgrade
  kInv,          ///< invalidate your Shared copy
  kFwdGetS,      ///< you own this line: send it to `requester`, downgrade
  kFwdGetX,      ///< you own this line: send it to `requester`, invalidate
  kPutAck,       ///< your PutM was consumed (or recognized as stale)
  // L1 -> home completions.
  kInvAck,    ///< Shared copy invalidated
  kFwdAck,    ///< FwdGetX honoured; ownership passed to `requester`
  kCopyBack,  ///< FwdGetS honoured; fresh data for the home (carries data)
  // L1 -> L1.
  kC2CData,  ///< cache-to-cache line transfer to a requester
  // Synchronization-operation Buffer (SB hardware locks; `line` carries
  // the lock id, not a line number).
  kSbAcquire,  ///< core -> home SB: queue me for the lock
  kSbGrant,    ///< home SB -> core: you hold the lock
  kSbRelease,  ///< core -> home SB: pass it on
  // QOLB hardware locks (`line` carries the lock id). Grants travel
  // cache-to-cache on release; the home only threads the queue.
  kQolbEnq,      ///< core -> home: enqueue me
  kQolbGrant,    ///< home (cold) or predecessor (direct) -> core
  kQolbSetSucc,  ///< home -> previous tail: `requester` follows you
  kQolbRelHome,  ///< releaser -> home: no successor known
  kQolbRelAck,   ///< home -> releaser: lock freed
  kQolbRelRetry, ///< home -> releaser: a successor raced in; hand over
};

constexpr std::string_view to_string(CohType t) {
  switch (t) {
    case CohType::kGetS: return "GetS";
    case CohType::kGetX: return "GetX";
    case CohType::kUpgrade: return "Upgrade";
    case CohType::kPutM: return "PutM";
    case CohType::kData: return "Data";
    case CohType::kAckComplete: return "AckComplete";
    case CohType::kInv: return "Inv";
    case CohType::kFwdGetS: return "FwdGetS";
    case CohType::kFwdGetX: return "FwdGetX";
    case CohType::kPutAck: return "PutAck";
    case CohType::kInvAck: return "InvAck";
    case CohType::kFwdAck: return "FwdAck";
    case CohType::kCopyBack: return "CopyBack";
    case CohType::kC2CData: return "C2CData";
    case CohType::kSbAcquire: return "SbAcquire";
    case CohType::kSbGrant: return "SbGrant";
    case CohType::kSbRelease: return "SbRelease";
    case CohType::kQolbEnq: return "QolbEnq";
    case CohType::kQolbGrant: return "QolbGrant";
    case CohType::kQolbSetSucc: return "QolbSetSucc";
    case CohType::kQolbRelHome: return "QolbRelHome";
    case CohType::kQolbRelAck: return "QolbRelAck";
    case CohType::kQolbRelRetry: return "QolbRelRetry";
  }
  return "?";
}

/// True when this message type carries a full line of data.
constexpr bool carries_data(CohType t) {
  return t == CohType::kData || t == CohType::kPutM ||
         t == CohType::kCopyBack || t == CohType::kC2CData;
}

/// Figure 9 category of each message type.
constexpr noc::MsgClass msg_class(CohType t) {
  switch (t) {
    case CohType::kGetS:
    case CohType::kGetX:
    case CohType::kUpgrade:
    case CohType::kSbAcquire:
    case CohType::kQolbEnq:
      return noc::MsgClass::kRequest;
    case CohType::kData:
      return noc::MsgClass::kReply;
    default:
      return noc::MsgClass::kCoherence;
  }
}

/// The payload carried through the mesh for every coherence message.
/// Plain trivially-destructible data (no virtual base): nodes live in a
/// common::Pool and travel through Packets as a tagged raw pointer
/// (noc::PayloadKind::kCohMsg).
struct CohMsg final {
  CohType type = CohType::kGetS;
  Addr line = 0;          ///< line number (byte address >> 6)
  CoreId sender = 0;      ///< tile that created this message
  CoreId requester = 0;   ///< original requester (for forwards / C2C)
  bool exclusive = false; ///< Data grant flavour: true = E/M, false = S
  /// Per-requester operation number stamped on GetS/GetX/Upgrade. Lets
  /// the home directory drop the stale duplicate when an end-to-end
  /// watchdog retry races its own original (mesh fault domain); 0 for
  /// every other message type and in faults-off runs.
  std::uint64_t req_id = 0;
  LineData data{};        ///< valid iff carries_data(type)
};

/// Owning handle for pooled coherence messages. Everything that used to
/// pass `std::unique_ptr<CohMsg>` now passes this; the deleter returns
/// the node to the pool it came from instead of the heap.
using CohMsgPool = common::Pool<CohMsg>;
using CohMsgPtr = common::PoolPtr<CohMsg>;

/// Portable (pointer-free) checkpoint encoding of one coherence message.
inline void save_coh_msg(ckpt::ArchiveWriter& a, const CohMsg& m) {
  a.u8(static_cast<std::uint8_t>(m.type));
  a.u64(m.line);
  a.u32(m.sender);
  a.u32(m.requester);
  a.b(m.exclusive);
  a.u64(m.req_id);
  for (Word w : m.data) a.u64(w);
}

}  // namespace glocks::mem
