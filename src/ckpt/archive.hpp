// Checkpoint archive: the single binary TLV container every piece of
// simulator state serializes into (see docs/checkpoint_format.md).
//
// Layout:   [8-byte magic "GLKCKPT\n"] [u32 version]
//           then zero or more sections, each
//           [u32 tag] [u64 payload length] [payload] [u32 CRC-32 of payload]
//
// All integers are little-endian and fixed-width; there is no varint or
// padding, so identical state always produces identical bytes — the
// property the restore path's replay verification and the sweep-resume
// CSV guarantee both rest on. Forward-incompatible files (unknown magic
// or a version newer than this build understands) are rejected with a
// structured CkptError, never a crash or a silently wrong run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace glocks {
struct FaultConfig;
}  // namespace glocks

namespace glocks::ckpt {

/// Current archive format version. Bump on any incompatible layout
/// change; readers reject anything newer than this.
inline constexpr std::uint32_t kFormatVersion = 7;

/// Oldest version this build still reads. v7 saves the root of a
/// hierarchical GLock tree like the flat network's primary manager
/// (flags, token-home, granted, position; no parent wires, no constant
/// token/request flags), so the GLIN section of hierarchical runs
/// changed; v6 had already dropped the execution-strategy fields of
/// v4/v5. Older archives would parse into garbage, so they get a clean
/// up-front rejection instead of a confusing mid-parse
/// kTruncated/kBadSection failure.
inline constexpr std::uint32_t kMinFormatVersion = 7;

/// 8-byte file magic.
inline constexpr char kMagic[8] = {'G', 'L', 'K', 'C', 'K', 'P', 'T', '\n'};

/// Section tags. FourCC-style so a hexdump of an archive is navigable.
namespace tags {
inline constexpr std::uint32_t kMeta = 0x4154454Du;       // 'META'
inline constexpr std::uint32_t kEngine = 0x4E474E45u;     // 'ENGN'
inline constexpr std::uint32_t kCores = 0x45524F43u;      // 'CORE'
inline constexpr std::uint32_t kGlines = 0x4E494C47u;     // 'GLIN'
inline constexpr std::uint32_t kCensus = 0x534E4543u;     // 'CENS'
inline constexpr std::uint32_t kHeap = 0x50414548u;       // 'HEAP'
inline constexpr std::uint32_t kMesh = 0x4853454Du;       // 'MESH'
inline constexpr std::uint32_t kHierarchy = 0x52454948u;  // 'HIER'
inline constexpr std::uint32_t kSweepSpec = 0x43505753u;  // 'SWPC'
inline constexpr std::uint32_t kSweepRow = 0x52505753u;   // 'SWPR'
}  // namespace tags

/// Structured checkpoint failure. Everything that can go wrong with an
/// archive — malformed file, version skew, corruption, or a restore
/// whose replayed state diverges from the saved state — lands here with
/// a machine-checkable code, so callers (and tests) can distinguish "bad
/// file" from simulator bugs.
class CkptError : public SimError {
 public:
  enum class Code {
    kBadMagic,         ///< file does not start with the GLKCKPT magic
    kBadVersion,       ///< format version newer than this build supports
    kBadCrc,           ///< a section payload failed its CRC-32
    kTruncated,        ///< file/section ended mid-field
    kBadSection,       ///< section structure invalid (overrun, leftovers)
    kSpecMismatch,     ///< archive was produced for a different run/sweep
    kStateDivergence,  ///< replayed machine state != archived state
    kIo,               ///< filesystem error reading/writing the archive
  };

  CkptError(Code code, const std::string& what)
      : SimError(what), code_(code) {}
  Code code() const { return code_; }

  static const char* code_name(Code c);

 private:
  Code code_;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib crc32) over a byte range.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

/// Builds an archive in memory: header first, then sections opened with
/// begin_section() and framed (length + CRC) by end_section(). The
/// primitive writers may only be called inside an open section.
class ArchiveWriter {
 public:
  ArchiveWriter();

  void begin_section(std::uint32_t tag);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v);
  void str(const std::string& v);
  void bytes(const void* data, std::size_t len);

  /// The complete archive (header + all closed sections). Must not be
  /// called with a section open.
  const std::vector<std::uint8_t>& buffer() const;

 private:
  std::vector<std::uint8_t> out_;      ///< header + closed sections
  std::vector<std::uint8_t> payload_;  ///< the open section's payload
  std::uint32_t tag_ = 0;
  bool open_ = false;
};

/// Writes every FaultConfig field, the mesh fault block and its kill list
/// in one fixed order. The checkpoint META section and the sweep
/// manifest's spec signature both embed it, so the two encodings cannot
/// drift apart.
void save_fault_config(ArchiveWriter& a, const FaultConfig& f);

/// Writes a complete archive image to `path` atomically (temp file +
/// rename), so a crash mid-write never leaves a half-written checkpoint
/// behind.
void write_archive_file(const std::string& path,
                        const std::vector<std::uint8_t>& bytes);

/// Encodes one standalone TLV section (tag + length + payload + CRC) —
/// the unit the sweep manifest appends per completed grid point.
std::vector<std::uint8_t> encode_section(std::uint32_t tag,
                                         const std::vector<std::uint8_t>&
                                             payload);

/// Walks an archive: header is validated on construction, sections are
/// visited with next_section(), primitives are read from the current
/// section's payload. Every structural problem throws CkptError.
class ArchiveReader {
 public:
  /// `tolerate_truncated_tail` accepts a final partially-written section
  /// (the sweep-manifest crash case): iteration simply ends before it.
  /// A CRC failure is never tolerated.
  explicit ArchiveReader(std::vector<std::uint8_t> data,
                         bool tolerate_truncated_tail = false);

  static ArchiveReader from_file(const std::string& path,
                                 bool tolerate_truncated_tail = false);

  std::uint32_t version() const { return version_; }

  /// Advances to the next section (validating its CRC); false at
  /// end-of-archive. Any unread payload in the previous section is a
  /// kBadSection error — readers must consume exactly what was written.
  bool next_section();
  std::uint32_t section_tag() const { return tag_; }
  std::size_t section_remaining() const { return payload_end_ - pos_; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b();
  double f64();
  std::string str();
  void bytes(void* dst, std::size_t len);

  const std::vector<std::uint8_t>& data() const { return data_; }

 private:
  void need(std::size_t n) const;

  std::vector<std::uint8_t> data_;
  bool tolerate_tail_;
  std::uint32_t version_ = 0;
  std::size_t cursor_ = 0;       ///< start of the next unread section
  std::uint32_t tag_ = 0;        ///< current section's tag
  std::size_t pos_ = 0;          ///< read position in current payload
  std::size_t payload_end_ = 0;  ///< end of current payload
  bool in_section_ = false;
};

}  // namespace glocks::ckpt
