#include "ckpt/archive.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/config.hpp"

namespace glocks::ckpt {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

const char* CkptError::code_name(Code c) {
  switch (c) {
    case Code::kBadMagic: return "bad-magic";
    case Code::kBadVersion: return "bad-version";
    case Code::kBadCrc: return "bad-crc";
    case Code::kTruncated: return "truncated";
    case Code::kBadSection: return "bad-section";
    case Code::kSpecMismatch: return "spec-mismatch";
    case Code::kStateDivergence: return "state-divergence";
    case Code::kIo: return "io";
  }
  return "?";
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

ArchiveWriter::ArchiveWriter() {
  out_.insert(out_.end(), kMagic, kMagic + sizeof(kMagic));
  put_u32(out_, kFormatVersion);
}

void ArchiveWriter::begin_section(std::uint32_t tag) {
  GLOCKS_CHECK(!open_, "archive section opened inside another section");
  open_ = true;
  tag_ = tag;
  payload_.clear();
}

void ArchiveWriter::end_section() {
  GLOCKS_CHECK(open_, "end_section() with no open section");
  put_u32(out_, tag_);
  put_u64(out_, payload_.size());
  out_.insert(out_.end(), payload_.begin(), payload_.end());
  put_u32(out_, crc32(payload_.data(), payload_.size()));
  open_ = false;
}

void ArchiveWriter::u8(std::uint8_t v) {
  GLOCKS_CHECK(open_, "archive write outside a section");
  payload_.push_back(v);
}

void ArchiveWriter::u32(std::uint32_t v) {
  GLOCKS_CHECK(open_, "archive write outside a section");
  put_u32(payload_, v);
}

void ArchiveWriter::u64(std::uint64_t v) {
  GLOCKS_CHECK(open_, "archive write outside a section");
  put_u64(payload_, v);
}

void ArchiveWriter::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ArchiveWriter::str(const std::string& v) {
  u64(v.size());
  bytes(v.data(), v.size());
}

void ArchiveWriter::bytes(const void* data, std::size_t len) {
  GLOCKS_CHECK(open_, "archive write outside a section");
  const auto* p = static_cast<const std::uint8_t*>(data);
  payload_.insert(payload_.end(), p, p + len);
}

const std::vector<std::uint8_t>& ArchiveWriter::buffer() const {
  GLOCKS_CHECK(!open_, "buffer() with a section still open");
  return out_;
}

void write_archive_file(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      throw CkptError(CkptError::Code::kIo,
                      "cannot open checkpoint file for writing: " + tmp);
    }
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f) {
      throw CkptError(CkptError::Code::kIo,
                      "short write to checkpoint file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw CkptError(CkptError::Code::kIo,
                    "cannot rename checkpoint into place: " + path);
  }
}

std::vector<std::uint8_t> encode_section(
    std::uint32_t tag, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  put_u32(out, tag);
  put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, crc32(payload.data(), payload.size()));
  return out;
}

ArchiveReader::ArchiveReader(std::vector<std::uint8_t> data,
                             bool tolerate_truncated_tail)
    : data_(std::move(data)), tolerate_tail_(tolerate_truncated_tail) {
  if (data_.size() < sizeof(kMagic) + 4) {
    throw CkptError(CkptError::Code::kTruncated,
                    "checkpoint file shorter than its header");
  }
  if (std::memcmp(data_.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CkptError(CkptError::Code::kBadMagic,
                    "not a GLocks checkpoint file (bad magic)");
  }
  std::uint32_t v = 0;
  std::memcpy(&v, data_.data() + sizeof(kMagic), 4);
  // Header integers are little-endian on disk; reassemble portably.
  const std::uint8_t* p = data_.data() + sizeof(kMagic);
  v = static_cast<std::uint32_t>(p[0]) |
      (static_cast<std::uint32_t>(p[1]) << 8) |
      (static_cast<std::uint32_t>(p[2]) << 16) |
      (static_cast<std::uint32_t>(p[3]) << 24);
  if (v == 0 || v > kFormatVersion) {
    std::ostringstream oss;
    oss << "checkpoint format version " << v
        << " not supported by this build (max " << kFormatVersion << ")";
    throw CkptError(CkptError::Code::kBadVersion, oss.str());
  }
  if (v < kMinFormatVersion) {
    std::ostringstream oss;
    oss << "checkpoint format version " << v
        << " was produced by an older incompatible build (this build "
           "reads versions "
        << kMinFormatVersion << ".." << kFormatVersion
        << "); re-create the checkpoint";
    throw CkptError(CkptError::Code::kBadVersion, oss.str());
  }
  version_ = v;
  cursor_ = sizeof(kMagic) + 4;
}

ArchiveReader ArchiveReader::from_file(const std::string& path,
                                       bool tolerate_truncated_tail) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw CkptError(CkptError::Code::kIo,
                    "cannot open checkpoint file: " + path);
  }
  std::vector<std::uint8_t> data(
      (std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  return ArchiveReader(std::move(data), tolerate_truncated_tail);
}

bool ArchiveReader::next_section() {
  if (in_section_ && pos_ != payload_end_) {
    std::ostringstream oss;
    oss << "section tag " << tag_ << " has "
        << (payload_end_ - pos_) << " unread payload bytes";
    throw CkptError(CkptError::Code::kBadSection, oss.str());
  }
  in_section_ = false;
  if (cursor_ == data_.size()) return false;
  // Section header: u32 tag + u64 length.
  if (data_.size() - cursor_ < 12) {
    if (tolerate_tail_) return false;
    throw CkptError(CkptError::Code::kTruncated,
                    "archive ends mid-section-header");
  }
  const std::uint8_t* p = data_.data() + cursor_;
  std::uint32_t tag = 0;
  std::uint64_t len = 0;
  for (int i = 0; i < 4; ++i) tag |= std::uint32_t{p[i]} << (8 * i);
  for (int i = 0; i < 8; ++i) len |= std::uint64_t{p[4 + i]} << (8 * i);
  const std::size_t body = cursor_ + 12;
  if (len > data_.size() - body || data_.size() - body - len < 4) {
    if (tolerate_tail_) return false;
    throw CkptError(CkptError::Code::kTruncated,
                    "archive ends mid-section-payload");
  }
  std::uint32_t stored = 0;
  const std::uint8_t* c = data_.data() + body + len;
  for (int i = 0; i < 4; ++i) stored |= std::uint32_t{c[i]} << (8 * i);
  const std::uint32_t actual = crc32(data_.data() + body, len);
  if (stored != actual) {
    std::ostringstream oss;
    oss << "section tag " << tag << " failed CRC check (stored 0x"
        << std::hex << stored << ", computed 0x" << actual << ")";
    throw CkptError(CkptError::Code::kBadCrc, oss.str());
  }
  tag_ = tag;
  pos_ = body;
  payload_end_ = body + len;
  cursor_ = payload_end_ + 4;
  in_section_ = true;
  return true;
}

void ArchiveReader::need(std::size_t n) const {
  GLOCKS_CHECK(in_section_, "archive read outside a section");
  if (payload_end_ - pos_ < n) {
    std::ostringstream oss;
    oss << "section tag " << tag_ << " payload ends mid-field (need " << n
        << " bytes, have " << (payload_end_ - pos_) << ")";
    throw CkptError(CkptError::Code::kTruncated, oss.str());
  }
}

std::uint8_t ArchiveReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t ArchiveReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ArchiveReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
  pos_ += 8;
  return v;
}

bool ArchiveReader::b() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw CkptError(CkptError::Code::kBadSection,
                    "boolean field holds a non-0/1 value");
  }
  return v != 0;
}

double ArchiveReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ArchiveReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

void ArchiveReader::bytes(void* dst, std::size_t len) {
  need(len);
  std::memcpy(dst, data_.data() + pos_, len);
  pos_ += len;
}

void save_fault_config(ArchiveWriter& a, const FaultConfig& f) {
  a.b(f.enabled);
  a.u64(f.seed);
  a.f64(f.drop_rate);
  a.f64(f.garble_rate);
  a.f64(f.delay_rate);
  a.u32(f.max_delay);
  a.f64(f.noise_rate);
  a.f64(f.stuck_rate);
  a.u64(f.stuck_horizon);
  a.u64(f.watchdog_timeout);
  a.u64(f.backoff_cap);
  a.u32(f.max_retries);
  a.b(f.fallback_tatas);
  const MeshFaultConfig& m = f.mesh;
  a.b(m.enabled);
  a.f64(m.drop_rate);
  a.f64(m.garble_rate);
  a.f64(m.delay_rate);
  a.u32(m.max_delay);
  a.f64(m.dead_rate);
  a.u64(m.dead_horizon);
  a.u64(m.retry_timeout);
  a.u64(m.backoff_cap);
  a.u32(m.max_retries);
  a.u64(m.e2e_timeout);
  a.u32(m.e2e_max_retries);
  a.u32(static_cast<std::uint32_t>(m.kills.size()));
  for (const LinkKill& k : m.kills) {
    a.u32(k.tile);
    a.u32(k.dir);
    a.u64(k.at);
  }
}

}  // namespace glocks::ckpt
