#include "ckpt/manifest.hpp"

#include <cerrno>
#include <cstring>

namespace glocks::ckpt {

namespace {

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

SweepManifest::SweepManifest(const std::string& path,
                             const std::vector<std::uint8_t>& spec_signature) {
  if (file_exists(path)) {
    ArchiveReader r =
        ArchiveReader::from_file(path, /*tolerate_truncated_tail=*/true);
    if (!r.next_section() || r.section_tag() != tags::kSweepSpec) {
      throw CkptError(CkptError::Code::kBadSection,
                      "sweep manifest '" + path +
                          "' is missing the spec section");
    }
    std::vector<std::uint8_t> stored(r.section_remaining());
    r.bytes(stored.data(), stored.size());
    if (stored != spec_signature) {
      throw CkptError(CkptError::Code::kSpecMismatch,
                      "sweep manifest '" + path +
                          "' was written for a different sweep spec; "
                          "refusing to resume into the wrong grid");
    }
    while (r.next_section()) {
      if (r.section_tag() != tags::kSweepRow) {
        throw CkptError(CkptError::Code::kBadSection,
                        "sweep manifest '" + path +
                            "' contains an unexpected section");
      }
      const std::uint64_t index = r.u64();
      completed_[index] = r.str();
    }
  }
  // (Re)write the file canonically — spec plus every complete row — so a
  // crash-truncated tail never sits in front of fresh appends; then hold
  // it open for appending.
  ArchiveWriter w;
  w.begin_section(tags::kSweepSpec);
  w.bytes(spec_signature.data(), spec_signature.size());
  w.end_section();
  for (const auto& [index, row] : completed_) {
    w.begin_section(tags::kSweepRow);
    w.u64(index);
    w.str(row);
    w.end_section();
  }
  write_archive_file(path, w.buffer());
  f_ = std::fopen(path.c_str(), "ab");
  if (f_ == nullptr) {
    throw CkptError(CkptError::Code::kIo,
                    "cannot open sweep manifest '" + path +
                        "' for append: " + std::strerror(errno));
  }
}

SweepManifest::~SweepManifest() {
  if (f_ != nullptr) std::fclose(f_);
}

void SweepManifest::record(std::uint64_t index, const std::string& row) {
  std::vector<std::uint8_t> payload;
  payload.reserve(16 + row.size());
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<std::uint8_t>(index >> (8 * i)));
  }
  const std::uint64_t len = row.size();
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  payload.insert(payload.end(), row.begin(), row.end());
  const std::vector<std::uint8_t> framed =
      encode_section(tags::kSweepRow, payload);

  const std::lock_guard<std::mutex> lock(mu_);
  if (std::fwrite(framed.data(), 1, framed.size(), f_) != framed.size() ||
      std::fflush(f_) != 0) {
    throw CkptError(CkptError::Code::kIo,
                    "failed to append a row to the sweep manifest");
  }
  completed_[index] = row;
}

}  // namespace glocks::ckpt
