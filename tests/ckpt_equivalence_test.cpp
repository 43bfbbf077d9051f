// Resume-equivalence: the checkpoint/restore contract, end to end.
//
// For every workload in the registry: run uninterrupted (R0); run again
// writing one checkpoint at a pseudo-random mid-run cycle (the pause
// must not perturb the run — that run's result must already equal R0);
// restore from the file (replay + byte verification + continue) and
// demand a bit-identical RunResult, twice (a checkpoint file is not
// consumed by restoring from it). One workload repeats the whole
// exercise under an active fault-injection plan, where the guarded
// G-line ARQ machinery is live state; another under the mesh fault
// domain. Two checkpoints written in one run must both restore, and two
// independent runs paused at the same cycle must write the same bytes.
// Finally: corrupted, version-skewed (newer, or the pre-v6 layout), and
// mislabeled checkpoint files must fail with the matching structured
// CkptError — never a crash, never a silently wrong run.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hpp"
#include "result_diff.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

ckpt::RunSpec base_spec(const std::string& workload) {
  ckpt::RunSpec spec;
  spec.workload = workload;
  spec.scale = 0.25;
  spec.seed = 1;
  spec.cmp.num_cores = 8;
  spec.policy.highly_contended = locks::LockKind::kGlock;
  return spec;
}

harness::RunResult run_plain(const ckpt::RunSpec& spec) {
  auto wl = workloads::make_workload(spec.workload, spec.scale);
  harness::RunConfig cfg;
  cfg.cmp = spec.cmp;
  cfg.policy = spec.policy;
  cfg.seed = spec.seed;
  cfg.energy = spec.energy;
  return harness::run_workload(*wl, cfg);
}

/// Deterministic per-workload checkpoint cycle: an FNV-1a hash of the
/// name picks a point in the middle 60% of the uninterrupted run, so
/// every workload checkpoints somewhere different and none lands on the
/// trivial cycle-0 / last-cycle edges.
Cycle pick_checkpoint_cycle(const std::string& name, Cycle run_cycles) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  const Cycle lo = run_cycles / 5;
  const Cycle span = (run_cycles * 3) / 5;
  return lo + (span == 0 ? 0 : h % span);
}

void check_resume_equivalence(const ckpt::RunSpec& spec,
                              const std::string& dir) {
  SCOPED_TRACE(spec.workload);
  const harness::RunResult r0 = run_plain(spec);
  ASSERT_GT(r0.cycles, 10u) << "run too short to checkpoint mid-way";

  const Cycle at = pick_checkpoint_cycle(spec.workload, r0.cycles);
  std::vector<std::string> written;
  const harness::RunResult paused =
      ckpt::run_with_checkpoints(spec, {at}, dir, &written);
  ASSERT_EQ(written.size(), 1u) << "checkpoint at cycle " << at
                                << " of " << r0.cycles << " not written";
  // Pausing to checkpoint must not perturb the run.
  EXPECT_EQ(test::diff_results(r0, paused), "");

  // Restore (replay + byte-verify + continue) twice from the same file.
  const harness::RunResult r1 = ckpt::restore_and_run(written[0]);
  EXPECT_EQ(test::diff_results(r0, r1), "");
  const harness::RunResult r2 = ckpt::restore_and_run(written[0]);
  EXPECT_EQ(test::diff_results(r0, r2), "");
}

TEST(CkptEquivalence, EveryRegistryWorkload) {
  const std::string dir = ::testing::TempDir();
  for (const auto& entry : workloads::registry()) {
    check_resume_equivalence(base_spec(entry.name), dir);
  }
}

TEST(CkptEquivalence, FaultedRunRoundTrips) {
  // Active fault plan: dropped/garbled/delayed frames plus a stuck-at
  // schedule, so the checkpoint carries live ARQ retransmission state,
  // watchdog timers, and the injector's ledger mid-flight.
  ckpt::RunSpec spec = base_spec("MCTR");
  spec.cmp.fault.enabled = true;
  spec.cmp.fault.seed = 7;
  spec.cmp.fault.drop_rate = 1e-3;
  spec.cmp.fault.garble_rate = 1e-3;
  spec.cmp.fault.delay_rate = 1e-3;
  spec.cmp.fault.noise_rate = 1e-3;
  spec.cmp.fault.stuck_rate = 1e-4;
  check_resume_equivalence(spec, ::testing::TempDir());
}

TEST(CkptEquivalence, MeshFaultedRunRoundTrips) {
  // Mesh fault domain armed: the checkpoint carries per-link ARQ guard
  // state, pending injector delays, the dead-link set (one link is
  // scripted to die mid-run) with its detour tables, and the L1s'
  // end-to-end watchdog deadlines — all of which must replay to the same
  // bytes and finish bit-identically.
  ckpt::RunSpec spec = base_spec("MCTR");
  spec.cmp.fault.seed = 11;
  spec.cmp.fault.mesh.enabled = true;
  spec.cmp.fault.mesh.drop_rate = 2e-3;
  spec.cmp.fault.mesh.garble_rate = 1e-3;
  spec.cmp.fault.mesh.delay_rate = 2e-3;
  spec.cmp.fault.mesh.kills.push_back(LinkKill{1, 3, 1500});
  check_resume_equivalence(spec, ::testing::TempDir());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Several checkpoints in one run: pausing splits idle clock jumps, and
// the restore verifier replays with a single pause, so nothing
// serialized may depend on how earlier pauses split the run. The pause
// cycles are odd so they rarely coincide with a natural wake cycle.
TEST(CkptEquivalence, EveryCheckpointOfOneRunRestores) {
  const ckpt::RunSpec spec = base_spec(workloads::registry()[0].name);
  const harness::RunResult r0 = run_plain(spec);
  ASSERT_GT(r0.cycles, 400u);
  const Cycle p1 = (r0.cycles / 3) | 1;
  const Cycle p2 = (2 * r0.cycles / 3) | 1;

  std::vector<std::string> written;
  ckpt::run_with_checkpoints(spec, {p1, p2}, ::testing::TempDir(), &written);
  ASSERT_EQ(written.size(), 2u);
  for (const std::string& path : written) {
    const harness::RunResult r = ckpt::restore_and_run(path);
    EXPECT_EQ(test::diff_results(r0, r), "") << path;
    std::remove(path.c_str());
  }
}

// The archive encodes only deterministic state (logical pool counters,
// not host slab accounting), so two independent runs paused at the same
// cycle write byte-identical files.
TEST(CkptEquivalence, ArchivesAreByteStable) {
  ckpt::RunSpec spec = base_spec(workloads::registry()[0].name);
  spec.seed = 9;
  const harness::RunResult r0 = run_plain(spec);
  ASSERT_GT(r0.cycles, 200u);
  const Cycle pause = r0.cycles / 2;

  std::string bytes[2];
  for (std::string& b : bytes) {
    std::vector<std::string> written;
    ckpt::run_with_checkpoints(spec, {pause}, ::testing::TempDir(),
                               &written);
    ASSERT_EQ(written.size(), 1u);
    b = read_file(written[0]);
    std::remove(written[0].c_str());
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
}

// ---------------------------------------------------------------------
// Rejection contract on real checkpoint files.

class CkptRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = base_spec("SCTR");
    const harness::RunResult r0 = run_plain(spec_);
    at_ = pick_checkpoint_cycle(spec_.workload, r0.cycles);
    std::vector<std::string> written;
    ckpt::run_with_checkpoints(spec_, {at_}, ::testing::TempDir(),
                               &written);
    ASSERT_EQ(written.size(), 1u);
    path_ = written[0];
    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }

  std::string write_variant(const std::string& name,
                            const std::vector<char>& bytes) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  ckpt::CkptError::Code restore_error(const std::string& path) {
    try {
      ckpt::restore_and_run(path);
    } catch (const ckpt::CkptError& e) {
      return e.code();
    }
    ADD_FAILURE() << "restore of " << path << " unexpectedly succeeded";
    return ckpt::CkptError::Code::kIo;
  }

  ckpt::RunSpec spec_;
  Cycle at_ = 0;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(CkptRejection, CorruptedPayloadIsBadCrc) {
  std::vector<char> bad = bytes_;
  bad[bad.size() / 2] ^= 0x20;  // deep inside some section's payload
  EXPECT_EQ(restore_error(write_variant("corrupt.ckpt", bad)),
            ckpt::CkptError::Code::kBadCrc);
}

TEST_F(CkptRejection, NewerFormatVersionIsBadVersion) {
  std::vector<char> bad = bytes_;
  const std::uint32_t newer = ckpt::kFormatVersion + 1;
  for (int i = 0; i < 4; ++i) {
    bad[8 + static_cast<std::size_t>(i)] =
        static_cast<char>((newer >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(restore_error(write_variant("newer.ckpt", bad)),
            ckpt::CkptError::Code::kBadVersion);
}

TEST_F(CkptRejection, PreV6ArchiveIsBadVersion) {
  // v5 archives carried execution-strategy fields in the meta section;
  // they are refused up front, before any replay starts.
  std::vector<char> old = bytes_;
  const std::uint32_t v5 = 5;
  for (int i = 0; i < 4; ++i) {
    old[8 + static_cast<std::size_t>(i)] =
        static_cast<char>((v5 >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(restore_error(write_variant("v5.ckpt", old)),
            ckpt::CkptError::Code::kBadVersion);
}

TEST_F(CkptRejection, NotAnArchiveIsBadMagic) {
  // Longer than the archive header, so the magic check (not the
  // truncation check) is what rejects it.
  const std::string noise = "cores,seed,workload,cycles\n8,1,SCTR,99\n";
  EXPECT_EQ(restore_error(write_variant(
                "noise.ckpt",
                std::vector<char>(noise.begin(), noise.end()))),
            ckpt::CkptError::Code::kBadMagic);
}

TEST_F(CkptRejection, TruncatedFileIsTruncated) {
  std::vector<char> bad = bytes_;
  bad.resize(bad.size() / 2);
  EXPECT_EQ(restore_error(write_variant("trunc.ckpt", bad)),
            ckpt::CkptError::Code::kTruncated);
}

TEST_F(CkptRejection, WrongSpecIsStateDivergence) {
  // A checkpoint whose meta names a different workload than the machine
  // state was produced under: the replay runs the meta's spec, and the
  // byte verification must refuse the mismatched machine sections.
  ckpt::RunSpec wrong = spec_;
  wrong.workload = "MCTR";
  auto wl = workloads::make_workload(spec_.workload, spec_.scale);
  harness::RunConfig cfg;
  cfg.cmp = spec_.cmp;
  cfg.policy = spec_.policy;
  cfg.seed = spec_.seed;  // machine really runs seed 1...
  cfg.energy = spec_.energy;
  std::string path;
  harness::RunHooks hooks;
  hooks.pause_at = {at_};
  hooks.on_pause = [&](harness::CmpSystem& sys, Cycle now) {
    path = ::testing::TempDir() + "/wrong_seed.ckpt";
    ckpt::write_checkpoint(path, wrong, now, sys);  // ...meta says seed 2
  };
  harness::run_workload(*wl, cfg, hooks);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(restore_error(path),
            ckpt::CkptError::Code::kStateDivergence);
}

TEST_F(CkptRejection, CheckpointBeyondRunEndIsStateDivergence) {
  // Meta claims a pause cycle the spec's run never reaches: the replay
  // finishes first and restore must report that the file cannot belong
  // to this run, rather than returning an unverified result.
  auto wl = workloads::make_workload(spec_.workload, spec_.scale);
  harness::RunConfig cfg;
  cfg.cmp = spec_.cmp;
  cfg.policy = spec_.policy;
  cfg.seed = spec_.seed;
  cfg.energy = spec_.energy;
  std::string path;
  harness::RunHooks hooks;
  hooks.pause_at = {at_};
  hooks.on_pause = [&](harness::CmpSystem& sys, Cycle) {
    path = ::testing::TempDir() + "/beyond_end.ckpt";
    ckpt::write_checkpoint(path, spec_, /*cycle=*/1'000'000'000, sys);
  };
  harness::run_workload(*wl, cfg, hooks);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(restore_error(path),
            ckpt::CkptError::Code::kStateDivergence);
}

}  // namespace
}  // namespace glocks
