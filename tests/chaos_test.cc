// Chaos-capture regression tests: the corpus of known fault schedules
// replays clean, seeded campaigns uphold the no-silent-loss invariants,
// and — the proof the harness has teeth — deliberately reintroducing the
// rename-without-parent-fsync durability bug is caught immediately.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "core/checkpoint.h"
#include "io/chaos.h"
#include "io/vfs.h"
#include "util/status.h"

#ifndef ATUM_CHAOS_CORPUS_DIR
#error "ATUM_CHAOS_CORPUS_DIR must point at tests/chaos_corpus"
#endif

namespace atum::chaos {
namespace {

/** Campaign shape for the seeded property tests (smaller = faster). */
CampaignSpec
QuickSpec()
{
    CampaignSpec spec;
    spec.max_instructions = 80'000;
    return spec;
}

/** "writes/syncs/reads/renames/unlinks/dirsyncs", as a pin compares. */
std::string
DiskCounts(const util::StatusOr<io::OpCounts>& counts)
{
    if (!counts.ok())
        return counts.status().ToString();
    const io::OpCounts& c = counts.value();
    return std::to_string(c.writes) + "/" + std::to_string(c.syncs) + "/" +
           std::to_string(c.reads) + "/" + std::to_string(c.renames) + "/" +
           std::to_string(c.unlinks) + "/" + std::to_string(c.dirsyncs);
}

std::vector<std::string>
CorpusFiles()
{
    std::vector<std::string> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(ATUM_CHAOS_CORPUS_DIR)) {
        if (entry.path().extension() == ".schedule")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Restores the checkpoint durability knob even on assertion failure. */
struct DirSyncBugGuard {
    DirSyncBugGuard() { core::SetCheckpointDirSyncForTest(false); }
    ~DirSyncBugGuard() { core::SetCheckpointDirSyncForTest(true); }
};

// Every corpus schedule must (a) still aim at live operation indices —
// a capture-shape change that silently retires them would hollow the
// corpus out — and (b) uphold every invariant. Corpus schedules replay
// under the DEFAULT spec; their indices were aimed with --probe.
TEST(ChaosCorpus, ReplaysClean)
{
    const std::vector<std::string> files = CorpusFiles();
    ASSERT_GE(files.size(), 5u) << "corpus missing from "
                                << ATUM_CHAOS_CORPUS_DIR;
    for (const std::string& file : files) {
        SCOPED_TRACE(file);
        util::StatusOr<std::string> text = io::ReadFile(io::RealVfs(), file);
        ASSERT_TRUE(text.ok()) << text.status().ToString();
        util::StatusOr<io::ChaosSchedule> schedule =
            io::ChaosSchedule::Parse(*text);
        ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
        util::StatusOr<SeedResult> result =
            ReplaySchedule(CampaignSpec{}, *schedule);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(result->ok()) << result->Summary();
        EXPECT_GE(result->faults_fired, 1u)
            << "schedule no longer fires any fault; re-aim it with "
               "`atum-chaos --probe`: " << result->Summary();
    }
}

// Behaviour lock on the I/O sequence: the fault-free op counts that
// `atum-chaos --probe`, `--probe --serve` and `--probe --serve --sweeps`
// print. Every seeded schedule aims its fault indices into these counts,
// so a change to the byte path that moves one silently re-aims every
// campaign. In the capture probe, 412 syncs = 3 x 137 checkpoints + the
// final trace sync; the three per checkpoint are the trace SaveState
// sync, the checkpoint's own Sync and the sync inside
// FileByteSink::Close.
TEST(ChaosProbe, OpCountsArePinned)
{
    EXPECT_EQ(DiskCounts(ProbeOpCounts(CampaignSpec{})),
              "3552/412/0/137/134/137");
    EXPECT_EQ(DiskCounts(ProbeOpCounts(ServeCampaignSpec{}, /*seed=*/1)),
              "1448/256/0/96/72/80");
    // The lighter capture shape atum-chaos gives bare --serve --sweeps.
    ServeCampaignSpec sweeps;
    sweeps.sweeps = 2;
    sweeps.jobs = 2;
    sweeps.max_instructions = 2000;
    sweeps.buffer_bytes = 8u << 10;
    EXPECT_EQ(DiskCounts(ProbeOpCounts(sweeps, /*seed=*/1)),
              "131/30/4/25/2/4");
}

// Property: after a power cut at an arbitrary write/sync, recovery (via
// checkpoint resume or bare salvage) yields a prefix-consistent trace
// with balanced accounting. The campaign's invariant battery *is* the
// property; the seeds just vary where the plug gets pulled.
TEST(ChaosCampaign, PowerCutAlwaysLeavesAConsistentPrefix)
{
    util::StatusOr<CampaignResult> result =
        RunCampaign(QuickSpec(), /*first_seed=*/1, /*seeds=*/6);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const SeedResult& failure : result->failures)
        ADD_FAILURE() << failure.Summary();
    EXPECT_EQ(result->power_cuts, 0u);  // spec has no campaigns -> no ops
}

TEST(ChaosCampaign, PowerCutCampaign)
{
    CampaignSpec spec = QuickSpec();
    spec.campaigns = {"powercut", "torn-rename"};
    util::StatusOr<CampaignResult> result =
        RunCampaign(spec, /*first_seed=*/1, /*seeds=*/6);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const SeedResult& failure : result->failures)
        ADD_FAILURE() << failure.Summary();
    EXPECT_GE(result->power_cuts, 1u);
    EXPECT_GE(result->resumes + result->salvages, 1u);
}

// EINTR storms must be invisible: absorbed by the retry wrappers with
// zero records lost and no degradation.
TEST(ChaosCampaign, EintrStormIsInvisible)
{
    CampaignSpec spec = QuickSpec();
    spec.campaigns = {"eintr"};
    uint64_t total_lost = 0;
    util::StatusOr<CampaignResult> result = RunCampaign(
        spec, /*first_seed=*/1, /*seeds=*/4,
        [&](const SeedResult& r) { total_lost += r.lost_records; });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const SeedResult& failure : result->failures)
        ADD_FAILURE() << failure.Summary();
    EXPECT_GE(result->faults_fired, 1u);
    EXPECT_EQ(total_lost, 0u);
}

TEST(ChaosCampaign, EnospcCampaign)
{
    CampaignSpec spec = QuickSpec();
    spec.campaigns = {"enospc"};
    util::StatusOr<CampaignResult> result =
        RunCampaign(spec, /*first_seed=*/1, /*seeds=*/4);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const SeedResult& failure : result->failures)
        ADD_FAILURE() << failure.Summary();
    EXPECT_GE(result->faults_fired, 1u);
}

// The demonstration the subsystem exists for: put the durability bug
// back (checkpoint publish without fsyncing the parent directory) and
// the torn-rename drill catches it as a durable-checkpoint violation.
// The identical schedule passes with the bug fixed.
TEST(ChaosCampaign, CampaignCatchesDirSyncBug)
{
    io::ChaosSchedule schedule;
    schedule.seed = 9001;
    schedule.campaigns = {"torn-rename"};
    schedule.ops.push_back(
        io::ChaosOp{io::ChaosOpKind::kPowerCutRename, /*at=*/1});
    const CampaignSpec spec = QuickSpec();

    // Correct code: the mandatory DirSync fails on the dead filesystem,
    // the checkpoint is never reported written, nothing was promised.
    util::StatusOr<SeedResult> good = ReplaySchedule(spec, schedule);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_TRUE(good->ok()) << good->Summary();
    EXPECT_TRUE(good->power_cut);

    // Buggy code: the rename "succeeded", the checkpoint is counted as
    // written — and after the reboot it does not exist.
    {
        DirSyncBugGuard bug;
        util::StatusOr<SeedResult> bad = ReplaySchedule(spec, schedule);
        ASSERT_TRUE(bad.ok()) << bad.status().ToString();
        ASSERT_FALSE(bad->ok())
            << "the reintroduced dirsync bug went undetected";
        EXPECT_EQ(bad->violations[0].invariant, "durable-checkpoint")
            << bad->Summary();
    }

    // And with the knob restored the same drill is clean again.
    util::StatusOr<SeedResult> again = ReplaySchedule(spec, schedule);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(again->ok()) << again->Summary();
}

// Minimization strips ops whose removal keeps the failure alive: the
// dirsync repro decorated with two irrelevant faults shrinks back to
// the single torn rename.
TEST(ChaosCampaign, MinimizeShrinksToTheCulprit)
{
    io::ChaosSchedule schedule;
    schedule.seed = 9002;
    schedule.campaigns = {"torn-rename"};
    schedule.ops = {
        io::ChaosOp{io::ChaosOpKind::kFailWrite, /*at=*/100, 0,
                    util::StatusCode::kIoError},
        io::ChaosOp{io::ChaosOpKind::kPowerCutRename, /*at=*/1},
        io::ChaosOp{io::ChaosOpKind::kFailSync, /*at=*/5, 0,
                    util::StatusCode::kIoError},
    };
    DirSyncBugGuard bug;
    util::StatusOr<io::ChaosSchedule> minimized =
        Minimize(QuickSpec(), schedule);
    ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
    ASSERT_EQ(minimized->ops.size(), 1u);
    EXPECT_EQ(minimized->ops[0].kind, io::ChaosOpKind::kPowerCutRename);
}

}  // namespace
}  // namespace atum::chaos
