// Checkpoint/resume and supervised-capture tests: state serialization
// round-trips, the determinism property (restore + N steps == never
// stopped), crash-equivalent trace continuation at the byte level, a
// corruption matrix over the ATCK frame, and the supervisor's watchdog /
// deadline / signal stop paths.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/atum_tracer.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "io/chaos.h"
#include "io/mem_vfs.h"
#include "kernel/boot.h"
#include "trace/container.h"
#include "trace/sink.h"
#include "util/crc32.h"
#include "util/serialize.h"
#include "workloads/workloads.h"

namespace atum {
namespace {

using core::AtumConfig;
using core::AtumTracer;
using core::Checkpoint;
using core::CheckpointMeta;
using core::CheckpointRotator;
using core::StopCause;
using core::SupervisorOptions;
using cpu::Machine;

Machine::Config
MixConfig()
{
    Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 2000;
    return config;
}

AtumConfig
SmallBufferConfig()
{
    AtumConfig config;
    config.buffer_bytes = 16u << 10;  // fills often → frequent checkpoints
    return config;
}

std::string
TempPath(const std::string& name)
{
    const char* dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/" + name;
}

constexpr char kCkpt[] = "capture.atck";

/** The bytes WriteCheckpoint produces for this state. */
std::vector<uint8_t>
CheckpointBytes(const CheckpointMeta& meta, const Machine& machine,
                const AtumTracer& tracer,
                const trace::Atf2ResumeState* sink_state)
{
    io::MemVfs vfs;
    util::StatusOr<std::unique_ptr<io::WritableFile>> out =
        vfs.Create(kCkpt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(
        core::WriteCheckpoint(**out, meta, machine, tracer, sink_state).ok());
    return vfs.ReadAll(kCkpt).value();
}

/** Reads `bytes` back as a checkpoint file on a fresh MemVfs. */
util::StatusOr<Checkpoint>
ReadCheckpoint(const std::vector<uint8_t>& bytes)
{
    io::MemVfs vfs(io::MemVfs::Snapshot{{{kCkpt, bytes}}});
    return Checkpoint::Load(kCkpt, vfs);
}

// ---------------------------------------------------------------------------
// StateWriter / StateReader.

TEST(Serialize, RoundTripsScalarsAndBlobs)
{
    util::StateWriter w;
    w.U8(0xAB);
    w.U16(0xBEEF);
    w.U32(0xDEADBEEF);
    w.U64(0x0123456789ABCDEFull);
    w.Bool(true);
    w.Str("atum");
    const uint8_t raw[3] = {1, 2, 3};
    w.Bytes(raw, sizeof raw);

    util::StateReader r(w.bytes());
    EXPECT_EQ(r.U8(), 0xAB);
    EXPECT_EQ(r.U16(), 0xBEEF);
    EXPECT_EQ(r.U32(), 0xDEADBEEFu);
    EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(r.Bool());
    EXPECT_EQ(r.Str(), "atum");
    uint8_t got[3] = {};
    r.Bytes(got, sizeof got);
    EXPECT_EQ(got[2], 3);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, OverrunLatchesAndZeroFills)
{
    util::StateWriter w;
    w.U16(7);
    util::StateReader r(w.bytes());
    EXPECT_EQ(r.U32(), 0u);  // needs 4 bytes, only 2 exist
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
    EXPECT_EQ(r.U64(), 0u);  // latched: everything after reads zero
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// The determinism property: checkpoint mid-run, restore into a fresh
// machine, and both must step identically — same architectural state,
// same record stream — for thousands of instructions.

TEST(CheckpointDeterminism, RestoredMachineReplaysIdentically)
{
    const Machine::Config mconfig = MixConfig();
    const AtumConfig tconfig = SmallBufferConfig();

    Machine machine(mconfig);
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, tconfig);
    kernel::BootSystem(machine, workloads::StandardMix(1));
    tracer.Attach();

    // Run into the middle of the workload (mid-boot wash is over, all
    // processes alive) and checkpoint at an instruction boundary.
    machine.Run(150'000);
    ASSERT_FALSE(machine.halted());

    CheckpointMeta meta;
    meta.machine_config = mconfig;
    meta.tracer_config = tconfig;
    util::StatusOr<Checkpoint> ckpt =
        ReadCheckpoint(CheckpointBytes(meta, machine, tracer, nullptr));
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();

    Machine restored(ckpt->meta().machine_config);
    trace::VectorSink restored_sink;
    AtumTracer restored_tracer(restored, restored_sink,
                               ckpt->meta().tracer_config);
    ASSERT_TRUE(ckpt->RestoreMachine(restored).ok());
    ASSERT_TRUE(ckpt->RestoreTracer(restored_tracer).ok());
    restored_tracer.Attach();

    const size_t records_at_ckpt = sink.records().size();

    // March both machines forward and compare their *entire* serialized
    // state at intervals — registers, memory, TB, prefetch buffer, timer.
    for (int leg = 0; leg < 5; ++leg) {
        for (int step = 0; step < 2000; ++step) {
            machine.StepOne();
            restored.StepOne();
        }
        util::StateWriter a, b;
        ASSERT_TRUE(machine.Save(a).ok());
        ASSERT_TRUE(restored.Save(b).ok());
        ASSERT_EQ(a.bytes(), b.bytes()) << "state diverged by leg " << leg;
    }

    // The record streams must agree too: what the original captured after
    // the checkpoint equals what the restored capture produced from zero.
    tracer.Flush();
    restored_tracer.Flush();
    const auto& full = sink.records();
    const auto& replay = restored_sink.records();
    ASSERT_EQ(full.size() - records_at_ckpt, replay.size());
    for (size_t i = 0; i < replay.size(); ++i) {
        ASSERT_TRUE(full[records_at_ckpt + i] == replay[i])
            << "record " << i << " diverged";
    }
}

// ---------------------------------------------------------------------------
// Crash equivalence at the byte level: an interrupted-then-resumed
// capture's trace file is byte-identical to one that never stopped.

TEST(CheckpointResume, ResumedTraceIsByteIdentical)
{
    const Machine::Config mconfig = MixConfig();
    const AtumConfig tconfig = SmallBufferConfig();
    const std::string full_path = TempPath("ckpt_full.atum");
    const std::string torn_path = TempPath("ckpt_torn.atum");
    const std::string ckpt_base = TempPath("ckpt_series");

    // Reference: an uninterrupted capture, sealed normally.
    {
        Machine machine(mconfig);
        auto sink = trace::FileSink::Open(full_path);
        ASSERT_TRUE(sink.ok());
        AtumTracer tracer(machine, **sink, tconfig);
        kernel::BootSystem(machine, workloads::StandardMix(1));
        const auto result =
            core::RunSupervised(
                machine, tracer, {.max_instructions = 100'000'000});
        ASSERT_TRUE(result.halted);
        ASSERT_TRUE((*sink)->Close().ok());
    }

    // Leg 1: same capture, supervised, checkpointing every fill; stopped
    // mid-run by the instruction budget.
    uint64_t resume_seq = 0;
    {
        Machine machine(mconfig);
        auto sink = trace::FileSink::Open(torn_path);
        ASSERT_TRUE(sink.ok());
        AtumTracer tracer(machine, **sink, tconfig);
        kernel::BootSystem(machine, workloads::StandardMix(1));

        CheckpointRotator rotator(ckpt_base, 3);
        SupervisorOptions sup;
        sup.max_instructions = 150'000;
        sup.checkpoints = &rotator;
        sup.checkpoint_every_fills = 1;
        sup.file_sink = sink->get();
        sup.meta.machine_config = mconfig;
        sup.meta.tracer_config = tconfig;
        sup.meta.trace_path = torn_path;
        const auto result = core::RunSupervised(machine, tracer, sup);
        EXPECT_EQ(result.stop_cause, StopCause::kInstrLimit);
        ASSERT_TRUE(result.checkpoint_status.ok())
            << result.checkpoint_status.ToString();
        ASSERT_GE(rotator.written(), 2u);
        // Resume from the checkpoint *before* the final one: everything
        // the file gained after it (later chunks, drain, seal footer)
        // plays the role of post-crash garbage that resume must discard.
        resume_seq = rotator.next_sequence() - 2;
        ASSERT_TRUE((*sink)->Close().ok());  // seal = extra bytes on disk
    }

    // Leg 2: resume from that checkpoint and run to natural completion.
    {
        CheckpointRotator paths(ckpt_base, 3);
        util::StatusOr<Checkpoint> ckpt =
            Checkpoint::Load(paths.PathFor(resume_seq));
        ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
        ASSERT_TRUE(ckpt->meta().has_sink_state);

        auto sink = trace::FileSink::OpenResumed(torn_path,
                                                 ckpt->sink_state());
        ASSERT_TRUE(sink.ok()) << sink.status().ToString();

        Machine machine(ckpt->meta().machine_config);
        AtumTracer tracer(machine, **sink, ckpt->meta().tracer_config);
        ASSERT_TRUE(ckpt->RestoreMachine(machine).ok());
        ASSERT_TRUE(ckpt->RestoreTracer(tracer).ok());

        SupervisorOptions sup;
        sup.max_instructions = 100'000'000;
        const auto result = core::RunSupervised(machine, tracer, sup);
        EXPECT_EQ(result.stop_cause, StopCause::kHalted);
        ASSERT_TRUE(result.drain_status.ok())
            << result.drain_status.ToString();
        ASSERT_TRUE((*sink)->Close().ok());
    }

    util::StatusOr<std::string> full =
        io::ReadFile(io::RealVfs(), full_path);
    util::StatusOr<std::string> resumed =
        io::ReadFile(io::RealVfs(), torn_path);
    ASSERT_TRUE(full.ok() && resumed.ok());
    ASSERT_FALSE(full->empty());
    ASSERT_EQ(full->size(), resumed->size());
    EXPECT_TRUE(*full == *resumed)
        << "resumed capture diverged from the uninterrupted one";

    std::remove(full_path.c_str());
    std::remove(torn_path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption matrix: no damaged checkpoint may restore, and none may
// crash the loader.

class CheckpointCorruption : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        kernel::BootSystem(machine_, workloads::StandardMix(1));
        tracer_.Attach();
        machine_.Run(20'000);

        meta_.machine_config = MixConfig();
        meta_.tracer_config = SmallBufferConfig();
        sink_state_.file_bytes = 32;
        bytes_ = CheckpointBytes(meta_, machine_, tracer_, &sink_state_);
    }

    util::Status ReadStatus(const std::vector<uint8_t>& bytes)
    {
        util::StatusOr<Checkpoint> ckpt = ReadCheckpoint(bytes);
        return ckpt.ok() ? util::OkStatus() : ckpt.status();
    }

    Machine machine_{MixConfig()};
    trace::VectorSink sink_;
    AtumTracer tracer_{machine_, sink_, SmallBufferConfig()};
    CheckpointMeta meta_;
    trace::Atf2ResumeState sink_state_;
    std::vector<uint8_t> bytes_;
};

TEST_F(CheckpointCorruption, IntactCheckpointLoads)
{
    EXPECT_TRUE(ReadStatus(bytes_).ok());
}

// Interrupted (EINTR-class) writes and syncs are retried below the
// checkpoint writer: the published file is the same bytes and loads.
TEST_F(CheckpointCorruption, InterruptedWriteAndSyncAreRetried)
{
    util::StatusOr<io::ChaosSchedule> schedule = io::ChaosSchedule::Parse(
        "op fail-write 1 intr\nop fail-sync 1 intr\n");
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
    io::MemVfs mem;
    io::ChaosVfs vfs(mem, *schedule);
    ASSERT_TRUE(core::WriteCheckpointFile(kCkpt, meta_, machine_, tracer_,
                                          &sink_state_, vfs)
                    .ok());
    EXPECT_EQ(vfs.faults_fired(), 2u);
    EXPECT_EQ(mem.ReadAll(kCkpt).value(), bytes_);
    EXPECT_TRUE(Checkpoint::Load(kCkpt, mem).ok());
}

TEST_F(CheckpointCorruption, EveryTruncationIsRejected)
{
    // Cut at frame boundaries and at awkward mid-frame offsets.
    const size_t cuts[] = {0,  8,  31,  32,  40,  55,  56,
                           bytes_.size() / 2, bytes_.size() - 25,
                           bytes_.size() - 1};
    for (const size_t cut : cuts) {
        if (cut >= bytes_.size())
            continue;
        std::vector<uint8_t> torn(bytes_.begin(), bytes_.begin() + cut);
        EXPECT_FALSE(ReadStatus(torn).ok()) << "cut at " << cut;
    }
}

TEST_F(CheckpointCorruption, EveryBitFlipIsRejected)
{
    // A spread of offsets: header, section headers, payloads, footer.
    const size_t stride = bytes_.size() / 37 + 1;
    unsigned tested = 0;
    for (size_t off = 0; off < bytes_.size(); off += stride, ++tested) {
        std::vector<uint8_t> bad = bytes_;
        bad[off] ^= 0x40;
        EXPECT_FALSE(ReadStatus(bad).ok()) << "flip at " << off;
    }
    EXPECT_GE(tested, 30u);
}

TEST_F(CheckpointCorruption, GeometryMismatchIsRejected)
{
    util::StatusOr<Checkpoint> ckpt = ReadCheckpoint(bytes_);
    ASSERT_TRUE(ckpt.ok());

    // A machine with the wrong memory size must refuse the image.
    Machine::Config small = MixConfig();
    small.mem_bytes = 1u << 20;
    Machine wrong(small);
    EXPECT_FALSE(ckpt->RestoreMachine(wrong).ok());

    // A tracer with a different buffer must refuse the cursor.
    Machine right(ckpt->meta().machine_config);
    trace::VectorSink sink;
    AtumConfig tiny = SmallBufferConfig();
    tiny.buffer_bytes = 8u << 10;
    AtumTracer wrong_tracer(right, sink, tiny);
    EXPECT_FALSE(ckpt->RestoreTracer(wrong_tracer).ok());
}

TEST(CheckpointSinkState, OpenChunkBeyondCapacityIsRejected)
{
    // Well-framed checkpoints whose sink state the ATF2 writer could not
    // hold: a bad chunk capacity, or more open-chunk records than it.
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));
    CheckpointMeta meta;
    meta.machine_config = MixConfig();
    meta.tracer_config = SmallBufferConfig();
    for (const uint32_t chunk_records :
         {0u, 2u, trace::kAtf2MaxChunkRecords + 1}) {
        trace::Atf2ResumeState sink_state;
        sink_state.file_bytes = 32;
        sink_state.chunk_records = chunk_records;
        sink_state.pending.assign(3 * trace::kRecordBytes, 0);
        util::StatusOr<Checkpoint> ckpt = ReadCheckpoint(
            CheckpointBytes(meta, machine, tracer, &sink_state));
        ASSERT_FALSE(ckpt.ok()) << "chunk_records " << chunk_records;
        EXPECT_EQ(ckpt.status().code(), util::StatusCode::kDataLoss);
    }
}

// ---------------------------------------------------------------------------
// Supervisor stop paths.

/** Boots a guest that faults into its own fault handler forever. */
void
BootWedge(Machine& machine)
{
    constexpr uint32_t kBadPc = 0x200;
    machine.WriteIpr(isa::Ipr::kScbb, 0x0);
    machine.WriteIpr(isa::Ipr::kKsp, 0x8000);
    for (uint32_t v = 0;
         v < static_cast<uint32_t>(cpu::ExcVector::kNumVectors); ++v)
        machine.memory().Write32(4 * v, kBadPc);
    machine.memory().Write8(kBadPc, 0xFF);
    machine.set_pc(kBadPc);
}

TEST(Supervisor, WatchdogCatchesWedgedGuest)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    BootWedge(machine);

    SupervisorOptions sup;
    sup.max_instructions = 10'000'000;
    sup.watchdog_ucycles = 100'000;
    const auto result = core::RunSupervised(machine, tracer, sup);
    EXPECT_EQ(result.stop_cause, StopCause::kWatchdog);
    EXPECT_FALSE(result.halted);
    // The wedge burned far fewer instructions than the budget: the
    // watchdog, not the limit, stopped the run.
    EXPECT_LT(result.instructions, sup.max_instructions);
}

TEST(Supervisor, WatchdogToleratesBusyHealthyGuest)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));

    SupervisorOptions sup;
    sup.max_instructions = 300'000;
    // Tight budget: the mix faults constantly (TB misses, page faults,
    // timer interrupts) yet always retires cleanly in between.
    sup.watchdog_ucycles = 100'000;
    const auto result = core::RunSupervised(machine, tracer, sup);
    EXPECT_EQ(result.stop_cause, StopCause::kInstrLimit);
}

TEST(Supervisor, StopFlagStopsAtSliceBoundaryAndCheckpoints)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));

    const std::string base = TempPath("ckpt_sigstop");
    CheckpointRotator rotator(base, 2);
    volatile std::sig_atomic_t flag = SIGINT;

    SupervisorOptions sup;
    sup.max_instructions = 100'000'000;
    sup.stop_flag = &flag;
    sup.checkpoints = &rotator;
    sup.meta.machine_config = MixConfig();
    sup.meta.tracer_config = SmallBufferConfig();
    const auto result = core::RunSupervised(machine, tracer, sup);
    EXPECT_EQ(result.stop_cause, StopCause::kSignal);
    // Stopped after one slice, not the whole budget.
    EXPECT_LE(result.instructions, core::kSliceInstructions);
    // The graceful stop sealed a final checkpoint.
    EXPECT_GE(result.checkpoints_written, 1u);
    EXPECT_FALSE(result.last_checkpoint.empty());
    EXPECT_TRUE(Checkpoint::Load(result.last_checkpoint).ok());
    for (uint64_t s = 1; s < rotator.next_sequence(); ++s)
        std::remove(rotator.PathFor(s).c_str());
    EXPECT_TRUE(result.drain_status.ok());
}

TEST(Supervisor, DeadlineStopsLongCapture)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));

    SupervisorOptions sup;
    sup.max_instructions = UINT64_MAX;  // only the deadline can stop it
    sup.deadline_ms = 1;
    const auto result = core::RunSupervised(machine, tracer, sup);
    // Either the deadline fired, or the workload halted first on a very
    // fast host — both are clean stops; an instruction-limit stop with
    // UINT64_MAX budget would mean the deadline was ignored.
    EXPECT_TRUE(result.stop_cause == StopCause::kDeadline ||
                result.stop_cause == StopCause::kHalted);
}

// ---------------------------------------------------------------------------
// Rotation and drain-status reporting.

TEST(CheckpointRotatorTest, KeepsOnlyTheRetentionWindow)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());

    const std::string base = TempPath("ckpt_rotate");
    CheckpointRotator rotator(base, 2);
    CheckpointMeta meta;
    meta.machine_config = MixConfig();
    meta.tracer_config = SmallBufferConfig();
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(rotator.Write(meta, machine, tracer, nullptr).ok());

    EXPECT_EQ(rotator.written(), 5u);
    EXPECT_EQ(rotator.last_path(), rotator.PathFor(5));
    // Sequences 4 and 5 survive; 1-3 were pruned.
    EXPECT_FALSE(Checkpoint::Load(rotator.PathFor(1)).ok());
    EXPECT_FALSE(Checkpoint::Load(rotator.PathFor(2)).ok());
    EXPECT_FALSE(Checkpoint::Load(rotator.PathFor(3)).ok());
    EXPECT_TRUE(Checkpoint::Load(rotator.PathFor(4)).ok());
    EXPECT_TRUE(Checkpoint::Load(rotator.PathFor(5)).ok());
    std::remove(rotator.PathFor(4).c_str());
    std::remove(rotator.PathFor(5).c_str());
}

// ---------------------------------------------------------------------------
// Series helpers: the inverse of PathFor and the search a resume starts
// from.

TEST(CheckpointSeries, BaseIsTheInverseOfPathFor)
{
    EXPECT_EQ(core::CheckpointSeriesBase("run.d/t.000003.atck"), "run.d/t");
    EXPECT_EQ(core::CheckpointSeriesBase(
                  CheckpointRotator("a.b/c.ckpt", 1).PathFor(1234567)),
              "a.b/c.ckpt");
    // Not a series name: the part between the last two dots must be
    // digits, and a dotted directory is not a sequence.
    EXPECT_EQ(core::CheckpointSeriesBase("run.d/latest.atck"), std::nullopt);
    EXPECT_EQ(core::CheckpointSeriesBase("t.00x003.atck"), std::nullopt);
    EXPECT_EQ(core::CheckpointSeriesBase("t.-00003.atck"), std::nullopt);
    EXPECT_EQ(core::CheckpointSeriesBase("t..atck"), std::nullopt);
    EXPECT_EQ(core::CheckpointSeriesBase("t.000003.atck.tmp"),
              std::nullopt);
    EXPECT_EQ(core::CheckpointSeriesBase(".atck"), std::nullopt);
}

TEST(CheckpointSeries, DamagedNewestYieldsTheOneBefore)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    CheckpointMeta meta;
    meta.machine_config = MixConfig();
    meta.tracer_config = SmallBufferConfig();
    trace::Atf2ResumeState sink_state;
    sink_state.file_bytes = 32;

    io::MemVfs vfs;
    CheckpointRotator rotator("run.d/t", 3, 1, vfs);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(rotator.Write(meta, machine, tracer, &sink_state).ok());
    // A newer checkpoint without sink state has nothing to resume into,
    // and another series in the same directory is not this one.
    ASSERT_TRUE(rotator.Write(meta, machine, tracer, nullptr).ok());
    CheckpointRotator other("run.d/u", 3, 9, vfs);
    ASSERT_TRUE(other.Write(meta, machine, tracer, &sink_state).ok());

    util::StatusOr<Checkpoint> found =
        core::FindNewestCheckpoint("run.d/t", vfs);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found->meta().sequence, 3u);

    std::vector<uint8_t> bytes = vfs.ReadAll(rotator.PathFor(3)).value();
    bytes[bytes.size() / 2] ^= 0xFF;
    util::StatusOr<std::unique_ptr<io::WritableFile>> out =
        vfs.Create(rotator.PathFor(3));
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Write(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE((*out)->Close().ok());

    found = core::FindNewestCheckpoint("run.d/t", vfs);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found->meta().sequence, 2u);
}

TEST(CheckpointSeries, MetaLeavingAKindOutIsRefused)
{
    // A supervised capture's checkpoints, in memory.
    io::MemVfs vfs;
    CheckpointRotator rotator("run.d/t", 3, 1, vfs);
    {
        Machine machine(MixConfig());
        auto sink = trace::FileSink::Open("run.d/t.atum", {}, vfs);
        ASSERT_TRUE(sink.ok()) << sink.status().ToString();
        AtumTracer tracer(machine, **sink, SmallBufferConfig());
        kernel::BootSystem(machine, workloads::StandardMix(1));
        SupervisorOptions sup;
        sup.max_instructions = 150'000;
        sup.checkpoints = &rotator;
        sup.checkpoint_every_fills = 1;
        sup.file_sink = sink->get();
        sup.meta.machine_config = MixConfig();
        sup.meta.tracer_config = SmallBufferConfig();
        const auto result = core::RunSupervised(machine, tracer, sup);
        ASSERT_TRUE(result.checkpoint_status.ok())
            << result.checkpoint_status.ToString();
        ASSERT_TRUE((*sink)->Close().ok());
    }
    ASSERT_GE(rotator.written(), 2u);
    const uint64_t newest = rotator.next_sequence() - 1;
    const std::string path = rotator.PathFor(newest);

    // Clear the meta slot that once held the PTE record flag, and
    // recompute the meta section's payload and header CRCs so the file
    // stays well framed. The meta is the first section; its payload
    // opens with the machine config (4 x u32) and the buffer size, cost
    // and drain pause (3 x u32), then the ifetch and PTE slots.
    std::vector<uint8_t> bytes = vfs.ReadAll(path).value();
    constexpr size_t kMetaHeader = core::kCheckpointHeaderBytes;
    constexpr size_t kPayload =
        kMetaHeader + core::kCheckpointSectionHeaderBytes;
    constexpr size_t kPteSlot = kPayload + 7 * 4 + 1;
    ASSERT_EQ(bytes[kPteSlot], 1u);
    bytes[kPteSlot] = 0;
    uint32_t payload_len = 0;
    std::memcpy(&payload_len, &bytes[kMetaHeader + 8], 4);
    const uint32_t payload_crc = util::Crc32c(&bytes[kPayload], payload_len);
    std::memcpy(&bytes[kMetaHeader + 16], &payload_crc, 4);
    const uint32_t header_crc = util::Crc32c(&bytes[kMetaHeader], 20);
    std::memcpy(&bytes[kMetaHeader + 20], &header_crc, 4);
    util::StatusOr<std::unique_ptr<io::WritableFile>> out = vfs.Create(path);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Write(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE((*out)->Close().ok());

    // The frame checks pass and the meta check refuses it: resuming would
    // join a stream without PTE records onto the trace's prefix.
    util::StatusOr<Checkpoint> refused = Checkpoint::Load(path, vfs);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), util::StatusCode::kDataLoss);
    EXPECT_NE(refused.status().ToString().find("record kind"),
              std::string::npos)
        << refused.status().ToString();

    util::StatusOr<Checkpoint> found =
        core::FindNewestCheckpoint("run.d/t", vfs);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found->meta().sequence, newest - 1);
}

TEST(CheckpointSeries, NoCheckpointIsNotFound)
{
    io::MemVfs vfs;
    ASSERT_TRUE(vfs.Create("run.d/t.atum").ok());
    ASSERT_TRUE(vfs.Create("run.d/t.000001.atck.tmp").ok());
    EXPECT_EQ(core::FindNewestCheckpoint("run.d/t", vfs).status().code(),
              util::StatusCode::kNotFound);
}

/** A sink that refuses everything — the permanently broken disk. */
class RefusingSink : public trace::TraceSink
{
  public:
    util::Status Append(const trace::Record&) override
    {
        return util::Unavailable("disk on fire");
    }
};

TEST(FlushStatus, EndOfRunLossIsReported)
{
    Machine machine(MixConfig());
    RefusingSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));
    const auto result = core::RunSupervised(
        machine, tracer, {.max_instructions = 300'000});
    EXPECT_TRUE(result.degraded);
    EXPECT_FALSE(result.drain_status.ok());
    EXPECT_GT(result.lost_records, 0u);
}

}  // namespace
}  // namespace atum
