// Tests for the workload generators: each program must assemble, boot,
// run to completion, print its completion marker, and actually exercise
// its heap (demand paging).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>

#include "core/atum_tracer.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "obs/spans.h"
#include "trace/sink.h"
#include "util/crc32.h"
#include "util/serialize.h"
#include "workloads/workloads.h"

namespace atum::workloads {
namespace {

using cpu::Machine;
using kernel::BootInfo;
using kernel::BootSystem;
using kernel::GuestProgram;
using kernel::KdataOffsets;

std::unique_ptr<Machine>
SmallMachine()
{
    Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 3000;
    return std::make_unique<Machine>(config);
}

struct RunOutcome {
    std::string console;
    uint64_t instructions = 0;
    uint32_t page_faults = 0;
    uint32_t dma_interrupts = 0;
    uint32_t forks = 0;
    cpu::EventCounters ev;
};

RunOutcome
RunOne(GuestProgram program, uint64_t max_instructions = 30'000'000)
{
    auto machine = SmallMachine();
    BootInfo info = BootSystem(*machine, {std::move(program)});
    const auto result = machine->Run(max_instructions);
    EXPECT_EQ(result.reason, Machine::StopReason::kHalted)
        << "workload did not finish";
    RunOutcome out;
    out.console = machine->console_output();
    out.instructions = result.instructions;
    out.page_faults = machine->memory().Read32(info.layout.kdata_pa +
                                               KdataOffsets::kPfCount);
    out.dma_interrupts = machine->memory().Read32(info.layout.kdata_pa +
                                                  KdataOffsets::kDmaDone);
    out.forks = machine->memory().Read32(info.layout.kdata_pa +
                                         KdataOffsets::kForks);
    out.ev = machine->event_counters();
    return out;
}

TEST(Workloads, MatrixCompletes)
{
    const RunOutcome out = RunOne(MakeMatrix(8));
    EXPECT_EQ(out.console, "m");
    EXPECT_GT(out.page_faults, 0u);  // heap is demand-zero
}

TEST(Workloads, SortCompletes)
{
    const RunOutcome out = RunOne(MakeSort(200));
    EXPECT_EQ(out.console, "s");
    EXPECT_GT(out.page_faults, 0u);
}

TEST(Workloads, ListProcCompletes)
{
    const RunOutcome out = RunOne(MakeListProc(100, 5));
    EXPECT_EQ(out.console, "l");
    EXPECT_GT(out.page_faults, 0u);
}

TEST(Workloads, GrepCompletes)
{
    const RunOutcome out = RunOne(MakeGrep(2048, 2));
    EXPECT_EQ(out.console, "g");
}

TEST(Workloads, HashCompletes)
{
    const RunOutcome out = RunOne(MakeHash(500));
    EXPECT_EQ(out.console, "c");
    EXPECT_GT(out.page_faults, 0u);
}

TEST(Workloads, EditorCompletes)
{
    const RunOutcome out = RunOne(MakeEditor(20, 2));
    EXPECT_EQ(out.console, "e");
    EXPECT_GT(out.page_faults, 0u);
}

TEST(Workloads, QueueSimCompletes)
{
    const RunOutcome out = RunOne(MakeQueueSim(300));
    EXPECT_EQ(out.console, "q");
    EXPECT_GT(out.page_faults, 0u);
}

TEST(Workloads, PipelinePairTransfersEverything)
{
    auto machine = SmallMachine();
    BootSystem(*machine, MakePipelinePair(200));
    const auto result = machine->Run(50'000'000);
    ASSERT_EQ(result.reason, Machine::StopReason::kHalted);
    // Both ends print their completion markers.
    const std::string& out = machine->console_output();
    EXPECT_EQ(out.size(), 2u);
    EXPECT_NE(out.find('>'), std::string::npos);
    EXPECT_NE(out.find('<'), std::string::npos);
}

TEST(Workloads, PipelineIsSyscallHeavy)
{
    // The pipeline's kernel share must exceed a compute-bound workload's.
    auto measure = [](std::vector<GuestProgram> programs) {
        cpu::Machine::Config config;
        config.mem_bytes = 2u << 20;
        config.timer_reload = 3000;
        cpu::Machine machine(config);
        trace::VectorSink sink;
        core::AtumTracer tracer(machine, sink);
        BootSystem(machine, std::move(programs));
        core::RunSupervised(machine, tracer, {.max_instructions = 100'000'000});
        uint64_t kernel = 0, total = 0;
        for (const auto& r : sink.records()) {
            if (!r.IsMemory())
                continue;
            ++total;
            if (r.kernel())
                ++kernel;
        }
        return static_cast<double>(kernel) / static_cast<double>(total);
    };
    const double pipeline_share = measure(MakePipelinePair(300));
    std::vector<GuestProgram> compute;
    compute.push_back(MakeMatrix(12));
    const double compute_share = measure(std::move(compute));
    EXPECT_GT(pipeline_share, compute_share * 2);
}

TEST(Workloads, FftCompletes)
{
    const RunOutcome out = RunOne(MakeFft(128));
    EXPECT_EQ(out.console, "f");
}

TEST(Workloads, DeterministicAcrossRuns)
{
    const RunOutcome a = RunOne(MakeHash(300));
    const RunOutcome b = RunOne(MakeHash(300));
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.page_faults, b.page_faults);
}

TEST(Workloads, ScaleIncreasesWork)
{
    const RunOutcome small = RunOne(MakeSort(100));
    const RunOutcome big = RunOne(MakeSort(400));
    EXPECT_GT(big.instructions, small.instructions);
}

TEST(Workloads, MakeWorkloadByName)
{
    for (const std::string& name : AllWorkloadNames()) {
        GuestProgram gp = MakeWorkload(name, 1);
        EXPECT_EQ(gp.name, name);
        EXPECT_GT(gp.program.size(), 0u);
    }
}

TEST(Workloads, StandardMixRunsMultiprogrammed)
{
    auto machine = SmallMachine();
    BootInfo info = BootSystem(*machine, StandardMix(1));
    const auto result = machine->Run(100'000'000);
    ASSERT_EQ(result.reason, Machine::StopReason::kHalted);
    // All three completion markers, in some interleaving-dependent order.
    const std::string& out = machine->console_output();
    EXPECT_EQ(out.size(), 3u);
    EXPECT_NE(out.find('c'), std::string::npos);
    EXPECT_NE(out.find('m'), std::string::npos);
    EXPECT_NE(out.find('l'), std::string::npos);
    // Multiprogramming implies context switches.
    const uint32_t cs = machine->memory().Read32(info.layout.kdata_pa +
                                                 KdataOffsets::kCsCount);
    EXPECT_GT(cs, 0u);
}

// ---------------------------------------------------------------------
// The adversarial zoo. Each generator exists to push one counter or
// capture path to an extreme, so its test asserts that *signature*, not
// just completion.
// ---------------------------------------------------------------------

TEST(Workloads, ServerCompletes)
{
    const RunOutcome out = RunOne(MakeServer(200));
    EXPECT_EQ(out.console, "v");
    EXPECT_GT(out.ev.syscalls, 600u);  // >= 3 per request
}

TEST(Workloads, ServerIsSyscallStorm)
{
    // The server's syscalls-per-instruction rate must dwarf a
    // compute-bound workload's.
    const RunOutcome server = RunOne(MakeServer(200));
    const RunOutcome compute = RunOne(MakeMatrix(12));
    const double server_rate = static_cast<double>(server.ev.syscalls) /
                               static_cast<double>(server.ev.instructions);
    const double compute_rate = static_cast<double>(compute.ev.syscalls) /
                                static_cast<double>(compute.ev.instructions);
    EXPECT_GT(server_rate, compute_rate * 20);
}

TEST(Workloads, IoStormMovesDataThroughDma)
{
    const RunOutcome out = RunOne(MakeIoStorm(30));
    EXPECT_EQ(out.console, "d");  // no '!' = every copy verified
    // Every transfer is one page through the DMA engine, and every
    // completion interrupt was delivered.
    EXPECT_EQ(out.ev.dma_bytes, 30u * 512u);
    EXPECT_EQ(out.dma_interrupts, 30u);
}

TEST(Workloads, ForkWaveSpawnsAndReapsChildren)
{
    const RunOutcome out = RunOne(MakeForkWave(10));
    // Ten children each print '+'; the parent prints 'w' when done.
    EXPECT_EQ(out.forks, 10u);
    EXPECT_EQ(out.console.size(), 11u);
    EXPECT_EQ(std::count(out.console.begin(), out.console.end(), '+'), 10);
    EXPECT_NE(out.console.find('w'), std::string::npos);
}

TEST(Workloads, TlbThrashMissRateIsExtreme)
{
    // 192 pages against a 64-entry TB: steady-state sweeps miss on every
    // page touched. grep streams through a few pages and barely misses.
    const RunOutcome thrash = RunOne(MakeTlbThrash(192, 8));
    const RunOutcome stream = RunOne(MakeGrep(2048, 2));
    EXPECT_EQ(thrash.console, "t");
    const double thrash_rate =
        static_cast<double>(thrash.ev.tlb_misses) /
        static_cast<double>(thrash.ev.instructions);
    const double stream_rate =
        static_cast<double>(stream.ev.tlb_misses) /
        static_cast<double>(stream.ev.instructions);
    EXPECT_GT(thrash_rate, stream_rate * 10);
    // At minimum every page of every steady-state pass misses.
    EXPECT_GT(thrash.ev.tlb_misses, 192u * 7u);
}

TEST(Workloads, SmcRewritesItsOwnText)
{
    // Trace the run and count user-mode writes landing in the program's
    // first text page — the patched immediate lives there.
    cpu::Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 3000;
    cpu::Machine machine(config);
    trace::VectorSink sink;
    core::AtumTracer tracer(machine, sink);
    std::vector<GuestProgram> programs;
    programs.push_back(MakeSmc(100));
    BootSystem(machine, std::move(programs));
    core::RunSupervised(machine, tracer, {.max_instructions = 30'000'000});
    EXPECT_EQ(machine.console_output(), "x");  // no '!' = every call saw
                                               // the patched bytes
    uint64_t text_writes = 0;
    for (const auto& r : sink.records()) {
        if (r.type == trace::RecordType::kWrite && !r.kernel() &&
            r.addr < 512)
            ++text_writes;
    }
    EXPECT_EQ(text_writes, 100u);
}

TEST(Workloads, ZooIsDeterministic)
{
    for (const char* name : {"server", "iostorm", "forkwave", "tlbthrash",
                             "smc"}) {
        const RunOutcome a = RunOne(MakeWorkload(name));
        const RunOutcome b = RunOne(MakeWorkload(name));
        EXPECT_EQ(a.instructions, b.instructions) << name;
        EXPECT_TRUE(a.ev == b.ev) << name;
        EXPECT_EQ(a.console, b.console) << name;
    }
}

TEST(Workloads, GoldenInstructionCounts)
{
    // Retired-instruction counts for every registered workload at scale 1
    // on the standard small machine. These pin down the exact guest
    // execution: any change to the generators, the kernel, or the
    // executor's instruction semantics shows up here first. Update
    // deliberately when semantics change on purpose.
    const struct {
        const char* name;
        uint64_t instructions;
    } golden[] = {
        {"matrix", 69485},   {"sort", 144255},    {"listproc", 121222},
        {"grep", 194860},    {"hash", 119943},    {"fft", 50266},
        {"editor", 15279},   {"queuesim", 17128}, {"server", 21079},
        {"iostorm", 28467},  {"forkwave", 19791}, {"tlbthrash", 64971},
        {"smc", 4367},
    };
    EXPECT_EQ(std::size(golden), AllWorkloadNames().size());
    for (const auto& g : golden) {
        const RunOutcome out = RunOne(MakeWorkload(g.name));
        EXPECT_EQ(out.instructions, g.instructions) << g.name;
    }
}

/** Folds every record, packed as on disk, into one CRC32C in order. */
class CrcSink : public trace::TraceSink
{
  public:
    util::Status Append(const trace::Record& record) override
    {
        uint8_t bytes[trace::kRecordBytes];
        trace::PackRecord(record, bytes);
        crc_ = util::Crc32cExtend(crc_, bytes, sizeof bytes);
        ++count_;
        return util::OkStatus();
    }
    uint64_t count() const { return count_; }
    uint32_t crc() const { return crc_; }

  private:
    uint64_t count_ = 0;
    uint32_t crc_ = 0;
};

/** Everything a traced run leaves behind that the lock pins. */
struct ExecutionDigest {
    uint64_t records;
    uint32_t crc;
    uint64_t ucycles;
    cpu::EventCounters ev;
    uint64_t tb_lookups;
    uint64_t tb_misses;

    bool operator==(const ExecutionDigest&) const = default;
};

std::ostream&
operator<<(std::ostream& os, const ExecutionDigest& d)
{
    return os << "{" << d.records << ", 0x" << std::hex << d.crc << std::dec
              << ", " << d.ucycles << ", {" << d.ev.instructions << ", "
              << d.ev.ifetches << ", " << d.ev.reads << ", " << d.ev.writes
              << ", " << d.ev.pte_reads << ", " << d.ev.tlb_misses << ", "
              << d.ev.tlb_fills << ", " << d.ev.exceptions << ", "
              << d.ev.syscalls << ", " << d.ev.dma_bytes << "}, "
              << d.tb_lookups << ", " << d.tb_misses << "}";
}

/** Traces `programs` to the end under a default AtumTracer. */
ExecutionDigest
TracedDigest(const std::vector<GuestProgram>& programs,
             obs::PhaseProfiler* profiler = nullptr)
{
    auto machine = SmallMachine();
    CrcSink sink;
    core::AtumTracer tracer(*machine, sink);
    BootSystem(*machine, programs);
    const core::SessionResult result = core::RunSupervised(
        *machine, tracer,
        {.max_instructions = 30'000'000, .profiler = profiler});
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.records, sink.count());
    return {sink.count(),
            sink.crc(),
            machine->ucycles(),
            machine->event_counters(),
            machine->mmu().tlb().lookups(),
            machine->mmu().tlb().misses()};
}

TEST(Workloads, GoldenExecutionIsPinned)
{
    // Behaviour lock on the interpreter, MMU and patch: every guest at
    // scale 1, traced with the default AtumTracer config. The record
    // stream's CRC catches a reordered, added or changed record; ucycles
    // catch a shifted micro-op cost; the event counters and the TB's
    // lookup/miss tallies catch a changed reference path or a skipped
    // LRU stamp (stamps decide evictions, so they reach the miss count).
    // These values hold across rewrites of the hot path; update them
    // only when guest-visible behaviour changes on purpose, and say why.
    const struct {
        const char* name;
        ExecutionDigest digest;
    } golden[] = {
        {"matrix",
         {86248, 0x9CAF2989, 6361283,
          {69485, 74466, 9102, 2327, 149, 149, 143, 31, 2, 0},
          84836, 141}},
        {"sort",
         {160190, 0x90451545, 11482339,
          {144255, 133653, 14738, 11277, 209, 209, 204, 55, 2, 0},
          157484, 202}},
        {"listproc",
         {147004, 0xC98F715A, 10386210,
          {121222, 103365, 30277, 12598, 337, 337, 330, 49, 2, 0},
          144416, 328}},
        {"grep",
         {276096, 0xB0456B4F, 19663304,
          {194860, 211349, 51604, 12400, 298, 298, 282, 82, 2, 0},
          272449, 280}},
        {"hash",
         {173215, 0x762D6F12, 12293227,
          {119943, 120735, 26923, 22425, 1504, 1504, 1461, 84, 2, 0},
          168304, 1456}},
        {"fft",
         {63014, 0x22003F8E, 4437661,
          {50266, 51359, 5248, 6184, 92, 92, 88, 22, 2, 0},
          62047, 86}},
        {"editor",
         {56986, 0x5B548132, 3942046,
          {15279, 22056, 26048, 8785, 40, 40, 36, 11, 2, 0},
          56640, 34}},
        {"queuesim",
         {31953, 0x3D30F4C8, 2166033,
          {17128, 19573, 4347, 7737, 132, 132, 113, 26, 2, 0},
          31408, 111}},
        {"server",
         {47912, 0xC96941A5, 3344516,
          {21079, 27889, 10292, 8640, 50, 50, 50, 946, 939, 0},
          43917, 49}},
        {"iostorm",
         {53025, 0x8FBB7185, 3806371,
          {28467, 45005, 1370, 1337, 45, 45, 43, 93, 42, 20480},
          47203, 41}},
        {"forkwave",
         {34530, 0x27030144, 2513801,
          {19791, 29980, 1507, 2832, 62, 62, 62, 56, 50, 0},
          33185, 49}},
        {"tlbthrash",
         {107791, 0x0B440658, 7568147,
          {64971, 67905, 6660, 28657, 2166, 2166, 1974, 215, 2, 0},
          102253, 1971}},
        {"smc",
         {7512, 0x715AC284, 517141,
          {4367, 5990, 491, 991, 17, 17, 16, 4, 2, 0},
          7403, 13}},
    };
    EXPECT_EQ(std::size(golden), AllWorkloadNames().size());
    for (const auto& g : golden)
        EXPECT_EQ(TracedDigest({MakeWorkload(g.name)}), g.digest) << g.name;
}

TEST(Workloads, PhaseProfilerDoesNotChangeExecution)
{
    // In a step a sampled window covers, the run loop attaches the
    // PhaseProfiler to the machine and every reference takes the
    // profiled, out-of-line instantiation of Translate/MicroRead/
    // MicroWrite (cpu/machine_hot.h); in the other steps, and without a
    // profiler, the inline unprofiled copy. The two must drive the same
    // machine. A multiprogrammed mix of compute and adversarial guests is
    // traced both ways; the profiler samples one window in four, so the
    // two paths interleave step by step.
    const std::vector<GuestProgram> mix = {
        MakeWorkload("matrix"), MakeWorkload("grep"),
        MakeWorkload("tlbthrash"), MakeWorkload("iostorm"),
        MakeWorkload("smc")};
    obs::PhaseProfiler profiler(/*sample_shift=*/2);
    const ExecutionDigest profiled = TracedDigest(mix, &profiler);
    EXPECT_EQ(profiled, TracedDigest(mix));
    // A build with tracing compiled out has a profiler that never samples.
    EXPECT_EQ(profiler.samples() > 0, ATUM_TRACING_ENABLED != 0);
}

TEST(Workloads, TracingDoesNotPerturbAnyGuest)
{
    // The paper's claim that the patched machine runs software exactly as
    // before, record by record, for every guest. A lead machine runs the
    // guest untraced on the traced memory layout (its tracer reserves the
    // buffer but is never attached) and is saved at three cuts. Each cut
    // is restored into a fresh traced machine that runs to the next cut,
    // and the segments' records, joined in order, must equal one traced
    // run from boot. This also shows that Machine::Save/Restore carry all
    // the state that shapes the trace, at any step.
    //
    // ucycles are not compared: the untraced lead charges no patch cost
    // and no drain pauses, and nothing the guest sees depends on them.
    constexpr uint64_t kSegments = 4;
    for (const std::string& name : AllWorkloadNames()) {
        SCOPED_TRACE(name);
        auto whole = SmallMachine();
        CrcSink whole_sink;
        core::AtumTracer whole_tracer(*whole, whole_sink);
        BootSystem(*whole, {MakeWorkload(name)});
        const uint64_t steps =
            core::RunSupervised(*whole, whole_tracer,
                                {.max_instructions = 30'000'000})
                .instructions;
        ASSERT_TRUE(whole->halted());

        auto lead = SmallMachine();
        CrcSink unused;
        core::AtumTracer layout(*lead, unused);
        BootSystem(*lead, {MakeWorkload(name)});

        CrcSink joined;
        std::unique_ptr<Machine> segment;
        uint64_t done = 0;
        for (uint64_t k = 1; k <= kSegments; ++k) {
            const uint64_t cut = steps * k / kSegments;
            util::StateWriter state;
            ASSERT_TRUE(lead->Save(state).ok());
            if (k < kSegments)
                core::RunUntraced(*lead, cut - done);

            segment = SmallMachine();
            core::AtumTracer tracer(*segment, joined);
            util::StateReader reader(state.bytes());
            ASSERT_TRUE(segment->Restore(reader).ok());
            const core::SessionResult result = core::RunSupervised(
                *segment, tracer, {.max_instructions = cut - done});
            EXPECT_EQ(result.instructions, cut - done) << "segment " << k;
            done = cut;
        }
        EXPECT_TRUE(segment->halted());
        EXPECT_EQ(joined.count(), whole_sink.count());
        EXPECT_EQ(joined.crc(), whole_sink.crc());
        EXPECT_EQ(segment->icount(), whole->icount());
        EXPECT_TRUE(segment->event_counters() == whole->event_counters());
        EXPECT_EQ(segment->mmu().tlb().lookups(),
                  whole->mmu().tlb().lookups());
        EXPECT_EQ(segment->mmu().tlb().misses(), whole->mmu().tlb().misses());
        EXPECT_EQ(segment->console_output(), whole->console_output());
    }
}

TEST(WorkloadsDeath, BadParametersAreFatal)
{
    EXPECT_DEATH(MakeMatrix(1), "n must be");
    EXPECT_DEATH(MakeFft(100), "power of two");
    EXPECT_DEATH(MakeWorkload("nope"), "unknown workload");
    EXPECT_DEATH(MakeServer(0), "requests must be");
    EXPECT_DEATH(MakeIoStorm(1, 0), "seed must be");
    EXPECT_DEATH(MakeForkWave(0), "children must be");
    EXPECT_DEATH(MakeTlbThrash(0, 1), "pages and passes");
    EXPECT_DEATH(MakeSmc(0), "rewrites must be");
}

}  // namespace
}  // namespace atum::workloads
