// Tests for the workload generators: each program must assemble, boot,
// run to completion, print its completion marker, and actually exercise
// its heap (demand paging).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/atum_tracer.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "trace/sink.h"
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
