// Tests for the ATUM tracer and the user-only baseline against real
// full-system runs: completeness, buffer lifecycle, slowdown accounting,
// and non-perturbation of the architectural execution.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "assembler/assembler.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "core/user_tracer.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "isa/isa.h"
#include "trace/stats.h"
#include "workloads/workloads.h"

namespace atum::core {
namespace {

using cpu::Machine;
using kernel::GuestProgram;
using trace::RecordType;

std::unique_ptr<Machine>
SmallMachine(uint32_t timer_reload = 2000)
{
    Machine::Config config;
    config.mem_bytes = 1u << 20;
    config.timer_reload = timer_reload;
    return std::make_unique<Machine>(config);
}

GuestProgram
TinyLoop(uint32_t iters)
{
    using namespace assembler;
    using isa::Opcode;
    Assembler a(0);
    a.Emit(Opcode::kMovl, {Imm(iters), R(3)});
    auto loop = a.Here("loop");
    a.Emit(Opcode::kSobgtr, {R(3)}, loop);
    a.Emit(Opcode::kChmk,
           {Imm(static_cast<uint32_t>(kernel::Syscall::kExit))});
    GuestProgram gp;
    gp.name = "loop";
    gp.program = a.Finish();
    gp.heap_pages = 2;
    gp.stack_pages = 2;
    return gp;
}

TEST(AtumTracer, CapturesFullSystemTrace)
{
    auto machine = SmallMachine();
    trace::VectorSink sink;
    AtumConfig config;
    config.buffer_bytes = 64u << 10;
    AtumTracer tracer(*machine, sink, config);
    kernel::BootSystem(*machine, {TinyLoop(2000)});

    const SessionResult result = RunSupervised(
        *machine, tracer, {.max_instructions = 10'000'000});
    ASSERT_TRUE(result.halted);
    ASSERT_GT(result.records, 0u);
    EXPECT_EQ(result.records, sink.records().size());

    trace::TraceStats stats;
    for (const auto& r : sink.records())
        stats.Accumulate(r);
    // A full-system trace must contain kernel AND user references,
    // context switches, exceptions, TB misses, and PTE traffic.
    EXPECT_GT(stats.kernel_refs(), 0u);
    EXPECT_GT(stats.user_refs(), 0u);
    EXPECT_GT(stats.CountOf(RecordType::kCtxSwitch), 0u);
    EXPECT_GT(stats.CountOf(RecordType::kException), 0u);
    EXPECT_GT(stats.CountOf(RecordType::kTlbMiss), 0u);
    EXPECT_GT(stats.CountOf(RecordType::kPte), 0u);
    EXPECT_GT(stats.CountOf(RecordType::kIFetch), 0u);
    EXPECT_GT(stats.CountOf(RecordType::kWrite), 0u);
}

TEST(AtumTracer, TracingDoesNotPerturbExecution)
{
    // The same workload with and without tracing must execute the same
    // instruction stream (tracing only dilates micro-cycles).
    auto traced = SmallMachine();
    trace::CountingSink sink;
    AtumTracer tracer(*traced, sink);
    kernel::BootSystem(*traced, {TinyLoop(3000)});
    const SessionResult with = RunSupervised(
        *traced, tracer, {.max_instructions = 10'000'000});

    auto plain = SmallMachine();
    kernel::BootSystem(*plain, {TinyLoop(3000)});
    const SessionResult without = RunUntraced(*plain, 10'000'000);

    ASSERT_TRUE(with.halted);
    ASSERT_TRUE(without.halted);
    EXPECT_EQ(with.instructions, without.instructions);
    EXPECT_EQ(traced->console_output(), plain->console_output());
    EXPECT_GT(with.ucycles, without.ucycles);  // but time dilated
}

TEST(AtumTracer, SlowdownScalesWithPatchCost)
{
    auto measure = [](uint32_t cost) {
        auto machine = SmallMachine();
        trace::CountingSink sink;
        AtumConfig config;
        config.cost_per_record = cost;
        AtumTracer tracer(*machine, sink, config);
        kernel::BootSystem(*machine, {TinyLoop(2000)});
        const SessionResult r = RunSupervised(
            *machine, tracer, {.max_instructions = 10'000'000});
        EXPECT_TRUE(r.halted);
        return r.ucycles;
    };
    const uint64_t cheap = measure(1);
    const uint64_t expensive = measure(64);
    EXPECT_GT(expensive, cheap + cheap / 2);
}

TEST(AtumTracer, BufferFillsAndDrains)
{
    auto machine = SmallMachine();
    trace::VectorSink sink;
    AtumConfig config;
    config.buffer_bytes = 4096;  // 512 records per fill
    AtumTracer tracer(*machine, sink, config);
    kernel::BootSystem(*machine, {TinyLoop(2000)});

    const SessionResult result = RunSupervised(
        *machine, tracer, {.max_instructions = 10'000'000});
    ASSERT_TRUE(result.halted);
    EXPECT_GT(result.buffer_fills, 2u);
    EXPECT_EQ(tracer.buffered_records(), 0u);  // flushed
    EXPECT_EQ(sink.records().size(), result.records);
}

TEST(AtumTracer, BufferContentsSurviveThePhysicalMemoryPath)
{
    // Records are written into guest physical memory and read back out;
    // verify the drained stream is well-formed (types in range, memory
    // records have plausible sizes).
    auto machine = SmallMachine();
    trace::VectorSink sink;
    AtumTracer tracer(*machine, sink);
    kernel::BootSystem(*machine, {TinyLoop(500)});
    RunSupervised(*machine, tracer, {.max_instructions = 10'000'000});
    ASSERT_GT(sink.records().size(), 0u);
    for (const auto& r : sink.records()) {
        EXPECT_LT(static_cast<unsigned>(r.type),
                  static_cast<unsigned>(RecordType::kNumTypes));
        if (r.IsMemory()) {
            EXPECT_TRUE(r.size() == 1 || r.size() == 2 || r.size() == 4);
        }
    }
}

TEST(AtumTracer, DetachStopsRecording)
{
    auto machine = SmallMachine();
    trace::VectorSink sink;
    AtumTracer tracer(*machine, sink);
    kernel::BootSystem(*machine, {TinyLoop(5000)});
    tracer.Attach();
    machine->Run(1000);
    tracer.Flush();
    const size_t at_detach = sink.records().size();
    ASSERT_GT(at_detach, 0u);
    tracer.Detach();
    machine->Run(1000);
    tracer.Flush();
    EXPECT_EQ(sink.records().size(), at_detach);
}

TEST(AtumTracerDeath, DoubleAttachIsFatal)
{
    auto machine = SmallMachine();
    trace::VectorSink sink;
    AtumTracer tracer(*machine, sink);
    tracer.Attach();
    EXPECT_DEATH(tracer.Attach(), "already attached");
}

TEST(UserOnlyTracer, SeesOnlyTargetUserReferences)
{
    auto machine = SmallMachine();
    trace::VectorSink sink;
    UserTracerConfig config;
    config.target_pid = 1;
    UserOnlyTracer tracer(*machine, sink, config);
    kernel::BootSystem(*machine, {TinyLoop(2000), TinyLoop(100)});
    const SessionResult result = RunBaseline(*machine, tracer, 10'000'000);
    ASSERT_TRUE(result.halted);
    ASSERT_GT(sink.records().size(), 0u);
    EXPECT_GT(tracer.suppressed(), 0u);
    for (const auto& r : sink.records()) {
        EXPECT_FALSE(r.kernel());
        EXPECT_NE(r.type, RecordType::kPte);
        EXPECT_NE(r.type, RecordType::kCtxSwitch);
    }
}

TEST(UserOnlyTracer, SeesStrictSubsetOfAtumTrace)
{
    // Run the same workload under both tracers; the baseline must see
    // fewer references than the full-system trace.
    auto run_atum = [] {
        auto machine = SmallMachine();
        trace::VectorSink sink;
        AtumTracer tracer(*machine, sink);
        kernel::BootSystem(*machine, {TinyLoop(2000)});
        RunSupervised(*machine, tracer, {.max_instructions = 10'000'000});
        trace::TraceStats stats;
        for (const auto& r : sink.records())
            stats.Accumulate(r);
        return stats.mem_refs();
    };
    auto run_user = [] {
        auto machine = SmallMachine();
        trace::VectorSink sink;
        UserOnlyTracer tracer(*machine, sink);
        kernel::BootSystem(*machine, {TinyLoop(2000)});
        RunBaseline(*machine, tracer, 10'000'000);
        return static_cast<uint64_t>(sink.records().size());
    };
    const uint64_t full = run_atum();
    const uint64_t user = run_user();
    EXPECT_LT(user, full);
    EXPECT_GT(user, 0u);
}

TEST(Session, RunLoopsShareOneStepUnit)
{
    // Untraced and traced runs go through one loop that counts steps
    // (instructions plus interrupt deliveries), so a binding budget stops
    // both at the same guest instruction with the same count.
    Machine::Config config;  // atum-capture's defaults
    config.mem_bytes = 4u << 20;
    config.timer_reload = 2000;
    const auto boot = [](Machine& machine) {
        std::vector<GuestProgram> programs;
        for (const char* name :
             {"matrix", "sort", "listproc", "grep", "hash", "fft"})
            programs.push_back(workloads::MakeWorkload(name, 1));
        kernel::BootSystem(machine, programs);
    };
    constexpr uint64_t kBudget = 200'000;

    Machine plain(config);
    boot(plain);
    const SessionResult untraced = RunUntraced(plain, kBudget);

    Machine traced(config);
    trace::CountingSink sink;
    AtumTracer tracer(traced, sink);
    boot(traced);
    const SessionResult supervised =
        RunSupervised(traced, tracer, {.max_instructions = kBudget});

    ASSERT_EQ(untraced.stop_cause, StopCause::kInstrLimit);
    ASSERT_EQ(supervised.stop_cause, StopCause::kInstrLimit);
    EXPECT_EQ(untraced.instructions, kBudget);
    EXPECT_EQ(supervised.instructions, kBudget);
    EXPECT_EQ(plain.icount(), traced.icount());
    // The timer interrupts delivered inside the budget took steps but
    // retired no instruction.
    EXPECT_LT(plain.icount(), kBudget);
}

TEST(Session, UntracedRunReportsBasics)
{
    auto machine = SmallMachine();
    kernel::BootSystem(*machine, {TinyLoop(100)});
    const SessionResult r = RunUntraced(*machine, 10'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(r.instructions, 100u);
    EXPECT_GT(r.ucycles, 0u);
    EXPECT_EQ(r.records, 0u);
}


TEST(AtumTracer, OpcodeRecordsMatchInstructionCount)
{
    auto machine = SmallMachine();
    trace::VectorSink sink;
    AtumConfig config;
    config.record_opcodes = true;
    AtumTracer tracer(*machine, sink, config);
    kernel::BootSystem(*machine, {TinyLoop(500)});
    const SessionResult result = RunSupervised(
        *machine, tracer, {.max_instructions = 10'000'000});
    ASSERT_TRUE(result.halted);

    uint64_t opcode_records = 0;
    uint64_t sobgtr_count = 0;
    for (const auto& r : sink.records()) {
        if (r.type != RecordType::kOpcode)
            continue;
        ++opcode_records;
        if (r.info == static_cast<uint16_t>(isa::Opcode::kSobgtr))
            ++sobgtr_count;
    }
    // Every executed instruction decodes exactly once (faulted executions
    // re-decode on restart, so >= is the invariant).
    EXPECT_GE(opcode_records, result.instructions - 8);
    EXPECT_LE(opcode_records, result.instructions + 8);
    // The workload's 500-iteration SOBGTR loop dominates.
    EXPECT_GE(sobgtr_count, 500u);
}

// ---------------------------------------------------------------------------
// Drain failure policy: retry, degrade to counting-only, recover with a
// loss marker. The simulated machine must never die with the sink.

/** Sink that refuses the first `failures` appends, then accepts. */
class FlakySink : public trace::TraceSink
{
  public:
    explicit FlakySink(uint64_t failures) : remaining_(failures) {}

    util::Status Append(const trace::Record& record) override
    {
        if (remaining_ > 0) {
            --remaining_;
            return util::Unavailable("sink offline");
        }
        records_.push_back(record);
        return util::OkStatus();
    }

    const std::vector<trace::Record>& records() const { return records_; }

  private:
    uint64_t remaining_;
    std::vector<trace::Record> records_;
};

/** Sink that never accepts anything. */
class DeadSink : public trace::TraceSink
{
  public:
    util::Status Append(const trace::Record&) override
    {
        ++attempts_;
        return util::IoError("disk full");
    }
    uint64_t attempts() const { return attempts_; }

  private:
    uint64_t attempts_ = 0;
};

TEST(AtumTracerFaults, TransientSinkFailureIsRetriedWithoutLoss)
{
    auto machine = SmallMachine();
    // Two refusals: the first drain attempt fails twice at its head
    // record, then the bounded backoff retries succeed.
    FlakySink sink(2);
    AtumConfig config;
    config.buffer_bytes = 4u << 10;
    AtumTracer tracer(*machine, sink, config);
    kernel::BootSystem(*machine, {TinyLoop(2000)});

    const SessionResult result = RunSupervised(
        *machine, tracer, {.max_instructions = 10'000'000});
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(tracer.drain_retries(), 2u);
    EXPECT_FALSE(result.degraded);
    EXPECT_EQ(result.lost_records, 0u);
    EXPECT_EQ(result.loss_events, 0u);
    EXPECT_EQ(sink.records().size(), result.records);
    for (const auto& r : sink.records())
        EXPECT_NE(r.type, RecordType::kLoss);
}

TEST(AtumTracerFaults, DeadSinkDegradesToCountingOnly)
{
    auto machine = SmallMachine();
    DeadSink sink;
    AtumConfig config;
    config.buffer_bytes = 4u << 10;
    AtumTracer tracer(*machine, sink, config);
    kernel::BootSystem(*machine, {TinyLoop(2000)});

    // The machine must run to completion even though every drain fails.
    const SessionResult result = RunSupervised(
        *machine, tracer, {.max_instructions = 10'000'000});
    ASSERT_TRUE(result.halted);
    EXPECT_TRUE(result.degraded);
    EXPECT_GE(result.loss_events, 1u);
    EXPECT_EQ(result.lost_records, result.records);
    EXPECT_GT(sink.attempts(), 0u);
    EXPECT_FALSE(tracer.last_drain_error().ok());
}

TEST(AtumTracerFaults, RecoveredSinkGetsOneLossMarker)
{
    auto machine = SmallMachine();
    // One full drain cycle fails (1 try + 3 retries = 4 refusals), then
    // the sink comes back: the next drain's recovery probe plants the
    // loss marker and capture resumes.
    FlakySink sink(4);
    AtumConfig config;
    config.buffer_bytes = 4u << 10;
    AtumTracer tracer(*machine, sink, config);
    kernel::BootSystem(*machine, {TinyLoop(2000)});

    const SessionResult result = RunSupervised(
        *machine, tracer, {.max_instructions = 10'000'000});
    ASSERT_TRUE(result.halted);
    EXPECT_FALSE(result.degraded);  // recovered before the end
    EXPECT_EQ(result.loss_events, 1u);
    EXPECT_GT(result.lost_records, 0u);

    uint64_t markers = 0;
    uint32_t marked_lost = 0;
    for (const auto& r : sink.records()) {
        if (r.type == RecordType::kLoss) {
            ++markers;
            marked_lost = r.addr;
        }
    }
    ASSERT_EQ(markers, 1u);
    // The marker documents the gap: exactly the records tallied as lost.
    EXPECT_EQ(marked_lost, result.lost_records);
    // Everything that wasn't lost made it to the sink (plus the marker).
    EXPECT_EQ(sink.records().size() - markers,
              result.records - result.lost_records);
}

}  // namespace
}  // namespace atum::core
