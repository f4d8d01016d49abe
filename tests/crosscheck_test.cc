// Crosscheck tests: the independent hardware event counters and the
// trace must tell the same story. Unit tests pin the interval algebra
// (loss widening, prefix bounds, fill accounting); a deliberately
// perturbed counter proves the checker has teeth; and a property suite
// runs EVERY workload through the three capture-degradation scenarios
// (checkpoint/resume, tracer degrade, powercut-then-salvage) asserting
// the derived intervals always cover the true counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/crosscheck.h"
#include "core/atum_tracer.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "io/mem_vfs.h"
#include "kernel/boot.h"
#include "trace/container.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "workloads/workloads.h"

namespace atum::analysis {
namespace {

using core::AtumConfig;
using core::AtumTracer;
using cpu::EventCounters;
using cpu::Machine;
using trace::Record;
using trace::RecordType;

constexpr uint16_t kTnvVector = static_cast<uint16_t>(cpu::ExcVector::kTnv);
constexpr uint16_t kChmkVector =
    static_cast<uint16_t>(cpu::ExcVector::kChmk);

Machine::Config
SmallConfig()
{
    Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 2000;
    return config;
}

Record
Make(RecordType type, uint32_t addr = 0, uint16_t info = 0)
{
    Record r;
    r.type = type;
    r.addr = addr;
    r.info = info;
    return r;
}

/** n records of one type. */
void
Append(std::vector<Record>& records, RecordType type, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        records.push_back(Make(type));
}

struct CaptureOutcome {
    std::vector<Record> records;
    EventCounters ev;
    bool halted = false;
    uint64_t lost = 0;
};

/** Full in-process capture of one workload with opcode markers on. */
CaptureOutcome
CaptureWorkload(const std::string& name, bool record_opcodes = true)
{
    Machine machine(SmallConfig());
    trace::VectorSink sink;
    AtumConfig config;
    config.buffer_bytes = 64u << 10;
    config.record_opcodes = record_opcodes;
    AtumTracer tracer(machine, sink, config);
    kernel::BootSystem(machine, {workloads::MakeWorkload(name)});
    const core::SessionResult result =
        core::RunSupervised(machine, tracer, {.max_instructions = 200'000'000});
    CaptureOutcome out;
    out.records = sink.records();
    out.ev = machine.event_counters();
    out.halted = result.halted;
    out.lost = result.lost_records;
    return out;
}

// ---------------------------------------------------------------------------
// Interval algebra on synthetic streams.

TEST(Crosscheck, ExactStreamPins)
{
    std::vector<Record> records;
    Append(records, RecordType::kIFetch, 7);
    Append(records, RecordType::kRead, 5);
    Append(records, RecordType::kWrite, 3);

    EventCounters ev;
    ev.ifetches = 7;
    ev.reads = 5;
    ev.writes = 3;
    EXPECT_TRUE(Crosscheck(records, ev).passed());

    ev.reads = 6;  // one phantom read the trace never saw
    const CrosscheckReport report = Crosscheck(records, ev);
    EXPECT_FALSE(report.passed());
    for (const CounterCheck& c : report.checks) {
        if (c.name == "reads") {
            EXPECT_FALSE(c.ok);
        }
    }
}

TEST(Crosscheck, LossMarkersWidenIntervals)
{
    std::vector<Record> records;
    Append(records, RecordType::kRead, 5);
    records.push_back(Make(RecordType::kLoss, /*lost=*/3));

    EventCounters ev;
    for (uint64_t reads : {5u, 6u, 8u}) {
        ev.reads = reads;
        EXPECT_TRUE(Crosscheck(records, ev).passed()) << reads;
    }
    ev.reads = 4;  // below even the trace's own tally
    EXPECT_FALSE(Crosscheck(records, ev).passed());
    ev.reads = 9;  // more than the marker can account for
    EXPECT_FALSE(Crosscheck(records, ev).passed());
}

TEST(Crosscheck, PrefixModeDropsUpperBounds)
{
    std::vector<Record> records;
    Append(records, RecordType::kRead, 5);

    EventCounters ev;
    ev.reads = 5'000'000;  // the run went on long after the torn trace
    CrosscheckOptions opts;
    opts.prefix = true;
    EXPECT_TRUE(Crosscheck(records, ev, opts).passed());
    EXPECT_FALSE(Crosscheck(records, ev).passed());

    ev.reads = 4;  // a prefix still lower-bounds every counter
    EXPECT_FALSE(Crosscheck(records, ev, opts).passed());
}

TEST(Crosscheck, TlbFillBoundsAccountForFaults)
{
    // Four misses, one of which walked into a page fault: the fill
    // count is only bounded, [misses - faults, misses].
    std::vector<Record> records;
    Append(records, RecordType::kTlbMiss, 4);
    records.push_back(Make(RecordType::kException, 0, kTnvVector));

    EventCounters ev;
    ev.tlb_misses = 4;
    ev.exceptions = 1;
    for (uint64_t fills : {3u, 4u}) {
        ev.tlb_fills = fills;
        EXPECT_TRUE(Crosscheck(records, ev).passed()) << fills;
    }
    for (uint64_t fills : {2u, 5u}) {
        ev.tlb_fills = fills;
        EXPECT_FALSE(Crosscheck(records, ev).passed()) << fills;
    }
}

TEST(Crosscheck, SyscallsAreChmkDispatches)
{
    std::vector<Record> records;
    records.push_back(Make(RecordType::kException, 0, kChmkVector));
    records.push_back(Make(RecordType::kException, 0, kTnvVector));

    EventCounters ev;
    ev.exceptions = 2;
    ev.syscalls = 1;
    EXPECT_TRUE(Crosscheck(records, ev).passed());
    ev.syscalls = 2;
    EXPECT_FALSE(Crosscheck(records, ev).passed());
}

TEST(Crosscheck, DmaBytesAreFourPerWordRecord)
{
    std::vector<Record> records;
    Append(records, RecordType::kDma, 3);

    EventCounters ev;
    ev.dma_bytes = 12;
    EXPECT_TRUE(Crosscheck(records, ev).passed());
    ev.dma_bytes = 11;
    EXPECT_FALSE(Crosscheck(records, ev).passed());
}

TEST(Crosscheck, InstructionsNeedOpcodeMarkers)
{
    // Without kOpcode records the instruction count is unknowable from
    // the stream: the row reports skipped and never fails.
    std::vector<Record> records;
    Append(records, RecordType::kIFetch, 2);

    EventCounters ev;
    ev.ifetches = 2;
    ev.instructions = 123456;
    const CrosscheckReport report = Crosscheck(records, ev);
    EXPECT_TRUE(report.passed());
    for (const CounterCheck& c : report.checks) {
        if (c.name == "instructions") {
            EXPECT_FALSE(c.checked);
        }
    }

    records.push_back(Make(RecordType::kOpcode));
    EXPECT_FALSE(Crosscheck(records, ev).passed());
}

// ---------------------------------------------------------------------------
// The checker has teeth: a real capture with any one counter perturbed
// by one must fail, and the report must finger exactly that counter.

TEST(Crosscheck, InjectedCounterBugIsCaught)
{
    const CaptureOutcome out = CaptureWorkload("server");
    ASSERT_TRUE(out.halted);
    ASSERT_TRUE(Crosscheck(out.records, out.ev).passed());

    const std::vector<
        std::pair<const char*, std::function<void(EventCounters&)>>>
        bugs = {
            {"instructions", [](EventCounters& e) { ++e.instructions; }},
            {"ifetches", [](EventCounters& e) { ++e.ifetches; }},
            {"reads", [](EventCounters& e) { ++e.reads; }},
            {"writes", [](EventCounters& e) { --e.writes; }},
            {"pte_reads", [](EventCounters& e) { ++e.pte_reads; }},
            {"tlb_misses", [](EventCounters& e) { --e.tlb_misses; }},
            {"exceptions", [](EventCounters& e) { ++e.exceptions; }},
            {"syscalls", [](EventCounters& e) { --e.syscalls; }},
            {"dma_bytes", [](EventCounters& e) { e.dma_bytes += 4; }},
        };
    for (const auto& [name, inject] : bugs) {
        EventCounters buggy = out.ev;
        inject(buggy);
        const CrosscheckReport report = Crosscheck(out.records, buggy);
        EXPECT_FALSE(report.passed()) << name;
        for (const CounterCheck& c : report.checks) {
            if (c.name == name) {
                EXPECT_FALSE(c.ok) << name;
            } else if (c.name != "tlb_fills") {  // bounded by tlb_misses
                EXPECT_TRUE(c.ok) << c.name << " blamed for " << name;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest plumbing.

TEST(ReadCountersFromManifest, RoundTripsAndRejectsJunk)
{
    io::MemVfs vfs;
    auto write = [&](const std::string& path, const std::string& body) {
        auto file = vfs.Create(path);
        ASSERT_TRUE(file.ok());
        ASSERT_TRUE((*file)->Write(body.data(), body.size()).ok());
        ASSERT_TRUE((*file)->Close().ok());
    };

    write("run.json", R"({"schema":"atum-run-v1","counters":{)"
                      R"("cpu.ev.instructions":42,"cpu.ev.reads":7,)"
                      R"("cpu.ev.dma_bytes":4096,"replay.records":9}})");
    util::StatusOr<EventCounters> ev =
        ReadCountersFromManifest("run.json", vfs);
    ASSERT_TRUE(ev.ok()) << ev.status().ToString();
    EXPECT_EQ(ev->instructions, 42u);
    EXPECT_EQ(ev->reads, 7u);
    EXPECT_EQ(ev->dma_bytes, 4096u);
    EXPECT_EQ(ev->writes, 0u);  // absent key reads as zero

    write("nocounters.json", R"({"schema":"atum-run-v1"})");
    EXPECT_FALSE(ReadCountersFromManifest("nocounters.json", vfs).ok());

    write("oldbuild.json", R"({"counters":{"cpu.instructions":42}})");
    EXPECT_FALSE(ReadCountersFromManifest("oldbuild.json", vfs).ok());

    write("garbage.json", "not json at all");
    EXPECT_FALSE(ReadCountersFromManifest("garbage.json", vfs).ok());

    EXPECT_FALSE(ReadCountersFromManifest("missing.json", vfs).ok());
}

// ---------------------------------------------------------------------------
// Property: for EVERY workload, under every capture-degradation mode,
// the derived intervals cover the true counters.

class CrosscheckProperty : public ::testing::TestWithParam<std::string>
{
};

// Clean end-to-end capture: intervals must pin every counter exactly.
TEST_P(CrosscheckProperty, CleanCaptureIsZeroDelta)
{
    const CaptureOutcome out = CaptureWorkload(GetParam());
    ASSERT_TRUE(out.halted);
    EXPECT_EQ(out.lost, 0u);
    const CrosscheckReport report = Crosscheck(out.records, out.ev);
    EXPECT_TRUE(report.passed()) << report.ToString();
    for (const CounterCheck& c : report.checks) {
        if (c.checked && c.name != "tlb_fills") {
            EXPECT_EQ(c.derived.lo, c.derived.hi) << c.name;
        }
    }
}

// Checkpoint mid-run, restore into a fresh machine, finish there: the
// stitched stream must still match the restored machine's counters
// (which the checkpoint carried across) with zero slack.
TEST_P(CrosscheckProperty, CheckpointResumeCoversCounters)
{
    const Machine::Config mconfig = SmallConfig();
    AtumConfig tconfig;
    tconfig.buffer_bytes = 16u << 10;
    tconfig.record_opcodes = true;

    Machine machine(mconfig);
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, tconfig);
    kernel::BootSystem(machine, {workloads::MakeWorkload(GetParam())});
    tracer.Attach();
    machine.Run(60'000);

    core::CheckpointMeta meta;
    meta.machine_config = mconfig;
    meta.tracer_config = tconfig;
    io::MemVfs vfs;
    ASSERT_TRUE(core::WriteCheckpointFile("ckpt.atck", meta, machine, tracer,
                                          nullptr, vfs)
                    .ok());
    const size_t records_at_ckpt = sink.records().size();

    util::StatusOr<core::Checkpoint> ckpt =
        core::Checkpoint::Load("ckpt.atck", vfs);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();

    Machine restored(ckpt->meta().machine_config);
    trace::VectorSink restored_sink;
    AtumTracer restored_tracer(restored, restored_sink,
                               ckpt->meta().tracer_config);
    ASSERT_TRUE(ckpt->RestoreMachine(restored).ok());
    ASSERT_TRUE(ckpt->RestoreTracer(restored_tracer).ok());
    restored_tracer.Attach();
    if (!restored.halted())
        restored.Run(200'000'000);
    ASSERT_TRUE(restored.halted());
    restored_tracer.Flush();

    std::vector<Record> stitched(sink.records().begin(),
                                 sink.records().begin() +
                                     static_cast<long>(records_at_ckpt));
    stitched.insert(stitched.end(), restored_sink.records().begin(),
                    restored_sink.records().end());
    const CrosscheckReport report =
        Crosscheck(stitched, restored.event_counters());
    EXPECT_TRUE(report.passed()) << report.ToString();
    EXPECT_EQ(report.lost, 0u);
}

/** Sink that refuses the first `failures` appends, then accepts. */
class FlakySink : public trace::TraceSink
{
  public:
    explicit FlakySink(uint64_t failures) : remaining_(failures) {}

    util::Status Append(const Record& record) override
    {
        if (remaining_ > 0) {
            --remaining_;
            return util::Unavailable("sink offline");
        }
        records_.push_back(record);
        return util::OkStatus();
    }

    const std::vector<Record>& records() const { return records_; }

  private:
    uint64_t remaining_;
    std::vector<Record> records_;
};

// One full drain episode fails before the sink recovers: records are
// lost, a kLoss marker lands in the stream, and the widened intervals
// must still cover the true counters.
TEST_P(CrosscheckProperty, TracerDegradeCoversCounters)
{
    Machine machine(SmallConfig());
    FlakySink sink(4);
    AtumConfig config;
    config.buffer_bytes = 4u << 10;
    config.record_opcodes = true;
    AtumTracer tracer(machine, sink, config);
    kernel::BootSystem(machine, {workloads::MakeWorkload(GetParam())});

    const core::SessionResult result =
        core::RunSupervised(machine, tracer, {.max_instructions = 200'000'000});
    ASSERT_TRUE(result.halted);
    ASSERT_GT(result.lost_records, 0u);

    const CrosscheckReport report =
        Crosscheck(sink.records(), machine.event_counters());
    EXPECT_TRUE(report.passed()) << report.ToString();
    EXPECT_EQ(report.lost, result.lost_records);
}

// Power cut: the sealed container is truncated at an arbitrary byte and
// the tolerant scanner salvages the surviving prefix. In prefix mode
// the salvage must lower-bound the true counters; treating the same
// prefix as a complete trace must FAIL (the checker notices the hole).
TEST_P(CrosscheckProperty, PowercutSalvagePrefixCoversCounters)
{
    const CaptureOutcome out = CaptureWorkload(GetParam());
    ASSERT_TRUE(out.halted);

    io::MemVfs vfs;
    util::StatusOr<std::unique_ptr<io::WritableFile>> file =
        vfs.Create("t.atf2");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(trace::WriteAtf2(**file, out.records).ok());
    std::vector<uint8_t> torn = vfs.ReadAll("t.atf2").value();
    torn.resize(torn.size() * 2 / 3);

    io::MemVfs cut(io::MemVfs::Snapshot{{{"t.atf2", torn}}});
    util::StatusOr<std::unique_ptr<io::ReadableFile>> in =
        cut.OpenRead("t.atf2");
    ASSERT_TRUE(in.ok());
    std::vector<Record> salvaged;
    const trace::ScanReport scan = trace::ScanTrace(**in, &salvaged);
    ASSERT_TRUE(scan.recognized);
    ASSERT_LT(salvaged.size(), out.records.size());

    CrosscheckOptions opts;
    opts.prefix = true;
    EXPECT_TRUE(Crosscheck(salvaged, out.ev, opts).passed());
    EXPECT_FALSE(Crosscheck(salvaged, out.ev).passed())
        << "a torn trace passed as complete";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CrosscheckProperty,
    ::testing::ValuesIn(workloads::AllWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

}  // namespace
}  // namespace atum::analysis
