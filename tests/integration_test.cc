// End-to-end tests: capture a full-system ATUM trace of a multiprogrammed
// workload and check that the paper's qualitative findings reproduce —
// the OS accounts for a substantial share of references, user-only traces
// understate miss rates, PID tags beat flush-on-switch, and tracing costs
// roughly an order of magnitude in time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/compare.h"
#include "cache/hierarchy.h"
#include "analysis/mix.h"
#include "analysis/working_set.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "core/user_tracer.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "tlbsim/tlb_sim.h"
#include "trace/container.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "util/crc32.h"
#include "workloads/workloads.h"

namespace atum {
namespace {

using cache::CacheConfig;
using cache::DriverOptions;
using core::AtumConfig;
using core::AtumTracer;
using core::RunSupervised;
using cpu::Machine;
using trace::Record;

std::unique_ptr<Machine>
MixMachine()
{
    Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 2000;
    return std::make_unique<Machine>(config);
}

/** Captures a full-system trace of the standard mix once per process. */
const std::vector<Record>&
MixTrace()
{
    static const std::vector<Record> records = [] {
        auto machine = MixMachine();
        trace::VectorSink sink;
        AtumConfig config;
        config.buffer_bytes = 128u << 10;
        AtumTracer tracer(*machine, sink, config);
        kernel::BootSystem(*machine, workloads::StandardMix(1));
        const auto result = RunSupervised(
            *machine, tracer, {.max_instructions = 100'000'000});
        EXPECT_TRUE(result.halted);
        return sink.TakeRecords();
    }();
    return records;
}

TEST(Integration, OsContributesSubstantialReferences)
{
    trace::TraceStats stats;
    for (const Record& r : MixTrace())
        stats.Accumulate(r);
    // The paper's headline observation: the OS is a big minority of all
    // references (scheduling, syscalls, paging, frame zeroing).
    EXPECT_GT(stats.KernelFraction(), 0.02);
    EXPECT_LT(stats.KernelFraction(), 0.70);
    EXPECT_GT(stats.context_switches(), 10u);
    // Data-write fraction is sane (roughly a third of data refs).
    EXPECT_GT(stats.WriteFraction(), 0.10);
    EXPECT_LT(stats.WriteFraction(), 0.70);
}

TEST(Integration, UserOnlyTraceUnderstatesMissRate)
{
    CacheConfig config{.size_bytes = 16u << 10, .block_bytes = 16,
                       .assoc = 1};
    DriverOptions full;
    full.flush_on_switch = true;
    DriverOptions user_only;
    user_only.include_kernel = false;
    user_only.only_pid = 1;
    user_only.flush_on_switch = false;

    const auto full_stats =
        analysis::SimulateCache(MixTrace(), config, full);
    const auto user_stats =
        analysis::SimulateCache(MixTrace(), config, user_only);
    ASSERT_GT(full_stats.accesses, user_stats.accesses);
    EXPECT_GT(full_stats.MissRate(), user_stats.MissRate());
}

TEST(Integration, PidTagsBeatFlushOnSwitch)
{
    CacheConfig flush_config{.size_bytes = 32u << 10, .block_bytes = 16,
                             .assoc = 2};
    CacheConfig pid_config = flush_config;
    pid_config.pid_tags = true;

    DriverOptions flush_opts;
    flush_opts.flush_on_switch = true;
    DriverOptions pid_opts;  // no flush; pid tags disambiguate

    const auto flushed =
        analysis::SimulateCache(MixTrace(), flush_config, flush_opts);
    const auto tagged =
        analysis::SimulateCache(MixTrace(), pid_config, pid_opts);
    EXPECT_GT(flushed.MissRate(), tagged.MissRate());
}

TEST(Integration, MissRateFallsWithCacheSize)
{
    CacheConfig base{.block_bytes = 16, .assoc = 1};
    DriverOptions opts;
    opts.flush_on_switch = true;
    std::vector<double> rates;
    for (uint32_t size : {2048u, 8192u, 32768u, 131072u}) {
        base.size_bytes = size;
        rates.push_back(
            analysis::SimulateCache(MixTrace(), base, opts).MissRate());
    }
    for (size_t i = 1; i < rates.size(); ++i)
        EXPECT_LE(rates[i], rates[i - 1] + 1e-9);
    EXPECT_GT(rates.front(), rates.back());
}

TEST(Integration, SystemReferencesEnlargeWorkingSet)
{
    analysis::WorkingSetAnalyzer full({10000});
    analysis::WorkingSetAnalyzer user({10000});
    for (const Record& r : MixTrace()) {
        full.Feed(r);
        if (r.IsMemory() && !r.kernel())
            user.Feed(r);
    }
    EXPECT_GT(full.AverageWorkingSet(0), user.AverageWorkingSet(0));
}

TEST(Integration, KernelAndUserFootprintsAreDisjointRegions)
{
    analysis::FootprintAnalyzer fp;
    for (const Record& r : MixTrace())
        fp.Feed(r);
    EXPECT_GT(fp.kernel_pages(), 0u);
    EXPECT_GT(fp.user_pages(), 0u);
    // Kernel page numbers can coincide numerically with user ones (PCB
    // references are physical), so the split can overlap slightly.
    EXPECT_LE(fp.total_pages(), fp.kernel_pages() + fp.user_pages());
    EXPECT_GE(fp.total_pages(),
              std::max(fp.kernel_pages(), fp.user_pages()));
    EXPECT_EQ(fp.per_pid().size(), 3u);  // three processes
}

TEST(Integration, TlbMissesRiseWithOsAndSwitches)
{
    tlbsim::TlbSimConfig with_os{.entries = 64};
    tlbsim::TlbSimConfig without_os{.entries = 64};
    without_os.include_kernel = false;
    without_os.flush_on_switch = false;

    tlbsim::TlbSim a(with_os), b(without_os);
    for (const Record& r : MixTrace()) {
        a.Feed(r);
        b.Feed(r);
    }
    EXPECT_GT(a.stats().MissRate(), b.stats().MissRate());
}

TEST(Integration, TraceFileRoundTripPreservesAnalysis)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/mix_trace.atum";
    {
        auto sink = trace::FileSink::Open(path);
        ASSERT_TRUE(sink.ok());
        for (const Record& r : MixTrace())
            ASSERT_TRUE((*sink)->Append(r).ok());
        ASSERT_TRUE((*sink)->Close().ok());
    }
    auto back = trace::LoadTrace(path);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->size(), MixTrace().size());

    CacheConfig config{.size_bytes = 8192, .block_bytes = 16, .assoc = 1};
    const auto direct = analysis::SimulateCache(MixTrace(), config, {});
    const auto reloaded = analysis::SimulateCache(*back, config, {});
    EXPECT_EQ(direct.misses, reloaded.misses);
    EXPECT_EQ(direct.accesses, reloaded.accesses);
    std::remove(path.c_str());
}

TEST(Integration, SlowdownIsOrderTenToTwenty)
{
    // With the default patch cost the dilation lands in the regime the
    // paper reports for the 8200 (~10-20x); assert a generous envelope.
    auto traced = MixMachine();
    trace::CountingSink sink;
    AtumTracer tracer(*traced, sink);
    kernel::BootSystem(*traced, {workloads::MakeHash(800)});
    const auto with = RunSupervised(
        *traced, tracer, {.max_instructions = 100'000'000});

    auto plain = MixMachine();
    kernel::BootSystem(*plain, {workloads::MakeHash(800)});
    const auto without = core::RunUntraced(*plain, 100'000'000);

    ASSERT_TRUE(with.halted);
    ASSERT_TRUE(without.halted);
    const double slowdown = static_cast<double>(with.ucycles) /
                            static_cast<double>(without.ucycles);
    EXPECT_GT(slowdown, 2.0);
    EXPECT_LT(slowdown, 100.0);
}

TEST(Integration, CapturedTraceIsDeterministic)
{
    auto capture = [] {
        auto machine = MixMachine();
        trace::VectorSink sink;
        AtumTracer tracer(*machine, sink);
        kernel::BootSystem(*machine, {workloads::MakeListProc(100, 3)});
        RunSupervised(*machine, tracer, {.max_instructions = 100'000'000});
        return sink.TakeRecords();
    };
    const auto a = capture();
    const auto b = capture();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a, b);
}


TEST(Integration, HierarchyConsistentWithSingleLevelOnRealTrace)
{
    // An L2 behind L1s can only reduce memory traffic relative to the
    // L1s alone, never increase it.
    cache::HierarchyConfig config;
    cache::CacheHierarchy h(config);
    for (const Record& r : MixTrace())
        h.Feed(r);
    EXPECT_LE(h.memory_accesses(), h.l1i().stats().misses +
                                       h.l1d().stats().misses +
                                       h.l1d().stats().writebacks);
    EXPECT_GT(h.accesses(), 0u);
    EXPECT_GT(h.Amat(), 1.0);
    EXPECT_LT(h.Amat(), 10.0);
}

/** Length and CRC32C of a whole file. */
struct FileDigest {
    uint64_t bytes = 0;
    uint32_t crc32c = 0;
    bool operator==(const FileDigest&) const = default;
};

std::ostream&
operator<<(std::ostream& os, const FileDigest& d)
{
    return os << d.bytes << " bytes, crc32c 0x" << std::hex << d.crc32c
              << std::dec;
}

/**
 * Captures matrix, grep, smc and forkwave at scale 1 into an ATF2 file
 * the way `atum-capture` does with its defaults (4 MB of memory, timer
 * 2000, 512-record chunks) and a `buffer_kb` trace buffer; returns the
 * file's digest.
 */
FileDigest
CaptureFileDigest(uint32_t buffer_kb)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/pinned_" + std::to_string(buffer_kb) +
                             ".atum";
    {
        Machine::Config machine_config;
        machine_config.mem_bytes = 4u << 20;
        machine_config.timer_reload = 2000;
        Machine machine(machine_config);
        std::vector<kernel::GuestProgram> programs;
        for (const char* name : {"matrix", "grep", "smc", "forkwave"})
            programs.push_back(workloads::MakeWorkload(name, 1));
        auto sink = trace::FileSink::Open(path);
        EXPECT_TRUE(sink.ok());
        if (!sink.ok())
            return {};
        AtumConfig config;
        config.buffer_bytes = buffer_kb << 10;
        AtumTracer tracer(machine, **sink, config);
        kernel::BootSystem(machine, programs);
        const auto result = RunSupervised(
            machine, tracer, {.max_instructions = 2'000'000'000});
        EXPECT_TRUE(result.halted);
        EXPECT_TRUE(result.drain_status.ok());
        EXPECT_TRUE((*sink)->Close().ok());
    }
    std::ifstream in(path, std::ios::binary);
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return {bytes.size(), util::Crc32c(bytes.data(), bytes.size())};
}

TEST(Integration, CaptureFileBytesArePinned)
{
    // Behaviour lock on the capture drain path: the complete ATF2 file,
    // not just its records, must stay byte-identical. Two buffer sizes
    // move every drain boundary relative to the chunk boundaries.
    EXPECT_EQ(CaptureFileDigest(256), (FileDigest{3313832, 0x0AE625F3}));
    EXPECT_EQ(CaptureFileDigest(16), (FileDigest{3313432, 0xAA66C157}));
}

}  // namespace
}  // namespace atum
