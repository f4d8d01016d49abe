// bench_experiments [NAME...]: the paper's deterministic tables and
// figures, T1-T4, T6, F1-F6 and A1-A8 of DESIGN.md's experiment index,
// one entry each in kExperiments.
//
// Runs the named experiments (a NAME is a bench name such as t4_tlb), or
// all of them, in index order. Each prints its table and a "Shape check:"
// sentence, asserts that sentence on the numbers it computed, and writes
// BENCH_<name>.json into ${ATUM_BENCH_DIR} (see common.h).
//
// A capture that several experiments read is made once per run and
// shared: the degree-3 full-system mix, its user-only twin and the
// per-workload captures. An experiment with a tracer config, boot
// options or machine of its own makes its own runs.
//
// Exit codes: 0 every shape check held, 1 a shape check failed (named on
// stderr once every report is written), 2 unknown NAME.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/compare.h"
#include "analysis/stack_distance.h"
#include "analysis/working_set.h"
#include "cache/cache.h"
#include "cache/trace_driver.h"
#include "cache/write_buffer.h"
#include "common.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "core/user_tracer.h"
#include "isa/isa.h"
#include "kernel/boot.h"
#include "kernel/layout.h"
#include "replay/sweep.h"
#include "trace/compress.h"
#include "trace/ref_filter.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "util/logging.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace atum::bench {
namespace {

/** A guest mix by what builds it: these workloads, each at `scale`. */
struct Mix {
    std::vector<std::string> names;
    uint32_t scale = 1;

    auto operator<=>(const Mix&) const = default;

    std::vector<kernel::GuestProgram> Programs() const
    {
        std::vector<kernel::GuestProgram> programs;
        for (const std::string& name : names)
            programs.push_back(workloads::MakeWorkload(name, scale));
        return programs;
    }
};

/** The multiprogrammed mix of `degree` processes: the workload table
 *  round-robin at scale 2, which gives each workload a multi-page
 *  footprint so cache curves have texture beyond tiny sizes. */
Mix
MixOfDegree(uint32_t degree)
{
    const std::vector<std::string>& all = workloads::AllWorkloadNames();
    Mix mix{.names = {}, .scale = 2};
    for (uint32_t i = 0; i < degree; ++i)
        mix.names.push_back(all[i % all.size()]);
    return mix;
}

/** Result of one capture. */
struct Capture {
    std::vector<trace::Record> records;
    core::SessionResult session;
    uint32_t page_faults = 0;
    uint32_t context_switches = 0;
};

/** Boots `programs`, traces the whole run with ATUM, returns the trace. */
Capture
CaptureFullSystem(std::vector<kernel::GuestProgram> programs,
                  const core::AtumConfig& tracer_config = {})
{
    cpu::Machine machine(StandardMachineConfig());
    trace::VectorSink sink;
    core::AtumTracer tracer(machine, sink, tracer_config);
    kernel::BootInfo info = kernel::BootSystem(machine, std::move(programs));
    Capture capture;
    capture.session = core::RunSupervised(
        machine, tracer, {.max_instructions = 400'000'000});
    if (!capture.session.halted)
        Fatal("capture did not run to completion");
    capture.records = sink.TakeRecords();
    capture.page_faults =
        info.ReadKdata(machine, kernel::KdataOffsets::kPfCount);
    capture.context_switches =
        info.ReadKdata(machine, kernel::KdataOffsets::kCsCount);
    return capture;
}

/** Same run, but through the pre-ATUM user-only probe of process 1. */
Capture
CaptureUserOnly(std::vector<kernel::GuestProgram> programs)
{
    cpu::Machine machine(StandardMachineConfig());
    trace::VectorSink sink;
    core::UserOnlyTracer tracer(machine, sink, {.target_pid = 1});
    kernel::BootSystem(machine, std::move(programs));
    Capture capture;
    capture.session = core::RunBaseline(machine, tracer, 400'000'000);
    if (!capture.session.halted)
        Fatal("capture did not run to completion");
    capture.records = sink.TakeRecords();
    return capture;
}

/** The default-config capture of `mix` (ATUM's full-system trace, or
 *  with `user_only` the pre-ATUM probe's), made on first use and kept
 *  for the rest of the run. */
const Capture&
SharedCapture(const Mix& mix, bool user_only = false)
{
    static std::map<std::pair<Mix, bool>, Capture> memo;
    auto [it, fresh] = memo.try_emplace({mix, user_only});
    if (fresh) {
        it->second = user_only ? CaptureUserOnly(mix.Programs())
                               : CaptureFullSystem(mix.Programs());
    }
    return it->second;
}

/** `mix` traced under `config`: the shared capture when `config` is the
 *  default, else one made into `own`. */
const Capture&
CaptureUnder(const Mix& mix, const core::AtumConfig& config, Capture& own)
{
    if (config == core::AtumConfig{})
        return SharedCapture(mix);
    own = CaptureFullSystem(mix.Programs(), config);
    return own;
}

constexpr cache::DriverOptions kFlush{.flush_on_switch = true};

/** Prints `table` and the experiment's shape-check sentence; returns
 *  whether the check `holds`. */
bool
Shape(const Table& table, bool holds, const char* shape)
{
    std::printf("%s\nShape check: %s", table.ToString().c_str(), shape);
    return holds;
}

/**
 * T1 (reconstructed): per-workload trace characteristics.
 *
 * The ATUM paper tabulated, for each captured workload, the trace length
 * and the composition of references (instruction stream vs data reads vs
 * writes, and how much of everything belonged to the operating system).
 * This regenerates that table for every workload alone and for the
 * degree-3 multiprogrammed mix.
 *
 * Paper shape to reproduce: the OS contributes a large minority of all
 * references, and writes are roughly a third of data references.
 */
bool
T1(BenchReport& report)
{
    std::printf("T1: trace characteristics (full-system ATUM capture)\n\n");
    Table table({"workload", "instrs", "mem-refs", "ifetch%", "read%",
                 "write%", "pte%", "os%", "ctxsw", "pgflts"});
    bool holds = true;
    // Returns the row's OS share (%).
    const auto add_row = [&](const std::string& name, const Capture& capture) {
        trace::TraceStats stats;
        for (const auto& r : capture.records)
            stats.Accumulate(r);

        const double mem = static_cast<double>(stats.mem_refs());
        const double os = 100.0 * stats.KernelFraction();
        const uint64_t reads = stats.CountOf(trace::RecordType::kRead);
        const uint64_t writes = stats.CountOf(trace::RecordType::kWrite);
        // The OS is >= 4 % of every trace; writes >= 15 % of data refs.
        holds &= os >= 4.0 && 100 * writes >= 15 * (reads + writes);
        report.Add("mem_refs", mem, "records", {{"workload", name}});
        report.Add("os_share", os, "%", {{"workload", name}});
        report.Add("write_share", 100.0 * writes / mem, "%",
                   {{"workload", name}});
        const auto pct = [&](uint64_t n) {
            return Table::Fmt(100.0 * n / mem, 1);
        };
        table.AddRow({
            name,
            std::to_string(capture.session.instructions),
            std::to_string(stats.mem_refs()),
            pct(stats.CountOf(trace::RecordType::kIFetch)),
            pct(reads),
            pct(writes),
            pct(stats.CountOf(trace::RecordType::kPte)),
            Table::Fmt(os, 1),
            std::to_string(capture.context_switches),
            std::to_string(capture.page_faults),
        });
        return os;
    };

    for (const std::string& name : workloads::AllWorkloadNames())
        add_row(name, SharedCapture({{name}, 1}));
    const double mix_os = add_row("mix-3", SharedCapture(MixOfDegree(3)));

    return Shape(table, holds && mix_os < 50.0,
                 "OS share is a substantial minority and\n"
                 "writes are a sizeable fraction of data references.\n");
}

/**
 * T2 (reconstructed): tracing slowdown.
 *
 * ATUM slowed the VAX 8200 by roughly 10-20x: every memory reference ran
 * extra patch micro-instructions. This measures the dilation of guest
 * micro-cycles as a function of the patch cost per record, plus the
 * buffer-extraction pauses.
 *
 * Paper shape to reproduce: around an order of magnitude of slowdown at
 * realistic patch costs, scaling linearly with the per-record cost.
 */
bool
T2(BenchReport& report)
{
    const Mix mix = MixOfDegree(2);

    // Baseline: the same run untraced.
    cpu::Machine plain(StandardMachineConfig());
    kernel::BootSystem(plain, mix.Programs());
    const auto base = core::RunUntraced(plain, 400'000'000);
    if (!base.halted)
        Fatal("baseline run did not halt");

    std::printf("T2: microcode tracing slowdown (untraced = %llu ucycles, "
                "%llu instructions)\n\n",
                static_cast<unsigned long long>(base.ucycles),
                static_cast<unsigned long long>(base.instructions));

    Table table({"cost/record(uc)", "records", "traced-ucycles", "slowdown",
                 "overhead%"});
    const std::vector<uint32_t> costs = {1, 8, 16, 32, 64, 128};
    std::vector<uint64_t> ucycles;
    bool holds = true;
    for (uint32_t cost : costs) {
        core::AtumConfig config;
        config.cost_per_record = cost;
        Capture own;
        const Capture& cap = CaptureUnder(mix, config, own);
        if (cap.session.instructions != base.instructions)
            Fatal("tracing perturbed the instruction stream");
        const double slowdown = static_cast<double>(cap.session.ucycles) /
                                static_cast<double>(base.ucycles);
        ucycles.push_back(cap.session.ucycles);
        // The ~10-20x regime at 64-128 ucycles/record.
        holds &= (cost != 64 || slowdown >= 10.0) &&
                 (cost != 128 || slowdown <= 25.0);
        report.Add("slowdown", slowdown, "x",
                   {{"cost_per_record", std::to_string(cost)}});
        table.AddRow({
            std::to_string(cost),
            std::to_string(cap.session.records),
            std::to_string(cap.session.ucycles),
            Table::Fmt(slowdown, 2),
            Table::Fmt(100.0 *
                           static_cast<double>(cap.session.overhead_ucycles) /
                           static_cast<double>(cap.session.ucycles),
                       1),
        });
    }
    // Linear: every step adds the same ucycles per unit of patch cost.
    for (size_t i = 2; i < costs.size(); ++i)
        holds &= (ucycles[i] - ucycles[i - 1]) * (costs[1] - costs[0]) ==
                 (ucycles[1] - ucycles[0]) * (costs[i] - costs[i - 1]);
    return Shape(table, holds,
                 "slowdown grows linearly with patch cost and\n"
                 "reaches the paper's ~10-20x regime at 64-128 ucycles/record\n"
                 "(the library default is 64).\n");
}

/**
 * T3 (reconstructed): trace-buffer sizing and extraction.
 *
 * ATUM wrote records into a reserved region of physical memory (~0.5 MB
 * on the 8200) and froze the machine to extract it when full. This sweeps
 * the reserved-buffer size and reports fills, records per fill, and the
 * share of run time spent paused for extraction.
 *
 * Paper shape to reproduce: capture proceeds in buffer-sized chunks and
 * the relative extraction overhead shrinks as the buffer grows.
 */
bool
T3(BenchReport& report)
{
    std::printf("T3: reserved trace buffer behaviour (degree-2 mix)\n\n");
    Table table({"buffer", "records", "fills", "records/fill",
                 "pause-ucycles", "pause%"});

    bool holds = true;
    double first_fill_kib = 0, pause_share = 0;
    for (uint32_t kib : {16u, 64u, 256u, 1024u}) {
        core::AtumConfig config;
        config.buffer_bytes = kib << 10;
        Capture own;
        const Capture& cap = CaptureUnder(MixOfDegree(2), config, own);
        const uint64_t pauses =
            cap.session.buffer_fills * config.drain_pause_ucycles;
        pause_share = 100.0 * static_cast<double>(pauses) /
                      static_cast<double>(cap.session.ucycles);
        // Inverse scaling: fills x buffer size stays within 15 %.
        const double fill_kib =
            static_cast<double>(cap.session.buffer_fills) * kib;
        first_fill_kib = first_fill_kib > 0 ? first_fill_kib : fill_kib;
        holds &= std::abs(fill_kib / first_fill_kib - 1) <= 0.15;
        report.Add("buffer_fills",
                   static_cast<double>(cap.session.buffer_fills), "fills",
                   {{"buffer_kb", std::to_string(kib)}});
        report.Add("pause_share", pause_share, "%",
                   {{"buffer_kb", std::to_string(kib)}});
        table.AddRow({
            std::to_string(kib) + "K",
            std::to_string(cap.session.records),
            std::to_string(cap.session.buffer_fills),
            std::to_string(cap.session.buffer_fills == 0
                               ? cap.session.records
                               : cap.session.records /
                                     cap.session.buffer_fills),
            std::to_string(pauses),
            Table::Fmt(pause_share, 2),
        });
    }
    return Shape(table, holds && pause_share < 2.0,
                 "fills scale inversely with buffer size; the\n"
                 "extraction pause share becomes negligible at ~0.5-1 MB,\n"
                 "matching the paper's choice of reserved region.\n");
}

/**
 * F1 (reconstructed): cache miss rate vs cache size, full-system ATUM
 * trace vs the pre-ATUM user-only trace.
 *
 * This is the paper's headline comparison: caches sized on user-only
 * traces looked far better than they behaved under a real
 * multiprogrammed OS. Direct-mapped, 16-byte blocks, flush-on-switch (no
 * PID tags, the common design of the era).
 *
 * Paper shape to reproduce: the full-system miss rate is markedly higher,
 * and the gap widens with cache size (user-only curves keep improving
 * while system effects put a floor under the real curve). Here the ratio
 * rises from 2K to 16K and then holds.
 */
bool
F1(BenchReport& report)
{
    const Capture& full = SharedCapture(MixOfDegree(3));
    const Capture& user = SharedCapture(MixOfDegree(3), true);

    cache::CacheConfig base{.block_bytes = 16, .assoc = 1};
    // All sizes (1K-512K) of one trace replay concurrently; results stay
    // in input order. The user-only trace is one process: no switches.
    std::vector<uint32_t> sizes;
    std::vector<replay::SweepConfig> full_jobs, user_jobs;
    for (uint32_t size = 1u << 10; size <= 512u << 10; size *= 2) {
        sizes.push_back(size);
        base.size_bytes = size;
        full_jobs.push_back(replay::MakeCacheJob(base, kFlush));
        user_jobs.push_back(replay::MakeCacheJob(base));
    }
    const auto full_points = replay::SweepRunner().Run(full.records, full_jobs);
    const auto user_points = replay::SweepRunner().Run(user.records, user_jobs);

    std::printf("F1: miss rate vs cache size (direct-mapped, 16B blocks)\n");
    std::printf("full-system trace: %zu refs; user-only trace: %zu refs\n\n",
                full.records.size(), user.records.size());
    Table table({"cache", "full-system%", "user-only%", "ratio"});
    bool holds = true;
    double prev_ratio = 0;
    for (size_t i = 0; i < sizes.size(); ++i) {
        const double f = full_points[i].MissRate();
        const double u = user_points[i].MissRate();
        const std::string size_kb = std::to_string(sizes[i] / 1024);
        holds &= u > 0 && f > u;
        if (sizes[i] > (2u << 10) && sizes[i] <= (16u << 10))
            holds &= f / u > prev_ratio;
        prev_ratio = u > 0 ? f / u : 0;
        report.Add("miss_rate", 100.0 * f, "%",
                   {{"size_kb", size_kb}, {"trace", "full-system"}});
        report.Add("miss_rate", 100.0 * u, "%",
                   {{"size_kb", size_kb}, {"trace", "user-only"}});
        table.AddRow({
            size_kb + "K",
            Table::Fmt(100.0 * f, 2),
            Table::Fmt(100.0 * u, 2),
            u > 0 ? Table::Fmt(f / u, 2) : "inf",
        });
    }
    return Shape(table, holds,
                 "full-system misses exceed user-only at every\n"
                 "size, and the ratio rises with cache size from 2K to 16K.\n");
}

/**
 * F2 (reconstructed): miss rate vs block size at a fixed 64 KiB
 * direct-mapped cache, full-system trace.
 *
 * Paper shape to reproduce: growing blocks first exploits spatial
 * locality (miss rate falls), with diminishing returns at large blocks as
 * fewer, wider lines start thrashing — the classic curve.
 */
bool
F2(BenchReport& report)
{
    const Capture& full = SharedCapture(MixOfDegree(3));
    const std::vector<uint32_t> blocks = {4, 8, 16, 32, 64, 128};
    std::vector<replay::SweepConfig> jobs;
    for (uint32_t block : blocks) {
        jobs.push_back(replay::MakeCacheJob(
            {.size_bytes = 64u << 10, .block_bytes = block, .assoc = 1},
            kFlush));
    }
    const std::vector<replay::SweepResult> results =
        replay::SweepRunner().Run(full.records, jobs);

    std::printf("F2: miss rate vs block size (64K direct-mapped, "
                "full-system trace)\n\n");
    Table table({"block", "miss%", "misses", "traffic(B/ref)"});
    bool holds = true;
    double prev_rate = 0, prev_traffic = 0, prev_gain = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
        const cache::CacheStats& stats = results[i].cache_stats;
        // Memory traffic: every miss moves a block (plus writebacks).
        const double traffic =
            static_cast<double>((stats.misses + stats.writebacks)) *
            blocks[i] / static_cast<double>(stats.accesses);
        // Diminishing returns: each doubling gains less than the last.
        const double gain = prev_rate - stats.MissRate();
        holds &= i == 0 || (gain > 0 && traffic > prev_traffic &&
                            (i == 1 || gain < prev_gain));
        prev_rate = stats.MissRate();
        prev_traffic = traffic;
        prev_gain = gain;
        report.Add("miss_rate", 100.0 * stats.MissRate(), "%",
                   {{"block_bytes", std::to_string(blocks[i])}});
        report.Add("traffic", traffic, "B/ref",
                   {{"block_bytes", std::to_string(blocks[i])}});
        table.AddRow({
            std::to_string(blocks[i]) + "B",
            Table::Fmt(100.0 * stats.MissRate(), 2),
            std::to_string(stats.misses),
            Table::Fmt(traffic, 2),
        });
    }
    return Shape(table, holds,
                 "miss rate falls with block size (diminishing\n"
                 "returns), while bus traffic per reference keeps rising.\n");
}

/**
 * F3 (reconstructed): miss rate vs associativity at a fixed 8 KiB
 * PID-tagged cache with 16-byte blocks, full-system trace. The cache is
 * sized near the mix's footprint, so conflict misses are visible instead
 * of being drowned by switch-flush cold misses.
 *
 * Paper shape to reproduce: associativity helps, with the biggest step
 * from direct-mapped to 2-way; beyond 4-8 ways the returns vanish.
 */
bool
F3(BenchReport& report)
{
    const Capture& full = SharedCapture(MixOfDegree(3));
    cache::CacheConfig base{.size_bytes = 8u << 10, .block_bytes = 16,
                            .assoc = 1, .pid_tags = true};

    // The associativity ladder plus the LRU-vs-random side question all
    // replay concurrently as one sweep.
    const std::vector<uint32_t> assocs = {1, 2, 4, 8};
    std::vector<replay::SweepConfig> jobs;
    for (uint32_t assoc : assocs) {
        base.assoc = assoc;
        jobs.push_back(replay::MakeCacheJob(base));
    }
    cache::CacheConfig random_cfg = base;
    random_cfg.assoc = 4;
    random_cfg.replacement = cache::Replacement::kRandom;
    jobs.push_back(replay::MakeCacheJob(random_cfg));
    const auto points = replay::SweepRunner().Run(full.records, jobs);

    std::printf("F3: miss rate vs associativity (8K PID-tagged, 16B blocks, "
                "full-system trace)\n\n");
    Table table({"assoc", "miss%", "improvement-vs-prev%"});
    bool holds = true;
    double prev = 0, first_gain = 0;
    for (size_t i = 0; i < assocs.size(); ++i) {
        const double m = points[i].MissRate();
        const double gain = i == 0 || prev <= 0 ? 0.0
                                                : 100.0 * (prev - m) / prev;
        if (i == 1)
            first_gain = gain;
        holds &= (i < 2 || gain < first_gain);
        report.Add("miss_rate", 100.0 * m, "%",
                   {{"assoc", std::to_string(assocs[i])},
                    {"replacement", "lru"}});
        table.AddRow({
            std::to_string(assocs[i]) + "-way",
            Table::Fmt(100.0 * m, 3),
            i == 0 ? "-" : Table::Fmt(gain, 1),
        });
        prev = m;
    }

    std::printf("%s\n", table.ToString().c_str());
    std::printf("4-way random replacement: %.3f%% (vs LRU %.3f%%)\n\n",
                100.0 * points.back().MissRate(),
                100.0 * points[2].MissRate());
    report.Add("miss_rate", 100.0 * points.back().MissRate(), "%",
               {{"assoc", "4"}, {"replacement", "random"}});
    std::printf("Shape check: largest gain 1-way -> 2-way; LRU edges out\n"
                "random at equal geometry.\n");
    return holds && points[2].MissRate() < points.back().MissRate();
}

/**
 * F4 (reconstructed): multiprogramming effects on the cache.
 *
 * ATUM's full-system traces let the field quantify, for the first time
 * with real workloads, what context switching does to caches: a cache
 * without process tags must be flushed on every switch, and the damage
 * grows with the multiprogramming degree and the cache size.
 *
 * Paper shape to reproduce: miss rate rises with degree; flush-on-switch
 * is consistently worse than PID-tagged caches; the effect is largest for
 * big caches (whose contents a flush wipes out wholesale). Here the flush
 * rate does not rise with degree (3.910/3.767/3.929 % at 16K), so only
 * the rest is asserted, with the PID-tagged rate highest at degree 4.
 */
bool
F4(BenchReport& report)
{
    std::printf("F4: multiprogramming degree vs miss rate "
                "(2-way, 16B blocks)\n\n");
    Table table({"degree", "cache", "flush-on-switch%", "pid-tagged%",
                 "flush-penalty%"});

    const std::vector<uint32_t> sizes_kb = {16, 64, 256};
    bool holds = true;
    std::vector<double> top_pid(sizes_kb.size(), 0.0);  // per size
    for (uint32_t degree : {1u, 2u, 4u}) {
        const Capture& cap = SharedCapture(MixOfDegree(degree));
        std::vector<replay::SweepConfig> jobs;
        for (uint32_t kib : sizes_kb) {
            const cache::CacheConfig flush_cfg{
                .size_bytes = kib << 10, .block_bytes = 16, .assoc = 2};
            cache::CacheConfig pid_cfg = flush_cfg;
            pid_cfg.pid_tags = true;
            jobs.push_back(replay::MakeCacheJob(flush_cfg, kFlush));
            jobs.push_back(replay::MakeCacheJob(pid_cfg));
        }
        const auto results = replay::SweepRunner().Run(cap.records, jobs);
        const std::string deg = std::to_string(degree);
        double prev_penalty = 0;
        for (size_t s = 0; s < sizes_kb.size(); ++s) {
            const double f = results[2 * s].MissRate();
            const double p = results[2 * s + 1].MissRate();
            const double penalty = p > 0 ? 100.0 * (f - p) / p : 0.0;
            // The flush penalty grows with size; degree 4's PID-tagged
            // rate tops the lower degrees'.
            holds &= f > p && penalty > prev_penalty &&
                     (degree < 4 || p > top_pid[s]);
            prev_penalty = penalty;
            top_pid[s] = std::max(top_pid[s], p);
            const std::string kib = std::to_string(sizes_kb[s]);
            report.Add("miss_rate", 100.0 * f, "%",
                       {{"degree", deg}, {"size_kb", kib},
                        {"mode", "flush-on-switch"}});
            report.Add("miss_rate", 100.0 * p, "%",
                       {{"degree", deg}, {"size_kb", kib},
                        {"mode", "pid-tagged"}});
            table.AddRow({
                deg,
                kib + "K",
                Table::Fmt(100.0 * f, 3),
                Table::Fmt(100.0 * p, 3),
                Table::Fmt(penalty, 1),
            });
        }
    }
    return Shape(table, holds,
                 "PID tags beat flushing at every point, most\n"
                 "dramatically at large caches; degree 4's PID-tagged rate\n"
                 "is the highest at every size.\n");
}

/**
 * F5 (reconstructed): working-set size vs window, full-system vs
 * user-only views of the same execution.
 *
 * Paper shape to reproduce: including operating-system references (and
 * the other processes of the mix) substantially enlarges the working set
 * at every window size — memory sizing studies based on user-only traces
 * understated real requirements.
 */
bool
F5(BenchReport& report)
{
    const Capture& cap = SharedCapture(MixOfDegree(3));

    const std::vector<uint64_t> windows = {100,    300,    1000,  3000,
                                           10000,  30000,  100000};
    analysis::WorkingSetAnalyzer full(windows);
    analysis::WorkingSetAnalyzer user_all(windows);  // all user processes
    analysis::WorkingSetAnalyzer kernel_only(windows);
    trace::RefFilter refs;
    for (const trace::Record& r : cap.records) {
        full.Feed(r);
        if (refs.Classify(r) != trace::RefFilter::kRef)
            continue;
        if (r.kernel())
            kernel_only.Feed(r);
        else
            user_all.Feed(r);
    }

    std::printf("F5: average working-set size (512B pages) vs window\n\n");
    Table table({"window(refs)", "full-system", "user-only", "kernel-only",
                 "full/user"});
    bool holds = true;
    for (size_t i = 0; i < windows.size(); ++i) {
        const double f = full.AverageWorkingSet(i);
        const double u = user_all.AverageWorkingSet(i);
        holds &= f > u;
        const std::string window = std::to_string(windows[i]);
        report.Add("working_set", f, "pages",
                   {{"window", window}, {"view", "full-system"}});
        report.Add("working_set", u, "pages",
                   {{"window", window}, {"view", "user-only"}});
        table.AddRow({
            window,
            Table::Fmt(f, 1),
            Table::Fmt(u, 1),
            Table::Fmt(kernel_only.AverageWorkingSet(i), 1),
            Table::Fmt(u > 0 ? f / u : 0.0, 2),
        });
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("distinct pages: full=%llu user=%llu kernel=%llu\n\n",
                static_cast<unsigned long long>(full.distinct_pages()),
                static_cast<unsigned long long>(user_all.distinct_pages()),
                static_cast<unsigned long long>(kernel_only.distinct_pages()));
    std::printf("Shape check: the full-system working set exceeds the\n"
                "user-only one at every window.\n");
    return holds;
}

/**
 * T4 (reconstructed): translation-buffer sizing with and without
 * operating-system effects.
 *
 * Paper shape to reproduce: OS references plus the VAX-style
 * flush-on-switch discipline raise TLB miss rates substantially; sizing a
 * TB from user-only traces looks deceptively rosy.
 */
bool
T4(BenchReport& report)
{
    const Capture& cap = SharedCapture(MixOfDegree(3));

    // Per size: full+flush, full without flushes, user-only.
    const std::vector<uint32_t> sizes = {8, 16, 32, 64, 128, 256};
    std::vector<replay::SweepConfig> jobs;
    for (uint32_t entries : sizes) {
        jobs.push_back(replay::MakeTlbJob({.entries = entries}));
        jobs.push_back(replay::MakeTlbJob(
            {.entries = entries, .flush_on_switch = false}));
        jobs.push_back(replay::MakeTlbJob({.entries = entries,
                                           .include_kernel = false,
                                           .flush_on_switch = false}));
    }
    const auto results = replay::SweepRunner().Run(cap.records, jobs);

    std::printf("T4: TLB miss rate (fully associative, LRU) vs entries\n\n");
    Table table({"entries", "full+flush%", "full-noflush%", "user-only%"});
    bool holds = true;
    for (size_t i = 0; i < sizes.size(); ++i) {
        const double full = 100.0 * results[3 * i].MissRate();
        const double noflush = 100.0 * results[3 * i + 1].MissRate();
        const double user = 100.0 * results[3 * i + 2].MissRate();
        holds &= full > user;
        // The flush floor: at the largest TB, flushing is >= 10x the rest.
        if (i + 1 == sizes.size())
            holds &= full >= 10.0 * noflush;
        const std::string entries = std::to_string(sizes[i]);
        report.Add("miss_rate", full, "%",
                   {{"entries", entries}, {"mode", "full+flush"}});
        report.Add("miss_rate", user, "%",
                   {{"entries", entries}, {"mode", "user-only"}});
        table.AddRow({
            entries,
            Table::Fmt(full, 3),
            Table::Fmt(noflush, 3),
            Table::Fmt(user, 3),
        });
    }
    return Shape(table, holds,
                 "full-system misses exceed user-only at every\n"
                 "size; switch flushes put a floor under large TLBs.\n");
}

/**
 * T6 (reconstructed): dynamic opcode frequencies.
 *
 * ATUM-class traces (with opcode markers) let architects measure which
 * CISC instructions software actually executed — numbers that fed
 * directly into the RISC debate. This captures the standard mix with
 * kOpcode records enabled and tabulates the dynamic instruction mix,
 * split kernel vs user.
 */
bool
T6(BenchReport& report)
{
    core::AtumConfig config;
    config.record_opcodes = true;
    const Capture cap = CaptureFullSystem(MixOfDegree(3).Programs(), config);

    std::map<uint8_t, uint64_t> user_counts, kernel_counts;
    uint64_t total = 0;
    for (const trace::Record& r : cap.records) {
        if (r.type != trace::RecordType::kOpcode)
            continue;
        ++total;
        auto& counts = r.kernel() ? kernel_counts : user_counts;
        ++counts[static_cast<uint8_t>(r.info)];
    }

    std::map<uint8_t, uint64_t> combined = user_counts;
    for (const auto& [op, n] : kernel_counts)
        combined[op] += n;
    std::vector<std::pair<uint8_t, uint64_t>> ranked(combined.begin(),
                                                     combined.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });

    std::printf("T6: dynamic opcode frequencies (%llu instructions, "
                "degree-3 mix)\n\n",
                static_cast<unsigned long long>(total));
    Table table({"rank", "opcode", "total%", "user%", "kernel%"});
    double cumulative = 0, top5 = 0;
    for (size_t i = 0; i < ranked.size() && i < 15; ++i) {
        const auto [op, n] = ranked[i];
        const double pct = 100.0 * static_cast<double>(n) /
                           static_cast<double>(total);
        cumulative += pct;
        if (i < 5) {
            top5 += pct;
            report.Add("opcode_share", pct, "%",
                       {{"opcode",
                         isa::MnemonicOf(static_cast<isa::Opcode>(op))},
                        {"rank", std::to_string(i + 1)}});
        }
        table.AddRow({
            std::to_string(i + 1),
            isa::MnemonicOf(static_cast<isa::Opcode>(op)),
            Table::Fmt(pct, 2),
            Table::Fmt(100.0 * static_cast<double>(user_counts[op]) /
                           static_cast<double>(total),
                       2),
            Table::Fmt(100.0 * static_cast<double>(kernel_counts[op]) /
                           static_cast<double>(total),
                       2),
        });
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("top-15 cover %.1f%% of dynamic instructions; %zu distinct "
                "opcodes executed\n\n",
                cumulative, combined.size());
    report.Add("top15_coverage", cumulative, "%");
    report.Add("distinct_opcodes", static_cast<double>(combined.size()),
               "opcodes");
    std::printf("Shape check: a handful of simple moves/branches dominate\n"
                "the dynamic mix of a CISC — the classic measurement that\n"
                "fed the RISC argument.\n");
    // A handful: the top five opcodes are most of the instructions.
    return top5 > 50.0;
}

/**
 * F6 (extension): memory pressure and the pager in the traces.
 *
 * ATUM's full-system traces captured VMS's paging activity; this
 * recreates that class of study: shrink the frame pool under a fixed
 * workload and watch fault rate, swap traffic, and the OS share of all
 * memory references climb — the thrashing curve.
 */
bool
F6(BenchReport& report)
{
    std::printf("F6: frame-pool size vs paging activity (sort workload)\n\n");
    Table table({"pool(frames)", "pgfaults", "swap-outs", "swap-ins",
                 "os-refs%", "instr"});

    bool holds = true;
    uint32_t prev_faults = 0, prev_swaps = 0;
    double prev_os = 0;
    std::pair<uint32_t, double> unlimited;  // faults and OS share
    for (uint32_t pool : {0u, 48u, 32u, 24u, 16u, 12u}) {
        cpu::Machine machine(StandardMachineConfig());
        trace::VectorSink sink;
        core::AtumTracer tracer(machine, sink);
        kernel::BootOptions options;
        options.swap_frames = 512;
        options.max_pool_frames = pool;
        kernel::BootInfo info = kernel::BootSystem(
            machine, {workloads::MakeSort(6000)}, options);
        const auto result = core::RunSupervised(
            machine, tracer, {.max_instructions = 400'000'000});
        if (!result.halted)
            Fatal("paging run did not complete at pool=", pool);

        trace::TraceStats stats;
        for (const auto& r : sink.records())
            stats.Accumulate(r);

        const uint32_t faults =
            info.ReadKdata(machine, kernel::KdataOffsets::kPfCount);
        const uint32_t swap_outs =
            info.ReadKdata(machine, kernel::KdataOffsets::kSwapOuts);
        const uint32_t swap_ins =
            info.ReadKdata(machine, kernel::KdataOffsets::kSwapIns);
        const double os = 100.0 * stats.KernelFraction();
        // Shrinking the pool never lowers the faults, swaps or OS share.
        holds &= faults >= prev_faults &&
                 swap_outs + swap_ins >= prev_swaps && os >= prev_os;
        prev_faults = faults;
        prev_swaps = swap_outs + swap_ins;
        prev_os = os;
        if (pool == 0)
            unlimited = {faults, os};

        const std::string pool_key =
            pool == 0 ? "unlimited" : std::to_string(pool);
        report.Add("page_faults", static_cast<double>(faults), "faults",
                   {{"pool_frames", pool_key}});
        report.Add("os_share", os, "%", {{"pool_frames", pool_key}});
        table.AddRow({
            pool_key,
            std::to_string(faults),
            std::to_string(swap_outs),
            std::to_string(swap_ins),
            Table::Fmt(os, 1),
            std::to_string(result.instructions),
        });
    }
    // Multiplies: the smallest pool faults >= 10x as often as unlimited.
    return Shape(table,
                 holds && prev_faults >= 10 * unlimited.first &&
                     prev_os > unlimited.second,
                 "shrinking memory multiplies page faults and\n"
                 "swap traffic, and the OS share of references climbs —\n"
                 "thrashing, visible only in a full-system trace.\n");
}

/**
 * A1 (ablation): compact trace encoding.
 *
 * The paper's records had to be small (a reserved half-megabyte buffer
 * fills in tens of milliseconds of traced execution). This measures the
 * delta/varint codec against the fixed 8-byte record on real full-system
 * traces, per workload, and verifies losslessness.
 */
bool
A1(BenchReport& report)
{
    std::printf("A1: compact trace encoding vs fixed 8-byte records\n\n");
    Table table({"workload", "records", "raw-KB", "packed-KB",
                 "bytes/record", "ratio"});

    bool holds = true;
    for (const std::string& name : workloads::AllWorkloadNames()) {
        const Capture& cap = SharedCapture({{name}, 1});
        const auto bytes = trace::CompressTrace(cap.records);
        const util::StatusOr<std::vector<trace::Record>> back =
            trace::DecompressTrace(bytes);
        if (!back.ok())
            Fatal("decompressing ", name, ": ", back.status().ToString());
        if (back.value() != cap.records)
            Fatal("compression round-trip failed for ", name);
        const double raw = static_cast<double>(cap.records.size()) *
                           trace::kRecordBytes;
        const double ratio = static_cast<double>(bytes.size()) / raw;
        const double per_record = static_cast<double>(bytes.size()) /
                                  static_cast<double>(cap.records.size());
        holds &= ratio < 0.5;
        report.Add("bytes_per_record", per_record, "B", {{"workload", name}});
        report.Add("compression_ratio", ratio, "ratio",
                   {{"workload", name}});
        table.AddRow({
            name,
            std::to_string(cap.records.size()),
            Table::Fmt(raw / 1024.0, 0),
            Table::Fmt(static_cast<double>(bytes.size()) / 1024.0, 0),
            Table::Fmt(per_record, 2),
            Table::Fmt(ratio, 3),
        });
    }
    return Shape(table, holds,
                 "full-system traces pack to a fraction of the\n"
                 "raw size (istream deltas dominate), losslessly.\n");
}

/**
 * A2 (ablation): one-pass stack-distance analysis vs direct simulation.
 *
 * Mattson's algorithm gives the exact fully-associative LRU miss rate at
 * every capacity in a single pass over the trace. This (a) prints the
 * full-system vs user-only miss-rate curves it produces and (b)
 * cross-checks one point against the direct cache model, which must
 * match exactly.
 */
bool
A2(BenchReport& report)
{
    constexpr unsigned kBlockShift = 4;  // 16-byte blocks
    const Capture& cap = SharedCapture(MixOfDegree(3));

    analysis::StackDistanceAnalyzer full(kBlockShift);
    analysis::StackDistanceAnalyzer user(kBlockShift);
    trace::RefFilter user_refs({.include_kernel = false});
    for (const trace::Record& r : cap.records) {
        full.Feed(r);
        if (user_refs.Classify(r) == trace::RefFilter::kRef)
            user.Feed(r);
    }

    std::printf("A2: fully-associative LRU miss rate from one-pass stack\n"
                "distances (16B blocks, no switch flushing)\n\n");
    Table table({"capacity", "full-system%", "user-only%"});
    for (uint32_t kib : {1u, 4u, 16u, 64u, 256u}) {
        const uint64_t blocks = (kib << 10) >> kBlockShift;
        report.Add("miss_rate", 100.0 * full.MissRateForCapacity(blocks),
                   "%", {{"capacity_kb", std::to_string(kib)},
                         {"view", "full-system"}});
        table.AddRow({
            std::to_string(kib) + "K",
            Table::Fmt(100.0 * full.MissRateForCapacity(blocks), 3),
            Table::Fmt(100.0 * user.MissRateForCapacity(blocks), 3),
        });
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("distinct blocks: full=%llu user=%llu; cold misses: "
                "full=%llu user=%llu\n\n",
                static_cast<unsigned long long>(full.distinct_blocks()),
                static_cast<unsigned long long>(user.distinct_blocks()),
                static_cast<unsigned long long>(full.cold_misses()),
                static_cast<unsigned long long>(user.cold_misses()));

    // Cross-check one capacity against the direct simulator.
    const uint64_t one_pass =
        full.MissesForCapacity((16u << 10) >> kBlockShift);
    const uint64_t direct =
        replay::ReplayOne(cap.records,
                          replay::MakeCacheJob({.size_bytes = 16u << 10,
                                                .block_bytes = 16,
                                                .assoc = 0}))
            .cache_stats.misses;
    std::printf("cross-check @16K: one-pass misses=%llu, direct "
                "simulation misses=%llu (%s)\n",
                static_cast<unsigned long long>(one_pass),
                static_cast<unsigned long long>(direct),
                one_pass == direct ? "exact match" : "MISMATCH");
    return one_pass == direct;
}

/**
 * A3 (ablation): two-level hierarchies on full-system traces.
 *
 * Sweeps the unified L2 size behind small split L1s and reports global
 * miss rate and AMAT, with and without switch flushing — the "does an L2
 * recover what multiprogramming destroys" question.
 */
bool
A3(BenchReport& report)
{
    const Capture& cap = SharedCapture(MixOfDegree(3));

    std::printf("A3: L2 size sweep behind 4K+4K split L1s "
                "(full-system trace)\n\n");
    // All six (L2 size, discipline) points replay concurrently.
    std::vector<replay::SweepConfig> jobs;
    for (uint32_t kib : {32u, 128u, 512u}) {
        for (bool flush : {true, false}) {
            cache::HierarchyConfig config;
            config.l2.size_bytes = kib << 10;
            config.flush_on_switch = flush;
            config.l1i.pid_tags = config.l1d.pid_tags = config.l2.pid_tags =
                !flush;
            jobs.push_back(replay::MakeHierarchyJob(config));
        }
    }
    const auto results = replay::SweepRunner().Run(cap.records, jobs);

    Table table({"l2", "discipline", "l1d-miss%", "global-miss%", "amat"});
    for (size_t i = 0; i < results.size(); ++i) {
        const std::string l2_kb = std::to_string(32u << (i / 2 * 2));
        const char* discipline = i % 2 == 0 ? "flush" : "pid-tags";
        report.Add("global_miss_rate", 100.0 * results[i].global_miss_rate,
                   "%", {{"l2_kb", l2_kb}, {"discipline", discipline}});
        report.Add("amat", results[i].amat, "cycles",
                   {{"l2_kb", l2_kb}, {"discipline", discipline}});
        table.AddRow({
            l2_kb + "K",
            discipline,
            Table::Fmt(100.0 * results[i].l1d_stats.MissRate(), 2),
            Table::Fmt(100.0 * results[i].global_miss_rate, 3),
            Table::Fmt(results[i].amat, 2),
        });
    }
    // Rows alternate flush, pid-tags. Flushing at least doubles the
    // global miss rate at every L2; the biggest PID-tagged L2 is < 1 %.
    bool holds = results.back().global_miss_rate < 0.01;
    for (size_t i = 0; i < results.size(); i += 2) {
        holds &= results[i].global_miss_rate >=
                     2 * results[i + 1].global_miss_rate &&
                 results[i].amat > results[i + 1].amat;
    }
    return Shape(table, holds,
                 "a big L2 pulls global miss rate toward zero\n"
                 "only under PID tags; with flushing it keeps paying the\n"
                 "post-switch refill, so AMAT stays elevated.\n");
}

/**
 * A4 (ablation): trace sampling.
 *
 * Full ATUM traces were expensive (20x slowdown, buffer extractions), so
 * the era's follow-up question was whether sampled traces — attach the
 * patches for a window, detach for a gap — estimate cache behaviour well.
 * This compares miss-rate estimates from sampled captures against the
 * full trace, exposing the classic cold-start bias of short windows.
 */
bool
A4(BenchReport& report)
{
    const replay::SweepConfig job = replay::MakeCacheJob(
        {.size_bytes = 16u << 10, .block_bytes = 16, .assoc = 1}, kFlush);
    // Reference: the full trace.
    const Capture& full = SharedCapture(MixOfDegree(2));
    const double full_rate = replay::ReplayOne(full.records, job).MissRate();

    std::printf("A4: sampled capture vs full trace "
                "(16K direct-mapped, flush-on-switch)\n\n");
    std::printf("full trace: %zu records, miss rate %.3f%%\n\n",
                full.records.size(), 100.0 * full_rate);

    Table table({"window(instr)", "duty", "records", "sampled-miss%",
                 "error%"});
    report.Add("full_miss_rate", 100.0 * full_rate, "%");
    std::vector<std::pair<double, double>> errors;  // (duty, error %)
    for (const auto& [window, period] :
         std::vector<std::pair<uint64_t, uint64_t>>{
             {5000, 50000}, {20000, 80000}, {20000, 40000},
             {50000, 100000}}) {
        cpu::Machine machine(StandardMachineConfig());
        trace::VectorSink sink;
        core::AtumTracer tracer(machine, sink);
        kernel::BootSystem(machine, MixOfDegree(2).Programs());
        while (!machine.halted()) {
            tracer.Attach();
            machine.Run(window);
            tracer.Flush();
            tracer.Detach();
            if (machine.halted())
                break;
            machine.Run(period - window);
        }
        const double rate = replay::ReplayOne(sink.records(), job).MissRate();
        const double duty =
            static_cast<double>(window) / static_cast<double>(period);
        const double error = 100.0 * (rate - full_rate) / full_rate;
        errors.emplace_back(duty, error);
        report.Add("sampled_miss_rate", 100.0 * rate, "%",
                   {{"window", std::to_string(window)},
                    {"period", std::to_string(period)}});
        report.Add("error", error, "%",
                   {{"window", std::to_string(window)},
                    {"period", std::to_string(period)}});
        table.AddRow({
            std::to_string(window),
            Table::Fmt(100.0 * duty, 0) + "%",
            std::to_string(sink.records().size()),
            Table::Fmt(100.0 * rate, 3),
            Table::Fmt(error, 1),
        });
    }
    bool holds = true;
    for (const auto& [duty, error] : errors) {
        holds &= error > 0;
        for (const auto& [other_duty, other_error] : errors)
            holds &= (other_duty <= duty || other_error < error);
    }
    return Shape(table, holds,
                 "sampling overestimates the miss rate (cold\n"
                 "windows), less so as the duty cycle rises —\n"
                 "the bias the sampling literature corrected for.\n");
}

/**
 * A5 (ablation): write-through + write buffer vs write-back.
 *
 * The 8200 era ran write-through caches; the question full-system traces
 * could finally answer was how much bus traffic and how many
 * write-buffer stalls that discipline really costs under multiprogrammed
 * loads.
 */
bool
A5(BenchReport& report)
{
    const Capture& cap = SharedCapture(MixOfDegree(3));

    // Write-back reference: traffic = (misses + writebacks) x block.
    const cache::CacheConfig wb_config{.size_bytes = 64u << 10,
                                       .block_bytes = 16, .assoc = 2};
    const cache::CacheStats wb =
        replay::ReplayOne(cap.records, replay::MakeCacheJob(wb_config))
            .cache_stats;
    const double wb_traffic =
        static_cast<double>(wb.misses + wb.writebacks) *
        wb_config.block_bytes / static_cast<double>(wb.accesses);

    std::printf("A5: write policies on the full-system trace "
                "(64K 2-way, 16B blocks)\n\n");
    std::printf("write-back: miss %.3f%%, traffic %.2f B/ref\n\n",
                100.0 * wb.MissRate(), wb_traffic);

    // Write-through: every store goes to memory through a write buffer.
    // Traffic: refills for read misses + every store, whatever the depth.
    cache::CacheConfig wt_config = wb_config;
    wt_config.write_back = false;
    const cache::CacheStats wt =
        replay::ReplayOne(cap.records, replay::MakeCacheJob(wt_config))
            .cache_stats;
    const double wt_traffic =
        (static_cast<double>(wt.read_misses) * wt_config.block_bytes +
         static_cast<double>(wt.writes) * 4.0) /
        static_cast<double>(wt.accesses);

    Table table({"buffer-depth", "wt-traffic(B/ref)", "stalls/store",
                 "stall-cycles"});
    report.Add("wb_traffic", wb_traffic, "B/ref");
    bool holds = true;
    double stalls = 0;
    for (uint32_t depth : {1u, 2u, 4u, 8u}) {
        cache::WriteBuffer buffer({.depth = depth});
        trace::RefFilter refs;
        for (const auto& r : cap.records) {
            if (refs.Classify(r) != trace::RefFilter::kRef)
                continue;
            if (r.type == trace::RecordType::kWrite)
                buffer.Write(r.addr);
            else
                buffer.OnReference();
        }
        // Deeper buffers cut stalls.
        holds &= (depth == 1 || buffer.StallsPerWrite() < stalls);
        stalls = buffer.StallsPerWrite();
        report.Add("wt_traffic", wt_traffic, "B/ref",
                   {{"depth", std::to_string(depth)}});
        report.Add("stalls_per_store", stalls, "stalls",
                   {{"depth", std::to_string(depth)}});
        table.AddRow({
            std::to_string(depth),
            Table::Fmt(wt_traffic, 2),
            Table::Fmt(stalls, 3),
            std::to_string(buffer.stall_cycles()),
        });
    }
    // ~7x the bytes, and the deepest buffer still stalls every other store.
    return Shape(table,
                 holds && wt_traffic >= 5 * wb_traffic &&
                     wt_traffic <= 9 * wb_traffic && stalls >= 0.5,
                 "write-through moves ~7x the bytes of\n"
                 "write-back here; deeper buffers cut stalls, but the\n"
                 "kernel's page-zeroing store bursts keep pressure on —\n"
                 "an OS behaviour only full-system traces expose.\n");
}

/**
 * A6 (ablation): the machine's real translation buffer vs the
 * trace-driven TLB model.
 *
 * The same workload runs on machines with different hardware TB
 * geometries; the in-machine miss counts are compared against what the
 * trace-driven simulator predicts from a single capture (the capture
 * machine's own TB geometry does not affect the record stream). Close
 * agreement validates using traces for TB studies (ATUM's whole
 * premise); the residual gap is real microcode behaviour the record
 * stream abstracts away (modified-bit re-walks, TBIS operations).
 */
bool
A6(BenchReport& report)
{
    const Mix hash{{"hash"}, 1};
    const Capture& cap = SharedCapture(hash);

    std::printf("A6: hardware TB vs trace-driven prediction "
                "(hash workload)\n\n");
    Table table({"geometry", "hw-lookups", "hw-miss%", "trace-miss%",
                 "agreement"});
    bool holds = true;
    using Geometry = std::pair<unsigned, unsigned>;  // sets, ways
    for (const auto& [sets, ways] : {Geometry{8, 1}, Geometry{8, 2},
                                    Geometry{16, 2}, Geometry{32, 2},
                                    Geometry{64, 2}}) {
        // Real machine with this TB.
        cpu::Machine::Config config = StandardMachineConfig();
        config.tlb_sets = sets;
        config.tlb_ways = ways;
        cpu::Machine machine(config);
        kernel::BootSystem(machine, hash.Programs());
        if (!core::RunUntraced(machine, 400'000'000).halted)
            Fatal("machine run did not complete");
        const auto& tlb = machine.mmu().tlb();
        const double hw_rate = static_cast<double>(tlb.misses()) /
                               static_cast<double>(tlb.lookups());

        // Trace-driven prediction at the same geometry.
        const double sim_rate =
            replay::ReplayOne(cap.records,
                              replay::MakeTlbJob(
                                  {.entries = sets * ways, .ways = ways}))
                .MissRate();
        const double agreement = hw_rate > 0 ? sim_rate / hw_rate : 0.0;
        // A small factor: within 25 % either way.
        holds &= agreement >= 0.8 && agreement <= 1.25;

        const std::string geom =
            std::to_string(sets) + "x" + std::to_string(ways);
        report.Add("hw_miss_rate", 100.0 * hw_rate, "%",
                   {{"geometry", geom}});
        report.Add("trace_miss_rate", 100.0 * sim_rate, "%",
                   {{"geometry", geom}});
        table.AddRow({
            geom,
            std::to_string(tlb.lookups()),
            Table::Fmt(100.0 * hw_rate, 3),
            Table::Fmt(100.0 * sim_rate, 3),
            Table::Fmt(agreement, 2) + "x",
        });
    }
    return Shape(table, holds,
                 "trace-driven predictions track the hardware\n"
                 "TB within a small factor across geometries; the residue\n"
                 "is M-bit re-walks and TBIS traffic the records abstract.\n");
}

/**
 * A7 (ablation): set-sampled cache simulation — accuracy and its hazard.
 *
 * Set sampling simulates 1/2^k of the sets — the standard way the era
 * stretched limited trace-processing budgets. Its accuracy depends
 * entirely on how evenly traffic spreads across sets. Loop-dominated
 * CISC instruction streams concentrate most hits in a handful of sets,
 * so small samples that miss the hot sets overestimate wildly; this
 * quantifies exactly that (the caveat the sampling literature warned
 * about), alongside the regime where the estimate is usable.
 */
bool
A7(BenchReport& report)
{
    const Capture& cap = SharedCapture(MixOfDegree(3));

    std::printf("A7: set-sampling accuracy (direct-mapped, 16B blocks, "
                "full-system trace)\n\n");
    Table table({"cache", "full-miss%", "1/2-sets%", "1/4-sets%",
                 "1/16-sets%", "1/16-access-share%"});
    bool holds = true;
    for (uint32_t kib : {8u, 32u, 128u}) {
        const cache::CacheConfig config{.size_bytes = kib << 10,
                                        .block_bytes = 16, .assoc = 1};
        const cache::CacheStats full =
            replay::ReplayOne(cap.records,
                              replay::MakeCacheJob(config, kFlush))
                .cache_stats;
        const auto s2 =
            analysis::SetSampledMissRate(cap.records, config, kFlush, 1);
        const auto s4 =
            analysis::SetSampledMissRate(cap.records, config, kFlush, 2);
        const auto s16 =
            analysis::SetSampledMissRate(cap.records, config, kFlush, 4);
        // How much of the total traffic the 1/16 sample saw: far below
        // 1/16 when loops concentrate accesses elsewhere.
        const double s16_share =
            static_cast<double>(s16.sampled_accesses) /
            static_cast<double>(full.accesses);
        // Half the sets land within 10 %; the 1/16 sample misses the hot
        // sets and overestimates at least twofold.
        holds &= std::abs(s2.MissRate() / full.MissRate() - 1) <= 0.1 &&
                 s16.MissRate() >= 2 * full.MissRate() && s16_share < 1.0 / 16;
        report.Add("miss_rate", 100.0 * full.MissRate(), "%",
                   {{"size_kb", std::to_string(kib)}, {"sets", "full"}});
        for (const auto& [frac, stats] : {std::pair{"1/2", s2},
                                          std::pair{"1/4", s4},
                                          std::pair{"1/16", s16}}) {
            report.Add("miss_rate", 100.0 * stats.MissRate(), "%",
                       {{"size_kb", std::to_string(kib)}, {"sets", frac}});
        }
        table.AddRow({
            std::to_string(kib) + "K",
            Table::Fmt(100.0 * full.MissRate(), 3),
            Table::Fmt(100.0 * s2.MissRate(), 3),
            Table::Fmt(100.0 * s4.MissRate(), 3),
            Table::Fmt(100.0 * s16.MissRate(), 3),
            Table::Fmt(100.0 * s16_share, 2),
        });
    }
    return Shape(table, holds,
                 "half-the-sets samples track the truth, but\n"
                 "small samples that miss the loop-hot sets overestimate\n"
                 "several-fold — set sampling is only as reliable as the\n"
                 "traffic is uniform, the caveat the literature documented.\n");
}

/** I- and D-miss rates of split 8K direct-mapped caches on `records`. */
std::pair<double, double>
RunSplit(const std::vector<trace::Record>& records, bool prefetch)
{
    const cache::CacheConfig config{.size_bytes = 8u << 10,
                                    .block_bytes = 16, .assoc = 1,
                                    .prefetch_next_on_miss = prefetch};
    cache::Cache icache(config);
    cache::Cache dcache(config);
    cache::TraceCacheDriver driver(dcache, kFlush, &icache);
    for (const auto& r : records)
        driver.Feed(r);
    return {icache.stats().MissRate(), dcache.stats().MissRate()};
}

/**
 * A8 (ablation): one-block lookahead prefetching (Smith's OBL).
 *
 * A miss also fills the next sequential block — cheap hardware that works
 * exactly as well as the reference stream is sequential. Full-system
 * traces show where it pays (the CISC istream) and where it pollutes
 * (data-side pointer chasing).
 */
bool
A8(BenchReport& report)
{
    std::printf("A8: one-block lookahead on split 8K I/D caches "
                "(full-system traces)\n\n");
    Table table({"workload", "I-miss%", "I-miss%+obl", "D-miss%",
                 "D-miss%+obl"});
    bool holds = true;
    for (const char* name : {"grep", "matrix", "listproc", "hash"}) {
        const Capture& cap = SharedCapture({{name}, 2});
        const auto [i_miss, d_miss] = RunSplit(cap.records, false);
        const auto [i_obl, d_obl] = RunSplit(cap.records, true);
        // Sharply: lookahead cuts I-stream misses by over a third.
        holds &= 3 * i_obl < 2 * i_miss;
        report.Add("i_miss_rate", 100.0 * i_miss, "%",
                   {{"workload", name}, {"prefetch", "off"}});
        report.Add("i_miss_rate", 100.0 * i_obl, "%",
                   {{"workload", name}, {"prefetch", "obl"}});
        report.Add("d_miss_rate", 100.0 * d_miss, "%",
                   {{"workload", name}, {"prefetch", "off"}});
        report.Add("d_miss_rate", 100.0 * d_obl, "%",
                   {{"workload", name}, {"prefetch", "obl"}});
        table.AddRow({
            name,
            Table::Fmt(100.0 * i_miss, 3),
            Table::Fmt(100.0 * i_obl, 3),
            Table::Fmt(100.0 * d_miss, 3),
            Table::Fmt(100.0 * d_obl, 3),
        });
    }
    return Shape(table, holds,
                 "lookahead cuts instruction-stream misses\n"
                 "sharply (sequential fetch); data-side gains depend on the\n"
                 "workload's spatial locality, and pointer chasing can even\n"
                 "lose to pollution.\n");
}

/** One experiment: prints its table, fills its report and returns
 *  whether its shape check holds. */
struct Experiment {
    const char* name;  ///< bench name: BENCH_<name>.json
    bool (*run)(BenchReport&);
};

/** DESIGN.md's experiment index order. */
constexpr Experiment kExperiments[] = {
    {"t1_trace_characteristics", T1}, {"t2_slowdown", T2},
    {"t3_buffer_extraction", T3},     {"f1_miss_vs_cachesize", F1},
    {"f2_miss_vs_blocksize", F2},     {"f3_miss_vs_assoc", F3},
    {"f4_multiprogramming", F4},      {"f5_working_sets", F5},
    {"t4_tlb", T4},                   {"t6_opcode_mix", T6},
    {"f6_paging", F6},                {"a1_compression", A1},
    {"a2_stack_distance", A2},        {"a3_hierarchy", A3},
    {"a4_sampling", A4},              {"a5_write_policy", A5},
    {"a6_machine_tb", A6},            {"a7_set_sampling", A7},
    {"a8_prefetch", A8},
};

}  // namespace
}  // namespace atum::bench

int
main(int argc, char** argv)
{
    using namespace atum::bench;
    std::vector<const Experiment*> chosen;
    for (const Experiment& e : kExperiments) {
        if (argc == 1 || std::find(argv + 1, argv + argc,
                                   std::string_view(e.name)) != argv + argc)
            chosen.push_back(&e);
    }
    for (int i = 1; i < argc; ++i) {
        if (std::none_of(chosen.begin(), chosen.end(), [&](auto* e) {
                return argv[i] == std::string_view(e->name);
            })) {
            std::fprintf(stderr, "bench_experiments: unknown experiment "
                                 "'%s'\n", argv[i]);
            return 2;
        }
    }

    std::vector<const char*> failed;
    for (const Experiment* e : chosen) {
        if (e != chosen.front())
            std::printf("\n");
        BenchReport report(e->name);  // written when it goes out of scope
        if (!e->run(report))
            failed.push_back(e->name);
    }
    std::fflush(stdout);
    for (const char* name : failed)
        std::fprintf(stderr, "bench_experiments: %s: shape check failed\n",
                     name);
    return failed.empty() ? 0 : 1;
}
