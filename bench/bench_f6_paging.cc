// Experiment F6 (extension): memory pressure and the pager in the traces.
//
// ATUM's full-system traces captured VMS's paging activity; this harness
// recreates that class of study: shrink the frame pool under a fixed
// workload and watch fault rate, swap traffic, and the OS share of all
// memory references climb — the thrashing curve.

#include <cstdio>

#include "common.h"
#include "kernel/layout.h"
#include "trace/stats.h"
#include "util/table.h"

namespace atum {
namespace {

int
Run()
{
    std::printf("F6: frame-pool size vs paging activity (sort workload)\n\n");
    Table table({"pool(frames)", "pgfaults", "swap-outs", "swap-ins",
                 "os-refs%", "instr"});
    bench::BenchReport report("f6_paging");

    for (uint32_t pool : {0u, 48u, 32u, 24u, 16u, 12u}) {
        cpu::Machine machine(bench::StandardMachineConfig());
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

        const std::string pool_key =
            pool == 0 ? "unlimited" : std::to_string(pool);
        report.Add("page_faults",
                   static_cast<double>(info.ReadKdata(
                       machine, kernel::KdataOffsets::kPfCount)),
                   "faults", {{"pool_frames", pool_key}});
        report.Add("os_share", 100.0 * stats.KernelFraction(), "%",
                   {{"pool_frames", pool_key}});
        table.AddRow({
            pool == 0 ? "unlimited" : std::to_string(pool),
            std::to_string(
                info.ReadKdata(machine, kernel::KdataOffsets::kPfCount)),
            std::to_string(
                info.ReadKdata(machine, kernel::KdataOffsets::kSwapOuts)),
            std::to_string(
                info.ReadKdata(machine, kernel::KdataOffsets::kSwapIns)),
            Table::Fmt(100.0 * stats.KernelFraction(), 1),
            std::to_string(result.instructions),
        });
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Shape check: shrinking memory multiplies page faults and\n"
                "swap traffic, and the OS share of references climbs —\n"
                "thrashing, visible only in a full-system trace.\n");
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
