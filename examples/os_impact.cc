// os_impact: the ATUM paper's core story in one program.
//
// Runs the same multiprogrammed workload twice — once captured with the
// ATUM microcode patches (everything: kernel, all processes, PTE refs),
// once with an idealized pre-ATUM user-only probe — and compares what a
// cache designer would conclude from each trace.
//
//   $ ./examples/os_impact

#include <cstdio>

#include "analysis/compare.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "core/user_tracer.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace {

atum::cpu::Machine::Config
MachineConfig()
{
    atum::cpu::Machine::Config config;
    config.mem_bytes = 4u << 20;
    config.timer_reload = 2000;
    return config;
}

}  // namespace

int
main()
{
    using namespace atum;

    // Capture 1: full system, via microcode.
    trace::VectorSink full_sink;
    {
        cpu::Machine machine(MachineConfig());
        core::AtumTracer tracer(machine, full_sink);
        kernel::BootSystem(machine, workloads::StandardMix());
        core::RunSupervised(machine, tracer, {.max_instructions = 400'000'000});
    }

    // Capture 2: user-only probe on process 1 of the identical mix.
    trace::VectorSink user_sink;
    {
        cpu::Machine machine(MachineConfig());
        core::UserOnlyTracer tracer(machine, user_sink);
        kernel::BootSystem(machine, workloads::StandardMix());
        core::RunBaseline(machine, tracer, 400'000'000);
    }

    trace::TraceStats stats;
    for (const auto& r : full_sink.records())
        stats.Accumulate(r);
    std::printf("full-system trace: %zu records, %.1f%% of memory "
                "references made by the OS, %llu context switches\n",
                full_sink.records().size(), 100.0 * stats.KernelFraction(),
                static_cast<unsigned long long>(stats.context_switches()));
    std::printf("user-only trace:   %zu records (what pre-ATUM "
                "methodology saw)\n\n",
                user_sink.records().size());

    // What each trace tells a cache designer.
    cache::CacheConfig base{.block_bytes = 16, .assoc = 1};
    cache::DriverOptions full_opts;
    full_opts.flush_on_switch = true;
    cache::DriverOptions user_opts;

    Table table({"cache", "user-only-miss%", "full-system-miss%",
                 "underestimate"});
    for (uint32_t kib : {4u, 16u, 64u, 256u}) {
        base.size_bytes = kib << 10;
        const auto u = analysis::SimulateCache(user_sink.records(), base,
                                               user_opts);
        const auto f = analysis::SimulateCache(full_sink.records(), base,
                                               full_opts);
        table.AddRow({
            std::to_string(kib) + "K",
            Table::Fmt(100.0 * u.MissRate(), 2),
            Table::Fmt(100.0 * f.MissRate(), 2),
            Table::Fmt(u.MissRate() > 0 ? f.MissRate() / u.MissRate() : 0,
                       1) + "x",
        });
    }
    std::printf("%s\nConclusion: user-only traces understate real miss "
                "rates,\nincreasingly so for larger caches — ATUM's "
                "central finding.\n",
                table.ToString().c_str());
    return 0;
}
