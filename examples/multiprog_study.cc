// multiprog_study: how context switching interacts with cache design.
//
// Captures full-system traces at multiprogramming degrees 1, 2 and 4 and
// compares the two classic disciplines for a virtually-addressed cache:
// flushing on every switch vs extending tags with a process id.
//
//   $ ./examples/multiprog_study

#include <cstdio>

#include "analysis/compare.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "util/table.h"
#include "workloads/workloads.h"

int
main()
{
    using namespace atum;

    Table table({"degree", "ctx-switches", "flush-miss%", "pid-tag-miss%"});
    for (uint32_t degree : {1u, 2u, 4u}) {
        std::vector<kernel::GuestProgram> programs;
        const auto& names = workloads::AllWorkloadNames();
        for (uint32_t i = 0; i < degree; ++i)
            programs.push_back(workloads::MakeWorkload(names[i]));

        cpu::Machine::Config config;
        config.mem_bytes = 4u << 20;
        config.timer_reload = 2000;
        cpu::Machine machine(config);
        trace::VectorSink sink;
        core::AtumTracer tracer(machine, sink);
        kernel::BootSystem(machine, std::move(programs));
        core::RunSupervised(machine, tracer, {.max_instructions = 400'000'000});

        trace::TraceStats stats;
        for (const auto& r : sink.records())
            stats.Accumulate(r);

        cache::CacheConfig flush_cfg{.size_bytes = 64u << 10,
                                     .block_bytes = 16,
                                     .assoc = 2};
        cache::CacheConfig pid_cfg = flush_cfg;
        pid_cfg.pid_tags = true;
        cache::DriverOptions flush_opts;
        flush_opts.flush_on_switch = true;

        const auto flushed =
            analysis::SimulateCache(sink.records(), flush_cfg, flush_opts);
        const auto tagged =
            analysis::SimulateCache(sink.records(), pid_cfg, {});
        table.AddRow({
            std::to_string(degree),
            std::to_string(stats.context_switches()),
            Table::Fmt(100.0 * flushed.MissRate(), 3),
            Table::Fmt(100.0 * tagged.MissRate(), 3),
        });
    }
    std::printf("64K 2-way cache under multiprogramming:\n\n%s\n",
                table.ToString().c_str());
    std::printf("PID tags preserve each process's (and the kernel's)\n"
                "footprint across switches; flushing pays the full refill\n"
                "cost every quantum.\n");
    return 0;
}
