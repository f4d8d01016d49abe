// working_sets: Denning working-set curves from an ATUM trace.
//
// Shows how much memory a *real* execution covers once kernel references
// and co-scheduled processes are included — the memory-sizing question
// full-system traces answered.
//
//   $ ./examples/working_sets

#include <cstdio>

#include "analysis/working_set.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "trace/ref_filter.h"
#include "trace/sink.h"
#include "util/table.h"
#include "workloads/workloads.h"

int
main()
{
    using namespace atum;

    cpu::Machine::Config config;
    config.mem_bytes = 4u << 20;
    config.timer_reload = 2000;
    cpu::Machine machine(config);
    trace::VectorSink sink;
    core::AtumTracer tracer(machine, sink);
    kernel::BootSystem(machine, workloads::StandardMix());
    core::RunSupervised(machine, tracer, {.max_instructions = 400'000'000});

    const std::vector<uint64_t> windows = {100, 1000, 10000, 100000};
    analysis::WorkingSetAnalyzer full(windows);
    analysis::WorkingSetAnalyzer user(windows);
    trace::RefFilter user_refs({.include_kernel = false});
    for (const trace::Record& r : sink.records()) {
        full.Feed(r);
        if (user_refs.Classify(r) == trace::RefFilter::kRef)
            user.Feed(r);
    }

    Table table({"window(refs)", "full-system(pages)", "user-only(pages)"});
    for (size_t i = 0; i < windows.size(); ++i) {
        table.AddRow({
            std::to_string(windows[i]),
            Table::Fmt(full.AverageWorkingSet(i), 1),
            Table::Fmt(user.AverageWorkingSet(i), 1),
        });
    }
    std::printf("average working-set size, 512-byte pages:\n\n%s\n",
                table.ToString().c_str());
    std::printf("distinct pages touched: %llu full vs %llu user-only\n",
                static_cast<unsigned long long>(full.distinct_pages()),
                static_cast<unsigned long long>(user.distinct_pages()));
    return 0;
}
