// Quickstart: capture a full-system address trace with ATUM.
//
// Builds a VCX-32 machine, reserves the trace buffer, installs the
// microcode patches, boots the guest kernel with one workload, runs to
// completion, and prints the first few records plus summary statistics.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "core/atum_tracer.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "workloads/workloads.h"

int
main()
{
    using namespace atum;

    // 1. A machine: 2 MiB of memory, a 64-entry TB, 2000-instruction
    //    scheduling quantum.
    cpu::Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 2000;
    cpu::Machine machine(config);

    // 2. The tracer reserves its buffer at the top of physical memory.
    //    Construct it BEFORE booting so the kernel never sees that region.
    trace::VectorSink sink;
    core::AtumConfig tracer_config;
    tracer_config.buffer_bytes = 128u << 10;
    core::AtumTracer tracer(machine, sink, tracer_config);

    // 3. Boot the guest kernel with a workload (a hash/symbol-table
    //    program, pid 1).
    kernel::BootSystem(machine, {workloads::MakeHash(1000)});

    // 4. Run traced until every process exits.
    const core::SessionResult result =
        core::RunSupervised(machine, tracer, {.max_instructions = 100'000'000});

    std::printf("halted=%d instructions=%llu ucycles=%llu records=%llu "
                "buffer-fills=%llu\n\n",
                result.halted,
                static_cast<unsigned long long>(result.instructions),
                static_cast<unsigned long long>(result.ucycles),
                static_cast<unsigned long long>(result.records),
                static_cast<unsigned long long>(result.buffer_fills));

    // 5. Look at the head of the trace.
    static const char* const kTypeNames[] = {
        "ifetch", "read  ", "write ", "pte   ",
        "ctxsw ", "tlbmis", "except", "opcode"};
    std::printf("first 20 records:\n");
    for (size_t i = 0; i < 20 && i < sink.records().size(); ++i) {
        const trace::Record& r = sink.records()[i];
        std::printf("  %2zu: %s %c addr=0x%08x size=%u info=%u\n", i,
                    kTypeNames[static_cast<unsigned>(r.type)],
                    r.kernel() ? 'K' : 'U', r.addr, r.size(), r.info);
    }

    // 6. Summarize.
    trace::TraceStats stats;
    for (const trace::Record& r : sink.records())
        stats.Accumulate(r);
    std::printf("\n%s", stats.ToString().c_str());
    std::printf("console output: \"%s\"\n",
                machine.console_output().c_str());
    return 0;
}
