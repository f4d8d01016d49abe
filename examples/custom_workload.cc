// custom_workload: write your own guest program and trace it.
//
// Shows the full pipeline a new user follows: assemble a VCX-32 program
// with the label/fixup API, wrap it as a GuestProgram, boot it under the
// kernel with ATUM attached, and inspect what the microcode saw.
//
//   $ ./examples/custom_workload

#include <cstdio>

#include "assembler/assembler.h"
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
    using namespace atum::assembler;
    using isa::Opcode;
    using kernel::Syscall;

    // A little program: builds a 64-entry table of squares in its heap
    // (demand-zero pages -> the kernel pager will run), sums the table
    // backwards, prints '*' and exits.
    Assembler a(0);
    Label heap = a.NewLabel("heap");

    a.Emit(Opcode::kMoval, {Ref(heap), R(2)});  // table base
    a.Emit(Opcode::kClrl, {R(3)});              // i = 0
    Label fill = a.Here("fill");
    a.Emit(Opcode::kMull3, {R(3), R(3), R(4)});   // r4 = i*i
    a.Emit(Opcode::kMovl, {R(4), Def(2)});
    a.Emit(Opcode::kAddl2, {Imm(4), R(2)});
    a.Emit(Opcode::kAoblss, {Imm(64), R(3)}, fill);

    a.Emit(Opcode::kClrl, {R(5)});  // sum
    a.Emit(Opcode::kMovl, {Imm(64), R(3)});
    Label sum = a.Here("sum");
    a.Emit(Opcode::kSubl2, {Imm(4), R(2)});       // walk backwards
    a.Emit(Opcode::kAddl2, {Def(2), R(5)});
    a.Emit(Opcode::kSobgtr, {R(3)}, sum);

    a.Emit(Opcode::kMovl, {Imm('*'), R(1)});
    a.Emit(Opcode::kChmk, {Imm(static_cast<uint32_t>(Syscall::kPutc))});
    a.Emit(Opcode::kChmk, {Imm(static_cast<uint32_t>(Syscall::kExit))});
    a.Align(kPageBytes);
    a.Bind(heap);

    kernel::GuestProgram program;
    program.name = "squares";
    program.program = a.Finish();
    program.heap_pages = 4;
    program.stack_pages = 2;

    // Boot it under the kernel with ATUM attached.
    cpu::Machine machine({.mem_bytes = 1u << 20, .timer_reload = 2000});
    trace::VectorSink sink;
    core::AtumTracer tracer(machine, sink);
    kernel::BootSystem(machine, {std::move(program)});
    const auto result = core::RunSupervised(
        machine, tracer, {.max_instructions = 10'000'000});

    trace::TraceStats stats;
    for (const auto& r : sink.records())
        stats.Accumulate(r);
    std::printf("console: \"%s\" (sum of squares 0..63 = %u, computed in "
                "the guest)\n",
                machine.console_output().c_str(), 64 * 63 * 127 / 6);
    std::printf("ran %llu instructions; ATUM captured %zu records "
                "(%.1f%% made by the kernel on this program's behalf)\n",
                static_cast<unsigned long long>(result.instructions),
                sink.records().size(), 100.0 * stats.KernelFraction());
    return result.halted &&
                   machine.console_output() == "*"
               ? 0
               : 1;
}
