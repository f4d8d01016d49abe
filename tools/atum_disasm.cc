// atum-disasm: disassemble a guest workload image or the kernel.
//
// Usage:
//   atum-disasm --workload hash [--scale 1]
//   atum-disasm --kernel [--mem-mb 4]
//   atum-disasm --version
//
// A missing value, a malformed number or an unknown flag exits 2.
//
// Linear sweep; data regions (CASEL tables, embedded constants) stop the
// sweep at the first undecodable byte, which is reported.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli.h"
#include "isa/decoder.h"
#include "isa/disassembler.h"
#include "kernel/kernel_builder.h"
#include "kernel/layout.h"
#include "util/logging.h"
#include "util/signals.h"
#include "workloads/workloads.h"

namespace atum {
namespace {

void
Disassemble(const assembler::Program& program)
{
    // Invert the symbol map so labels print at their addresses.
    std::map<uint32_t, std::string> labels;
    for (const auto& [name, addr] : program.symbols)
        labels[addr] = name;

    uint32_t offset = 0;
    while (offset < program.size()) {
        const uint32_t addr = program.origin + offset;
        if (auto it = labels.find(addr); it != labels.end())
            std::printf("%s:\n", it->second.c_str());
        auto inst = isa::DecodeBuffer(program.bytes, offset);
        if (!inst) {
            std::printf("0x%08x:  .byte 0x%02x   ; undecodable — data "
                        "region or table, sweep ends\n",
                        addr, program.bytes[offset]);
            break;
        }
        std::printf("0x%08x:  %s\n", addr,
                    isa::FormatInst(*inst, addr).c_str());
        offset += inst->length;
    }
    std::printf("\n%u of %u bytes disassembled\n", offset, program.size());
}

int
Run(int argc, char** argv)
{
    std::string workload;
    uint32_t scale = 1;
    bool kernel = false;
    uint32_t mem_mb = 4;
    cli::ArgReader args("atum-disasm", argc, argv);
    while (args.Next()) {
        const std::string& arg = args.arg();
        if (arg == "--workload")
            workload = args.Value();
        else if (arg == "--scale")
            scale = args.Uint<uint32_t>();
        else if (arg == "--kernel")
            kernel = true;
        else if (arg == "--mem-mb")  // shifted into a 32-bit byte count
            mem_mb = args.Uint<uint32_t>(UINT32_MAX >> 20);
        else
            args.Fail("unknown argument: ", arg);
    }

    if (kernel) {
        const auto layout =
            kernel::ComputeLayout((mem_mb << 20) / kPageBytes);
        Disassemble(kernel::BuildKernelImage(layout));
        return 0;
    }
    if (workload.empty())
        args.Fail("usage: atum-disasm --workload NAME | --kernel");
    Disassemble(workloads::MakeWorkload(workload, scale).program);
    return 0;
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    // Listings are long; `atum-disasm --kernel | head` must exit cleanly.
    atum::util::IgnoreSigpipe();
    return atum::util::FinishStdout(atum::Run(argc, argv));
}
