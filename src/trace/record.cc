#include "trace/record.h"

#include "util/logging.h"

namespace atum::trace {

uint8_t
MakeFlags(bool kernel, uint8_t size_bytes)
{
    uint8_t log2_size;
    switch (size_bytes) {
      case 1:
        log2_size = 0;
        break;
      case 2:
        log2_size = 1;
        break;
      case 4:
        log2_size = 2;
        break;
      default:
        Panic("unsupported access size ", unsigned{size_bytes});
    }
    return static_cast<uint8_t>((kernel ? kFlagKernel : 0) |
                                (log2_size << 1));
}

Record
FromMemAccess(const ucode::MemAccess& access)
{
    Record r;
    r.addr = access.vaddr;
    switch (access.kind) {
      case ucode::MemAccessKind::kIFetch:
        r.type = RecordType::kIFetch;
        break;
      case ucode::MemAccessKind::kRead:
        r.type = RecordType::kRead;
        break;
      case ucode::MemAccessKind::kWrite:
        r.type = RecordType::kWrite;
        break;
      case ucode::MemAccessKind::kPte:
        r.type = RecordType::kPte;
        break;
      case ucode::MemAccessKind::kDma:
        r.type = RecordType::kDma;
        break;
    }
    r.flags = MakeFlags(access.kernel, access.size);
    return r;
}

Record
MakeCtxSwitch(uint16_t pid, uint32_t pcb_pa)
{
    Record r;
    r.addr = pcb_pa;
    r.type = RecordType::kCtxSwitch;
    r.flags = MakeFlags(true, 4);
    r.info = pid;
    return r;
}

Record
MakeTlbMiss(uint32_t vaddr, bool kernel)
{
    Record r;
    r.addr = vaddr;
    r.type = RecordType::kTlbMiss;
    r.flags = MakeFlags(kernel, 4);
    return r;
}

Record
MakeException(uint8_t vector)
{
    Record r;
    r.addr = 0;
    r.type = RecordType::kException;
    r.flags = MakeFlags(true, 4);
    r.info = vector;
    return r;
}

Record
MakeOpcode(uint32_t pc, uint8_t opcode, bool kernel)
{
    Record r;
    r.addr = pc;
    r.type = RecordType::kOpcode;
    r.flags = MakeFlags(kernel, 1);
    r.info = opcode;
    return r;
}

Record
MakeLoss(uint32_t lost, uint16_t event)
{
    Record r;
    r.addr = lost;
    r.type = RecordType::kLoss;
    r.flags = MakeFlags(true, 4);
    r.info = event;
    return r;
}

}  // namespace atum::trace
