#include "trace/record.h"

#include "util/logging.h"

namespace atum::trace {

void
PanicBadAccessSize(uint8_t size_bytes)
{
    Panic("unsupported access size ", unsigned{size_bytes});
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
