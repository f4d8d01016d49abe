#include "mmu/mmu.h"

#include "cpu/event_counters.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace atum::mmu {

using ucode::MemAccess;
using ucode::MemAccessKind;
using ucode::MicroOpKind;

Mmu::Mmu(PhysicalMemory& memory, ucode::ControlStore& control_store,
         unsigned tlb_sets, unsigned tlb_ways)
    : memory_(memory),
      control_store_(control_store),
      tlb_(tlb_sets, tlb_ways)
{
}

void
Mmu::SetRegion(Region r, RegionRegs regs)
{
    if (r == Region::kReserved)
        Panic("SetRegion on reserved region");
    regions_[static_cast<size_t>(r)] = regs;
}

RegionRegs
Mmu::GetRegion(Region r) const
{
    if (r == Region::kReserved)
        Panic("GetRegion on reserved region");
    return regions_[static_cast<size_t>(r)];
}

XlateResult
Mmu::Walk(uint32_t vaddr, bool write, bool kernel_mode)
{
    XlateResult res;
    res.tb_miss = true;
    res.ucycles = ucode::CostOf(MicroOpKind::kPteRead);
    if (ev_ != nullptr)
        ++ev_->tlb_misses;
    res.ucycles += control_store_.FireTlbMiss(vaddr, kernel_mode);

    const Region region = RegionOf(vaddr);
    if (region == Region::kReserved) {
        res.status = XlateStatus::kAcv;
        return res;
    }
    const RegionRegs& regs = regions_[static_cast<size_t>(region)];
    const uint32_t page_in_region =
        (vaddr & 0x3fffffffu) >> kPageShift;
    if (page_in_region >= regs.length) {
        res.status = XlateStatus::kAcv;  // length violation
        return res;
    }

    const uint32_t pte_pa = regs.base + page_in_region * 4;
    if (!memory_.Contains(pte_pa, 4)) {
        res.status = XlateStatus::kAcv;
        return res;
    }
    ++pte_reads_;
    if (ev_ != nullptr)
        ++ev_->pte_reads;
    uint32_t pte = memory_.Read32(pte_pa);
    res.ucycles += control_store_.FireMemAccess(
        MemAccess{pte_pa, pte_pa, 4, MemAccessKind::kPte, kernel_mode});

    if (!(pte & kPteValid)) {
        res.status = XlateStatus::kTnv;
        return res;
    }
    const bool user = (pte & kPteUser) != 0;
    const bool writable = (pte & kPteWritable) != 0;
    if (!kernel_mode && !user) {
        res.status = XlateStatus::kAcv;
        return res;
    }
    if (write && !writable) {
        res.status = XlateStatus::kAcv;
        return res;
    }
    if (write && !(pte & kPteModified)) {
        pte |= kPteModified;
        memory_.Write32(pte_pa, pte);
    }

    TlbEntry entry;
    entry.vpn = vaddr >> kPageShift;
    entry.pfn = pte & kPtePfnMask;
    entry.user = user;
    entry.writable = writable;
    entry.modified = (pte & kPteModified) != 0;
    if (ev_ != nullptr)
        ++ev_->tlb_fills;
    tlb_.Insert(entry);

    res.status = XlateStatus::kOk;
    res.paddr = ((pte & kPtePfnMask) << kPageShift) |
                (vaddr & (kPageBytes - 1));
    return res;
}

void
Mmu::PublishMetrics(obs::Registry& reg) const
{
    reg.GetCounter("mmu.tb_lookups").Set(tlb_.lookups());
    reg.GetCounter("mmu.tb_misses").Set(tlb_.misses());
    reg.GetCounter("mmu.tb_hits").Set(tlb_.lookups() - tlb_.misses());
    reg.GetCounter("mmu.pte_reads").Set(pte_reads_);
}

util::Status
Mmu::Save(util::StateWriter& w) const
{
    w.Bool(enabled_);
    for (const RegionRegs& regs : regions_) {
        w.U32(regs.base);
        w.U32(regs.length);
    }
    w.U64(pte_reads_);
    return tlb_.Save(w);
}

util::Status
Mmu::Restore(util::StateReader& r)
{
    enabled_ = r.Bool();
    for (RegionRegs& regs : regions_) {
        regs.base = r.U32();
        regs.length = r.U32();
    }
    pte_reads_ = r.U64();
    if (!r.ok())
        return r.status();
    return tlb_.Restore(r);
}

}  // namespace atum::mmu
