#ifndef ATUM_MMU_MMU_H_
#define ATUM_MMU_MMU_H_

/**
 * @file
 * VAX-style memory management for VCX-32.
 *
 * The 4 GiB virtual space is split by the top two address bits:
 *   P0 [0x00000000, 0x40000000): per-process program region (grows up)
 *   P1 [0x40000000, 0x80000000): per-process stack region
 *   S0 [0x80000000, 0xC0000000): shared system region (kernel)
 *   the top quadrant is reserved (access violation).
 *
 * Each region has a base register (physical address of a linear PTE array)
 * and a length register (number of mapped pages). A PTE is 32 bits:
 *
 *   bit 31  valid
 *   bit 30  user-accessible
 *   bit 29  writable
 *   bit 26  modified (set by hardware on first write through the entry)
 *   21..0   page frame number
 *
 * Translation-buffer misses walk the page table with a *physical* PTE read
 * that is reported to the control store as a kPte memory access — the
 * page-table references that ATUM's traces uniquely captured.
 */

#include <cstdint>

#include "mem/physical_memory.h"
#include "mmu/tlb.h"
#include "ucode/control_store.h"

namespace atum::obs {
class Registry;
}

namespace atum::cpu {
struct EventCounters;
}

namespace atum::mmu {

/** PTE field helpers. */
inline constexpr uint32_t kPteValid = 1u << 31;
inline constexpr uint32_t kPteUser = 1u << 30;
inline constexpr uint32_t kPteWritable = 1u << 29;
inline constexpr uint32_t kPteModified = 1u << 26;
inline constexpr uint32_t kPtePfnMask = (1u << 22) - 1;

/** Builds a PTE value from fields. */
constexpr uint32_t
MakePte(uint32_t pfn, bool user, bool writable, bool valid = true)
{
    return (valid ? kPteValid : 0) | (user ? kPteUser : 0) |
           (writable ? kPteWritable : 0) | (pfn & kPtePfnMask);
}

/** Virtual address regions. */
enum class Region : uint8_t { kP0 = 0, kP1 = 1, kS0 = 2, kReserved = 3 };

inline constexpr Region
RegionOf(uint32_t vaddr)
{
    return static_cast<Region>(vaddr >> 30);
}

/** Outcome classes of a translation attempt. */
enum class XlateStatus : uint8_t {
    kOk,
    kTnv,  ///< translation not valid → page fault (restartable)
    kAcv,  ///< access violation (protection, length, reserved region)
};

/** Result of Mmu::Translate. */
struct XlateResult {
    XlateStatus status = XlateStatus::kOk;
    uint32_t paddr = 0;
    uint32_t ucycles = 0;  ///< micro-cycles spent on TB miss handling
    bool tb_miss = false;
};

/** Per-region base/length registers. */
struct RegionRegs {
    uint32_t base = 0;    ///< physical address of the PTE array
    uint32_t length = 0;  ///< number of pages mapped
};

class Mmu
{
  public:
    /**
     * The Mmu reads PTEs from `memory` and reports TB misses / PTE
     * references to `control_store`. Both must outlive the Mmu.
     */
    Mmu(PhysicalMemory& memory, ucode::ControlStore& control_store,
        unsigned tlb_sets = 32, unsigned tlb_ways = 2);

    /** Memory management enable; translation is identity when disabled. */
    void set_enabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    void SetRegion(Region r, RegionRegs regs);
    RegionRegs GetRegion(Region r) const;

    /**
     * Translates `vaddr` for an access of the given intent. On kTnv/kAcv
     * no state is modified except TB statistics. A write through a clean
     * mapping re-walks the table to set the PTE modified bit.
     *
     * The TB-hit path is forced inline (every reference takes it, and
     * the interpreter's reference path inlines it, cpu/machine_hot.h); a
     * miss, and the first write through a clean entry, go to Walk.
     */
    [[gnu::always_inline]] XlateResult
    Translate(uint32_t vaddr, bool write, bool kernel_mode)
    {
        if (!enabled_)
            return {XlateStatus::kOk, vaddr, 0, false};
        const TlbEntry* e = tlb_.Lookup(vaddr >> kPageShift);
        if (e == nullptr)
            return Walk(vaddr, write, kernel_mode);
        if (!kernel_mode && !e->user)
            return {XlateStatus::kAcv, 0, 0, false};
        if (write && !e->writable)
            return {XlateStatus::kAcv, 0, 0, false};
        if (write && !e->modified) {
            // First write through a clean entry: re-walk so the PTE's
            // modified bit is set in memory (extra page-table traffic,
            // faithfully visible to the tracer).
            tlb_.InvalidateVa(vaddr);
            return Walk(vaddr, write, kernel_mode);
        }
        const uint32_t pa =
            (e->pfn << kPageShift) | (vaddr & (kPageBytes - 1));
        return {XlateStatus::kOk, pa, 0, false};
    }

    Tlb& tlb() { return tlb_; }
    const Tlb& tlb() const { return tlb_; }

    /** Count of PTE fetches performed by table walks. */
    uint64_t pte_reads() const { return pte_reads_; }

    /**
     * Hands the MMU the machine's hardware event counters so table walks
     * can tally TB misses, fills, and PTE reads on the counter path too
     * (cpu/event_counters.h). Optional; null disables the tallies.
     */
    void set_event_counters(cpu::EventCounters* ev) { ev_ = ev; }

    /**
     * Publishes TB and page-walk tallies into `reg` as `mmu.*` counters
     * (lookups, hits, misses, pte_reads). Snapshot-time copy; the hot
     * translation path keeps its plain counters.
     */
    void PublishMetrics(obs::Registry& reg) const;

    /** Serializes MMU registers, statistics and the TB (checkpoint hook). */
    util::Status Save(util::StateWriter& w) const;
    /** Restores state saved by Save; TB geometry must match. */
    util::Status Restore(util::StateReader& r);

  private:
    XlateResult Walk(uint32_t vaddr, bool write, bool kernel_mode);

    PhysicalMemory& memory_;
    ucode::ControlStore& control_store_;
    Tlb tlb_;
    bool enabled_ = false;
    RegionRegs regions_[3];
    uint64_t pte_reads_ = 0;
    cpu::EventCounters* ev_ = nullptr;
};

}  // namespace atum::mmu

#endif  // ATUM_MMU_MMU_H_
