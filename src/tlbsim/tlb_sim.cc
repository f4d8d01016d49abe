#include "tlbsim/tlb_sim.h"

#include "mem/physical_memory.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace atum::tlbsim {

using trace::Record;
using trace::RefFilter;

util::Status
ValidateConfig(const TlbSimConfig& config)
{
    if (config.entries == 0 || !IsPowerOfTwo(config.entries))
        return util::InvalidArgument(
            "TLB entries must be a power of two, got ", config.entries);
    const uint32_t ways = config.ways == 0 ? config.entries : config.ways;
    if (ways > config.entries || config.entries % ways != 0)
        return util::InvalidArgument("bad TLB geometry: ", config.entries,
                                     " entries, ", ways, " ways");
    if (!IsPowerOfTwo(config.entries / ways))
        return util::InvalidArgument("TLB set count must be a power of two");
    return util::OkStatus();
}

namespace {

/** The TB geometry `config` names; Fatal when ValidateConfig rejects it. */
mmu::Tlb
MakeTlb(const TlbSimConfig& config)
{
    if (util::Status status = ValidateConfig(config); !status.ok())
        Fatal(status.message());
    const uint32_t ways = config.ways == 0 ? config.entries : config.ways;
    return mmu::Tlb(config.entries / ways, ways);
}

}  // namespace

TlbSim::TlbSim(const TlbSimConfig& config)
    : config_(config),
      tlb_(MakeTlb(config)),
      refs_({.include_kernel = config.include_kernel,
             .include_pte = config.include_pte})
{
}

void
TlbSim::Feed(const Record& record)
{
    switch (refs_.Classify(record)) {
      case RefFilter::kSwitch:
        if (config_.flush_on_switch) {
            ++flushes_;
            if (config_.flush_system_too)
                tlb_.InvalidateAll();
            else
                tlb_.FlushProcessEntries();
        }
        return;
      case RefFilter::kRef: {
        const uint32_t vpn = record.addr >> kPageShift;
        if (tlb_.Lookup(vpn) == nullptr)
            tlb_.Insert({.vpn = vpn});
        return;
      }
      default:
        return;
    }
}

}  // namespace atum::tlbsim
