#include "tlbsim/tlb_sim.h"

#include "util/bitops.h"
#include "util/logging.h"

namespace atum::tlbsim {

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
      refs_({.include_kernel = config.include_kernel})
{
}

void
TlbSim::Switch()
{
    if (config_.flush_on_switch) {
        ++flushes_;
        tlb_.FlushProcessEntries();
    }
}

mmu::TlbEntry*
TlbSim::LookupOrInsert(uint32_t vpn)
{
    if (mmu::TlbEntry* hit = tlb_.Lookup(vpn); hit != nullptr)
        return hit;
    return tlb_.Insert({.vpn = vpn});
}

}  // namespace atum::tlbsim
