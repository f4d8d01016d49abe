#include "cpu/machine.h"

#include "cpu/machine_hot.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace atum::cpu {

using ucode::MemAccess;
using ucode::MemAccessKind;

uint32_t
Psl::ToWord() const
{
    return (c ? 1u : 0) | (v ? 2u : 0) | (z ? 4u : 0) | (n ? 8u : 0) |
           (static_cast<uint32_t>(ipl & 0x1f) << 16) |
           (static_cast<uint32_t>(cur_mode) << 24) |
           (static_cast<uint32_t>(prev_mode) << 25);
}

Psl
Psl::FromWord(uint32_t w)
{
    Psl p;
    p.c = w & 1;
    p.v = w & 2;
    p.z = w & 4;
    p.n = w & 8;
    p.ipl = (w >> 16) & 0x1f;
    p.cur_mode = static_cast<CpuMode>((w >> 24) & 1);
    p.prev_mode = static_cast<CpuMode>((w >> 25) & 1);
    return p;
}

Machine::Machine(const Config& config)
    : memory_(config.mem_bytes),
      control_store_(memory_),
      mmu_(memory_, control_store_, config.tlb_sets, config.tlb_ways),
      opcode_gates_(isa::OpcodeGates()),
      icr_reload_(config.timer_reload),
      icr_count_(config.timer_reload)
{
    if (config.timer_reload == 0)
        Fatal("timer_reload must be nonzero");
    mmu_.set_event_counters(&ev_);
}

uint32_t
Machine::reg(unsigned n) const
{
    if (n >= isa::kNumRegs)
        Panic("register index ", n, " out of range");
    return regs_[n];
}

void
Machine::set_reg(unsigned n, uint32_t v)
{
    if (n >= isa::kNumRegs)
        Panic("register index ", n, " out of range");
    regs_[n] = v;
    if (n == isa::kRegPc)
        InvalidateIBuf();
}

uint32_t
Machine::ReadIpr(isa::Ipr ipr)
{
    using isa::Ipr;
    switch (ipr) {
      case Ipr::kKsp:
        return psl_.cur_mode == CpuMode::kKernel ? regs_[isa::kRegSp]
                                                 : banked_sp_[0];
      case Ipr::kUsp:
        return psl_.cur_mode == CpuMode::kUser ? regs_[isa::kRegSp]
                                               : banked_sp_[1];
      case Ipr::kP0Br:
        return mmu_.GetRegion(mmu::Region::kP0).base;
      case Ipr::kP0Lr:
        return mmu_.GetRegion(mmu::Region::kP0).length;
      case Ipr::kP1Br:
        return mmu_.GetRegion(mmu::Region::kP1).base;
      case Ipr::kP1Lr:
        return mmu_.GetRegion(mmu::Region::kP1).length;
      case Ipr::kS0Br:
        return mmu_.GetRegion(mmu::Region::kS0).base;
      case Ipr::kS0Lr:
        return mmu_.GetRegion(mmu::Region::kS0).length;
      case Ipr::kScbb:
        return scbb_;
      case Ipr::kPcbb:
        return pcbb_;
      case Ipr::kMapen:
        return mmu_.enabled() ? 1 : 0;
      case Ipr::kIccs:
        return iccs_;
      case Ipr::kIcr:
        return icr_reload_;
      case Ipr::kPid:
        return pid_;
      case Ipr::kDmaSrc:
        return dma_src_;
      case Ipr::kDmaDst:
        return dma_dst_;
      case Ipr::kDmaLen:
        return dma_len_;
      case Ipr::kDmaCtl:
        return dma_delay_ > 0 ? 1 : 0;  // busy bit
      case Ipr::kTbia:
      case Ipr::kTbis:
      case Ipr::kConsTx:
      case Ipr::kSirr:
        return 0;  // write-only registers read as zero
      case Ipr::kNumIprs:
        break;
    }
    Panic("ReadIpr: bad processor register");
}

void
Machine::WriteIpr(isa::Ipr ipr, uint32_t v)
{
    using isa::Ipr;
    switch (ipr) {
      case Ipr::kKsp:
        if (psl_.cur_mode == CpuMode::kKernel)
            regs_[isa::kRegSp] = v;
        else
            banked_sp_[0] = v;
        return;
      case Ipr::kUsp:
        if (psl_.cur_mode == CpuMode::kUser)
            regs_[isa::kRegSp] = v;
        else
            banked_sp_[1] = v;
        return;
      case Ipr::kP0Br:
        mmu_.SetRegion(mmu::Region::kP0,
                       {v, mmu_.GetRegion(mmu::Region::kP0).length});
        return;
      case Ipr::kP0Lr:
        mmu_.SetRegion(mmu::Region::kP0,
                       {mmu_.GetRegion(mmu::Region::kP0).base, v});
        return;
      case Ipr::kP1Br:
        mmu_.SetRegion(mmu::Region::kP1,
                       {v, mmu_.GetRegion(mmu::Region::kP1).length});
        return;
      case Ipr::kP1Lr:
        mmu_.SetRegion(mmu::Region::kP1,
                       {mmu_.GetRegion(mmu::Region::kP1).base, v});
        return;
      case Ipr::kS0Br:
        mmu_.SetRegion(mmu::Region::kS0,
                       {v, mmu_.GetRegion(mmu::Region::kS0).length});
        return;
      case Ipr::kS0Lr:
        mmu_.SetRegion(mmu::Region::kS0,
                       {mmu_.GetRegion(mmu::Region::kS0).base, v});
        return;
      case Ipr::kScbb:
        scbb_ = v;
        return;
      case Ipr::kPcbb:
        pcbb_ = v;
        return;
      case Ipr::kMapen:
        mmu_.set_enabled(v & 1);
        InvalidateIBuf();
        return;
      case Ipr::kTbia:
        mmu_.tlb().InvalidateAll();
        return;
      case Ipr::kTbis:
        mmu_.tlb().InvalidateVa(v);
        return;
      case Ipr::kIccs:
        iccs_ = v & 1;
        icr_count_ = icr_reload_;
        return;
      case Ipr::kIcr:
        if (v == 0)
            Fatal("ICR reload of 0");
        icr_reload_ = v;
        icr_count_ = v;
        return;
      case Ipr::kConsTx:
        console_output_.push_back(static_cast<char>(v & 0xff));
        return;
      case Ipr::kSirr:
        software_pending_ = true;
        return;
      case Ipr::kPid:
        pid_ = v;
        return;
      case Ipr::kDmaSrc:
        dma_src_ = v;
        return;
      case Ipr::kDmaDst:
        dma_dst_ = v;
        return;
      case Ipr::kDmaLen:
        dma_len_ = v;
        return;
      case Ipr::kDmaCtl:
        if (v & 1)
            StartDma();
        return;
      case Ipr::kNumIprs:
        break;
    }
    Panic("WriteIpr: bad processor register");
}

void
Machine::StartDma()
{
    if (dma_len_ == 0 || (dma_len_ & 3) != 0)
        Panic("DMA: length must be a nonzero multiple of 4, got ", dma_len_);
    if (!memory_.Contains(dma_src_, dma_len_) ||
        !memory_.Contains(dma_dst_, dma_len_)) {
        Panic("DMA: transfer outside physical memory (src=0x", std::hex,
              dma_src_, " dst=0x", dma_dst_, " len=0x", dma_len_, ")");
    }
    // The engine writes the destination over the bus; like HMTT's bus
    // snooper, the trace sees one kDma reference per word on the write
    // side only. The source read happens on the device's private port.
    for (uint32_t off = 0; off < dma_len_; off += 4) {
        memory_.Write32(dma_dst_ + off, memory_.Read32(dma_src_ + off));
        AddCycles(control_store_.FireMemAccess(
            MemAccess{dma_dst_ + off, dma_dst_ + off, 4,
                      MemAccessKind::kDma, true}));
    }
    ev_.dma_bytes += dma_len_;
    // Completion interrupt after roughly one word per instruction slot,
    // restarting any countdown already in flight (transfers coalesce).
    dma_delay_ = dma_len_ / 4 + 8;
}

bool
Machine::MicroReadProfiled(uint32_t va, uint8_t size, MemAccessKind kind,
                           uint32_t* out)
{
    return MicroRead<true>(va, size, kind, out);
}

bool
Machine::MicroWriteProfiled(uint32_t va, uint8_t size, uint32_t value)
{
    return MicroWrite<true>(va, size, value);
}

bool
Machine::RefillIBuf(uint32_t aligned)
{
    uint32_t word;
    if (!MicroRead(aligned, 4, MemAccessKind::kIFetch, &word))
        return false;
    ibuf_va_ = aligned;
    for (int i = 0; i < 4; ++i)
        ibuf_bytes_[i] = static_cast<uint8_t>(word >> (8 * i));
    ibuf_valid_ = true;
    ++ibuf_refills_;
    return true;
}

void
Machine::PublishMetrics(obs::Registry& reg) const
{
    reg.GetCounter("cpu.instructions").Set(icount_);
    reg.GetCounter("cpu.ucycles").Set(ucycles_);
    reg.GetCounter("cpu.exceptions").Set(exceptions_);
    reg.GetCounter("cpu.ibuf_refills").Set(ibuf_refills_);
    reg.GetGauge("cpu.halted").Set(halted_ ? 1 : 0);
    // Hardware event counters (docs/COUNTERS.md): the tracer-independent
    // ground truth that atum-report --crosscheck validates traces against.
    reg.GetCounter("cpu.ev.instructions").Set(ev_.instructions);
    reg.GetCounter("cpu.ev.ifetches").Set(ev_.ifetches);
    reg.GetCounter("cpu.ev.reads").Set(ev_.reads);
    reg.GetCounter("cpu.ev.writes").Set(ev_.writes);
    reg.GetCounter("cpu.ev.pte_reads").Set(ev_.pte_reads);
    reg.GetCounter("cpu.ev.tlb_misses").Set(ev_.tlb_misses);
    reg.GetCounter("cpu.ev.tlb_fills").Set(ev_.tlb_fills);
    reg.GetCounter("cpu.ev.exceptions").Set(ev_.exceptions);
    reg.GetCounter("cpu.ev.syscalls").Set(ev_.syscalls);
    reg.GetCounter("cpu.ev.dma_bytes").Set(ev_.dma_bytes);
    mmu_.PublishMetrics(reg);
}

util::Status
Machine::Save(util::StateWriter& w) const
{
    for (uint32_t reg : regs_)
        w.U32(reg);
    w.U32(psl_.ToWord());
    w.U32(banked_sp_[0]);
    w.U32(banked_sp_[1]);
    w.U32(scbb_);
    w.U32(pcbb_);
    w.U32(pid_);
    w.U32(iccs_);
    w.U32(icr_reload_);
    w.U32(icr_count_);
    w.Bool(timer_pending_);
    w.Bool(software_pending_);
    w.Bool(halted_);
    w.Bool(last_step_faulted_);
    w.U64(icount_);
    w.U64(ucycles_);
    // The prefetch buffer is saved exactly: invalidating it instead would
    // insert a refetch — and so an extra ifetch trace record — that the
    // uninterrupted run does not have.
    w.Bool(ibuf_valid_);
    w.U32(ibuf_va_);
    w.Bytes(ibuf_bytes_, sizeof ibuf_bytes_);
    // DMA engine registers and the in-flight completion countdown.
    w.U32(dma_src_);
    w.U32(dma_dst_);
    w.U32(dma_len_);
    w.U32(dma_delay_);
    w.Bool(dma_pending_);
    // Hardware event counters are checkpointed (unlike the observability
    // tallies above) so crosscheck intervals stay valid across resume.
    w.U64(ev_.instructions);
    w.U64(ev_.ifetches);
    w.U64(ev_.reads);
    w.U64(ev_.writes);
    w.U64(ev_.pte_reads);
    w.U64(ev_.tlb_misses);
    w.U64(ev_.tlb_fills);
    w.U64(ev_.exceptions);
    w.U64(ev_.syscalls);
    w.U64(ev_.dma_bytes);
    // pending_fault_ and the restart journal are live only *inside* one
    // StepOne; at an instruction boundary they carry nothing, so they are
    // reset on restore rather than serialized.
    w.Str(console_output_);
    util::Status status = memory_.Save(w);
    if (!status.ok())
        return status;
    return mmu_.Save(w);
}

util::Status
Machine::Restore(util::StateReader& r)
{
    for (uint32_t& reg : regs_)
        reg = r.U32();
    psl_ = Psl::FromWord(r.U32());
    banked_sp_[0] = r.U32();
    banked_sp_[1] = r.U32();
    scbb_ = r.U32();
    pcbb_ = r.U32();
    pid_ = r.U32();
    iccs_ = r.U32();
    icr_reload_ = r.U32();
    icr_count_ = r.U32();
    timer_pending_ = r.Bool();
    software_pending_ = r.Bool();
    halted_ = r.Bool();
    last_step_faulted_ = r.Bool();
    icount_ = r.U64();
    ucycles_ = r.U64();
    ibuf_valid_ = r.Bool();
    ibuf_va_ = r.U32();
    r.Bytes(ibuf_bytes_, sizeof ibuf_bytes_);
    dma_src_ = r.U32();
    dma_dst_ = r.U32();
    dma_len_ = r.U32();
    dma_delay_ = r.U32();
    dma_pending_ = r.Bool();
    ev_.instructions = r.U64();
    ev_.ifetches = r.U64();
    ev_.reads = r.U64();
    ev_.writes = r.U64();
    ev_.pte_reads = r.U64();
    ev_.tlb_misses = r.U64();
    ev_.tlb_fills = r.U64();
    ev_.exceptions = r.U64();
    ev_.syscalls = r.U64();
    ev_.dma_bytes = r.U64();
    console_output_ = r.Str();
    pending_fault_.active = false;
    if (!r.ok())
        return r.status();
    if (icr_reload_ == 0 || icr_count_ == 0) {
        return util::DataLoss(
            "checkpoint carries a zero interval-timer count");
    }
    util::Status status = memory_.Restore(r);
    if (!status.ok())
        return status;
    return mmu_.Restore(r);
}

Machine::RunResult
Machine::Run(uint64_t max_instructions)
{
    const uint64_t start = icount_;
    while (!halted_ && icount_ - start < max_instructions)
        StepOne();
    return {halted_ ? StopReason::kHalted : StopReason::kInstrLimit,
            icount_ - start};
}

}  // namespace atum::cpu
