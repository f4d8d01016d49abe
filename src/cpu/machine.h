#ifndef ATUM_CPU_MACHINE_H_
#define ATUM_CPU_MACHINE_H_

/**
 * @file
 * The VCX-32 machine: CPU state, the microcoded execution loop, exception
 * and interrupt machinery, and the devices (interval timer, console).
 *
 * The machine executes every architectural memory reference through
 * MicroRead/MicroWrite, which (a) translate through the MMU, (b) report
 * the reference to the control store's kMemAccess patch point, and
 * (c) account micro-cycles. This is the structural analogue of the
 * VAX 8200's microcode that ATUM patched.
 *
 * Faulting instructions are restartable: general-register state is
 * journaled at instruction start and rolled back before the exception is
 * dispatched, so demand paging works for any instruction, including the
 * multi-reference string ops.
 */

#include <cstdint>
#include <string>

#include "cpu/event_counters.h"
#include "isa/isa.h"
#include "mem/physical_memory.h"
#include "mmu/mmu.h"
#include "ucode/control_store.h"
#include "util/serialize.h"
#include "util/status.h"

namespace atum::obs {
class Registry;
class PhaseProfiler;
}

namespace atum::cpu {

/** CPU privilege modes. */
enum class CpuMode : uint8_t { kKernel = 0, kUser = 1 };

/** SCB exception/interrupt vector indices. */
enum class ExcVector : uint8_t {
    kStray = 0,
    kMachineCheck = 1,
    kReservedInstr = 2,   ///< unassigned opcode
    kReservedOperand = 3, ///< illegal addressing-mode use
    kPrivInstr = 4,       ///< privileged instruction in user mode
    kAcv = 5,             ///< access violation (+va, +reason frame)
    kTnv = 6,             ///< translation not valid / page fault (+va, +reason)
    kArith = 7,           ///< divide by zero, overflow traps
    kBpt = 8,
    kChmk = 9,            ///< system call (+code frame)
    kTimer = 10,          ///< interval timer interrupt
    kSoftware = 11,       ///< SIRR-requested software interrupt
    kDmaDone = 12,        ///< DMA transfer-complete interrupt
    kNumVectors = 16,
};

/** Processor status longword. */
struct Psl {
    bool c = false;
    bool v = false;
    bool z = false;
    bool n = false;
    uint8_t ipl = 0;  ///< interrupt priority level, 0..31
    CpuMode cur_mode = CpuMode::kKernel;
    CpuMode prev_mode = CpuMode::kKernel;

    uint32_t ToWord() const;
    static Psl FromWord(uint32_t w);
};

/** Interval-timer interrupt priority level. */
inline constexpr uint8_t kTimerIpl = 20;
/** Software-interrupt priority level. */
inline constexpr uint8_t kSoftwareIpl = 4;
/** DMA-completion interrupt priority level (a device, above the clock). */
inline constexpr uint8_t kDmaIpl = 21;

/**
 * Process control block layout (physical memory, PCBB-addressed), used by
 * SVPCTX/LDPCTX microcode. Offsets in bytes.
 */
struct PcbLayout {
    static constexpr uint32_t kRegs = 0;    ///< r0..r13, 14 longwords
    static constexpr uint32_t kUsp = 56;
    static constexpr uint32_t kPc = 60;
    static constexpr uint32_t kPsl = 64;
    static constexpr uint32_t kP0Br = 68;
    static constexpr uint32_t kP0Lr = 72;
    static constexpr uint32_t kP1Br = 76;
    static constexpr uint32_t kP1Lr = 80;
    static constexpr uint32_t kPid = 84;
    static constexpr uint32_t kSize = 88;
};

class Machine
{
  public:
    struct Config {
        uint32_t mem_bytes = 4u << 20;
        unsigned tlb_sets = 32;
        unsigned tlb_ways = 2;
        uint32_t timer_reload = 5000;  ///< instructions per timer tick
    };

    explicit Machine(const Config& config);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    PhysicalMemory& memory() { return memory_; }
    mmu::Mmu& mmu() { return mmu_; }
    ucode::ControlStore& control_store() { return control_store_; }

    /** General register access (r15 is the PC). */
    uint32_t reg(unsigned n) const;
    void set_reg(unsigned n, uint32_t v);
    uint32_t pc() const { return regs_[isa::kRegPc]; }
    void set_pc(uint32_t pc)
    {
        regs_[isa::kRegPc] = pc;
        InvalidateIBuf();
    }

    Psl& psl() { return psl_; }
    const Psl& psl() const { return psl_; }

    /** Processor-register access, as MTPR/MFPR perform it. */
    uint32_t ReadIpr(isa::Ipr ipr);
    void WriteIpr(isa::Ipr ipr, uint32_t v);

    /** Why Run() returned. */
    enum class StopReason { kHalted, kInstrLimit };

    struct RunResult {
        StopReason reason;
        uint64_t instructions;  ///< icount advance during this Run call
    };

    /**
     * Executes until HALT or until icount() has advanced by
     * `max_instructions`. This cpu-layer primitive counts instructions
     * only; interrupt deliveries take a StepOne but no icount. The
     * session run loop (core/session.h) counts steps instead, so its
     * `instructions` also includes the interrupt deliveries.
     */
    RunResult Run(uint64_t max_instructions);

    /**
     * Executes one instruction or takes one pending interrupt: a step.
     * Implemented in executor.cc, where the instruction's set-up and
     * abort handling inline into it.
     */
    void StepOne();

    bool halted() const { return halted_; }
    /** Clears the halted latch so execution can be resumed by tests. */
    void ClearHalt() { halted_ = false; }

    uint64_t icount() const { return icount_; }
    uint64_t ucycles() const { return ucycles_; }
    /**
     * Hardware-style event counters, maintained independently of any
     * tracer patch (see cpu/event_counters.h and docs/COUNTERS.md).
     */
    const EventCounters& event_counters() const { return ev_; }
    /** Exception/interrupt dispatches performed so far. */
    uint64_t exceptions_dispatched() const { return exceptions_; }
    /** Instruction prefetch-buffer refills (one aligned longword each). */
    uint64_t ibuf_refills() const { return ibuf_refills_; }

    /**
     * Publishes the machine's internal tallies (instructions, ucycles,
     * exceptions, prefetch refills, TB and page-walk traffic) into `reg`
     * as `cpu.*` / `mmu.*` counters. The tallies themselves are plain
     * members updated on the interpreter hot path for free; publishing
     * copies them out at snapshot boundaries (docs/METRICS.md).
     */
    void PublishMetrics(obs::Registry& reg) const;

    /**
     * Attaches the sampling phase profiler (obs/spans.h) driven by the
     * supervised run loop, which attaches it only for the steps its
     * sampled windows cover. While one is attached, every reference takes
     * the profiled, out-of-line instantiation of Translate/MicroRead/
     * MicroWrite, which attributes its time to the translate/memory/
     * tracer phases when the profiler has a sampled window open. With no
     * profiler (the default) the inline reference path pays one pointer
     * test and carries no profiler code (cpu/machine_hot.h).
     */
    void SetPhaseProfiler(obs::PhaseProfiler* profiler)
    {
        profiler_ = profiler;
    }

    /**
     * Serializes the *complete* machine — architectural state, physical
     * memory, MMU registers, console output, and the exact
     * microarchitectural state too: TB contents and the instruction
     * prefetch buffer. A restored machine re-executes the identical
     * micro-event stream (ifetches, TB misses, PTE walks), which the
     * checkpoint/resume subsystem needs for byte-identical traces.
     * Must be called at an instruction boundary (between StepOne calls).
     */
    util::Status Save(util::StateWriter& w) const;
    /**
     * Restores state saved by Save into a machine built with the same
     * Config. Mismatches (memory size, TB geometry) and truncation are
     * reported as a Status — a corrupt checkpoint never crashes.
     */
    util::Status Restore(util::StateReader& r);

    /** Bytes written to the console via the ConsTx processor register. */
    const std::string& console_output() const { return console_output_; }

    /**
     * Reports whether the last completed StepOne dispatched an exception
     * or interrupt (used by tests).
     */
    bool LastStepFaulted() const { return last_step_faulted_; }

  private:
    // --- implemented in machine.cc ---
    void AddCycles(uint32_t c) { ucycles_ += c; }
    uint32_t BankedSpSlot(CpuMode mode_of_slot) const;

    // --- inline, defined in cpu/machine_hot.h ---
    // Micro-level memory access. Returns false when a fault was recorded
    // in pending_fault_ (the caller aborts the instruction). Callers use
    // the default, unprofiled instantiation; it hands the reference to
    // the profiled one while a PhaseProfiler is attached.
    template <bool kProfiled = false>
    inline bool Translate(uint32_t va, bool write, uint32_t* pa);
    template <bool kProfiled = false>
    inline bool MicroRead(uint32_t va, uint8_t size,
                          ucode::MemAccessKind kind, uint32_t* out);
    template <bool kProfiled = false>
    inline bool MicroWrite(uint32_t va, uint8_t size, uint32_t value);
    // The profiled instantiations, out of line (machine.cc).
    bool MicroReadProfiled(uint32_t va, uint8_t size,
                           ucode::MemAccessKind kind, uint32_t* out);
    bool MicroWriteProfiled(uint32_t va, uint8_t size, uint32_t value);

    // Instruction-stream byte fetch through the prefetch buffer; a miss
    // calls RefillIBuf (machine.cc) to fetch the aligned longword.
    inline bool FetchByte(uint8_t* out);
    bool RefillIBuf(uint32_t aligned);
    void InvalidateIBuf() { ibuf_valid_ = false; }

    // DMA engine: copies immediately (the memory image is consistent at
    // once), then raises the completion interrupt after a transfer-sized
    // number of retired instructions, so completion lands at a
    // deterministic point in the instruction stream.
    void StartDma();

    // --- implemented in exceptions.cc ---
    void DispatchException(ExcVector vector, uint32_t extra0, uint32_t extra1,
                           unsigned num_extra, uint32_t restart_pc);
    void DispatchSimple(ExcVector vector, uint32_t restart_pc);
    bool CheckInterrupts();
    void DoRei();
    void SwitchMode(CpuMode new_mode);
    void PushKernel(uint32_t value);  ///< push during dispatch; double fault panics

    friend class Executor;  ///< the instruction executor (executor.cc)

    PhysicalMemory memory_;
    ucode::ControlStore control_store_;
    mmu::Mmu mmu_;
    const uint8_t* const opcode_gates_;  ///< isa::OpcodeGates()

    uint32_t regs_[isa::kNumRegs] = {};
    Psl psl_;
    uint32_t banked_sp_[2] = {};  ///< [kernel, user] inactive stack pointers

    // Processor registers not owned by the MMU.
    uint32_t scbb_ = 0;
    uint32_t pcbb_ = 0;
    uint32_t pid_ = 0;
    uint32_t iccs_ = 0;
    uint32_t icr_reload_;
    uint32_t icr_count_;

    bool timer_pending_ = false;
    bool software_pending_ = false;

    // DMA engine registers and completion countdown (in instructions).
    uint32_t dma_src_ = 0;
    uint32_t dma_dst_ = 0;
    uint32_t dma_len_ = 0;
    uint32_t dma_delay_ = 0;
    bool dma_pending_ = false;

    bool halted_ = false;
    uint64_t icount_ = 0;
    uint64_t ucycles_ = 0;
    // Hardware event counters: checkpointed, so crosscheck intervals stay
    // valid across resume (docs/COUNTERS.md).
    EventCounters ev_;
    // Observability tallies (not checkpointed: metrics restart at zero on
    // resume, by design).
    uint64_t exceptions_ = 0;
    uint64_t ibuf_refills_ = 0;
    bool last_step_faulted_ = false;
    obs::PhaseProfiler* profiler_ = nullptr;

    // Pending fault set by MicroRead/MicroWrite.
    struct PendingFault {
        bool active = false;
        mmu::XlateStatus status = mmu::XlateStatus::kOk;
        uint32_t va = 0;
        bool write = false;
    } pending_fault_;

    // Instruction prefetch buffer: one aligned longword.
    bool ibuf_valid_ = false;
    uint32_t ibuf_va_ = 0;
    uint8_t ibuf_bytes_[4] = {};

    // Journal for instruction restart.
    uint32_t journal_regs_[isa::kNumRegs] = {};
    Psl journal_psl_;

    std::string console_output_;
};

}  // namespace atum::cpu

#endif  // ATUM_CPU_MACHINE_H_
