#ifndef ATUM_MEM_PHYSICAL_MEMORY_H_
#define ATUM_MEM_PHYSICAL_MEMORY_H_

/**
 * @file
 * The simulated machine's physical memory.
 *
 * A flat little-endian byte array addressed by physical address. The memory
 * may carve out a *reserved region* at its top: the ATUM trace buffer. The
 * reservation is advisory at this layer (microcode writes records there with
 * ordinary physical stores); the kernel's frame allocator simply never hands
 * out frames inside it.
 */

#include <cstdint>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace atum {

/** VAX-style page/frame size: 512 bytes. */
inline constexpr uint32_t kPageBytes = 512;
inline constexpr uint32_t kPageShift = 9;

class PhysicalMemory
{
  public:
    /**
     * Creates `bytes` of zeroed physical memory; `bytes` must be a nonzero
     * multiple of the page size.
     */
    explicit PhysicalMemory(uint32_t bytes);

    PhysicalMemory(const PhysicalMemory&) = delete;
    PhysicalMemory& operator=(const PhysicalMemory&) = delete;

    uint32_t size() const { return static_cast<uint32_t>(data_.size()); }
    uint32_t NumFrames() const { return size() / kPageBytes; }

    /** Reads the byte at `pa`; out-of-range access is a Panic. */
    uint8_t Read8(uint32_t pa) const;
    /** Reads a little-endian 16-bit value; need not be aligned. */
    uint16_t Read16(uint32_t pa) const;
    /** Reads a little-endian 32-bit value; need not be aligned. */
    uint32_t Read32(uint32_t pa) const;

    void Write8(uint32_t pa, uint8_t v);
    void Write16(uint32_t pa, uint16_t v);
    void Write32(uint32_t pa, uint32_t v);

    /** Copies `len` bytes out of memory starting at `pa`. */
    void ReadBlock(uint32_t pa, void* dst, uint32_t len) const;
    /** Copies `len` bytes into memory starting at `pa`. */
    void WriteBlock(uint32_t pa, const void* src, uint32_t len);

    /** Returns true iff [pa, pa+len) lies inside memory. */
    bool Contains(uint32_t pa, uint32_t len = 1) const;

    /**
     * Reserves `bytes` (page-multiple) at the top of memory, e.g. for the
     * ATUM trace buffer, and returns the region's base physical address.
     * At most one reservation may be active; Unreserve() releases it.
     */
    uint32_t ReserveTop(uint32_t bytes);
    void Unreserve();

    /** Serializes size, reservation and contents (checkpoint hook). */
    util::Status Save(util::StateWriter& w) const;
    /**
     * Restores state saved by Save into a memory of the same size with
     * the same reservation; mismatches are a data-loss Status, never a
     * crash (checkpoints are external input).
     */
    util::Status Restore(util::StateReader& r);

    /** Base of the reserved region, or size() when nothing is reserved. */
    uint32_t reserved_base() const { return reserved_base_; }
    uint32_t reserved_bytes() const { return size() - reserved_base_; }
    /** Frames below the reserved region (usable by an OS frame allocator). */
    uint32_t NumUsableFrames() const { return reserved_base_ / kPageBytes; }

  private:
    void CheckRange(uint32_t pa, uint32_t len) const;

    std::vector<uint8_t> data_;
    uint32_t reserved_base_;
};

}  // namespace atum

#endif  // ATUM_MEM_PHYSICAL_MEMORY_H_
