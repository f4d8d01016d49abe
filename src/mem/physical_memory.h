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

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace atum {

/** VAX-style page/frame size: 512 bytes. */
inline constexpr uint32_t kPageBytes = 512;
inline constexpr uint32_t kPageShift = 9;

// The scalar accessors copy host-order bytes; the guest is little-endian.
static_assert(std::endian::native == std::endian::little,
              "PhysicalMemory needs a little-endian host");

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

    // The accessors run on every guest reference and every trace record,
    // so they are forced inline: a range check, then a byte copy. An
    // out-of-range access is a Panic, raised out of line.

    /** Reads the byte at `pa`; out-of-range access is a Panic. */
    [[gnu::always_inline]] uint8_t Read8(uint32_t pa) const
    {
        return Load<uint8_t>(pa);
    }
    /** Reads a little-endian 16-bit value; need not be aligned. */
    [[gnu::always_inline]] uint16_t Read16(uint32_t pa) const
    {
        return Load<uint16_t>(pa);
    }
    /** Reads a little-endian 32-bit value; need not be aligned. */
    [[gnu::always_inline]] uint32_t Read32(uint32_t pa) const
    {
        return Load<uint32_t>(pa);
    }

    [[gnu::always_inline]] void Write8(uint32_t pa, uint8_t v)
    {
        Store(pa, v);
    }
    [[gnu::always_inline]] void Write16(uint32_t pa, uint16_t v)
    {
        Store(pa, v);
    }
    [[gnu::always_inline]] void Write32(uint32_t pa, uint32_t v)
    {
        Store(pa, v);
    }
    /**
     * Writes a little-endian 64-bit value, one packed trace record, with
     * no range check: the caller has checked once that its record buffer
     * lies inside memory (ucode::ControlStore::Install).
     */
    [[gnu::always_inline]] void Write64Unchecked(uint32_t pa, uint64_t v)
    {
        std::memcpy(data_.data() + pa, &v, sizeof v);
    }

    /** Copies `len` bytes out of memory starting at `pa`. */
    void ReadBlock(uint32_t pa, void* dst, uint32_t len) const
    {
        if (len == 0)
            return;
        CheckRange(pa, len);
        std::memcpy(dst, data_.data() + pa, len);
    }
    /** Copies `len` bytes into memory starting at `pa`. */
    void WriteBlock(uint32_t pa, const void* src, uint32_t len)
    {
        if (len == 0)
            return;
        CheckRange(pa, len);
        std::memcpy(data_.data() + pa, src, len);
    }

    /** Returns true iff [pa, pa+len) lies inside memory. */
    [[gnu::always_inline]] bool Contains(uint32_t pa,
                                         uint32_t len = 1) const
    {
        return pa < data_.size() && len <= data_.size() - pa;
    }

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
    [[gnu::always_inline]] void CheckRange(uint32_t pa, uint32_t len) const
    {
        if (!Contains(pa, len)) [[unlikely]]
            OutOfRange(pa, len);
    }
    [[noreturn]] void OutOfRange(uint32_t pa, uint32_t len) const;

    template <typename T>
    [[gnu::always_inline]] T Load(uint32_t pa) const
    {
        CheckRange(pa, sizeof(T));
        T v;
        std::memcpy(&v, data_.data() + pa, sizeof v);
        return v;
    }
    template <typename T>
    [[gnu::always_inline]] void Store(uint32_t pa, T v)
    {
        CheckRange(pa, sizeof(T));
        std::memcpy(data_.data() + pa, &v, sizeof v);
    }

    std::vector<uint8_t> data_;
    uint32_t reserved_base_;
};

}  // namespace atum

#endif  // ATUM_MEM_PHYSICAL_MEMORY_H_
