#ifndef ATUM_CACHE_WRITE_BUFFER_H_
#define ATUM_CACHE_WRITE_BUFFER_H_

/**
 * @file
 * A coalescing write buffer for write-through caches.
 *
 * Mid-80s machines (the 8200 family included) were mostly write-through,
 * so the write buffer was the component that decided whether stores
 * stalled the processor. The model: the processor advances one cycle per
 * reference; each buffered write occupies the memory bus for
 * kRetireCycles; the buffer holds `depth` entries; a store arriving at
 * a full buffer stalls the processor until a slot retires. A store to a
 * kBlockBytes block already pending coalesces into that entry and costs
 * no slot.
 */

#include <cstdint>
#include <deque>

namespace atum::cache {

struct WriteBufferConfig {
    uint32_t depth = 4;
};

class WriteBuffer
{
  public:
    /** Memory-bus occupancy per entry, in processor cycles. */
    static constexpr uint32_t kRetireCycles = 6;
    /** Coalescing granule: one longword. */
    static constexpr uint32_t kBlockBytes = 4;

    explicit WriteBuffer(const WriteBufferConfig& config);

    /** Advances processor time by one non-store reference. */
    void OnReference() { ++now_; Drain(); }

    /**
     * Enqueues a store to `addr`. Returns the stall cycles incurred
     * (0 when a slot was free or the store coalesced).
     */
    uint32_t Write(uint32_t addr);

    uint64_t writes() const { return writes_; }
    uint64_t coalesced() const { return coalesced_; }
    uint64_t stall_cycles() const { return stall_cycles_; }
    uint64_t now() const { return now_; }
    /** Average stall cycles per store. */
    double StallsPerWrite() const;

  private:
    void Drain();

    WriteBufferConfig config_;
    /** Pending entries: block number and bus-completion time. */
    struct Entry {
        uint32_t block;
        uint64_t done_at;
    };
    std::deque<Entry> pending_;
    uint64_t now_ = 0;
    uint64_t bus_free_at_ = 0;
    uint64_t writes_ = 0;
    uint64_t coalesced_ = 0;
    uint64_t stall_cycles_ = 0;
};

}  // namespace atum::cache

#endif  // ATUM_CACHE_WRITE_BUFFER_H_
