#include "cache/write_buffer.h"

#include "util/bitops.h"
#include "util/logging.h"

namespace atum::cache {

WriteBuffer::WriteBuffer(const WriteBufferConfig& config) : config_(config)
{
    if (config.depth == 0)
        Fatal("write buffer depth must be nonzero");
    if (config.retire_cycles == 0)
        Fatal("retire_cycles must be nonzero");
    if (!IsPowerOfTwo(config.block_bytes))
        Fatal("write-buffer block size must be a power of two");
}

void
WriteBuffer::Drain()
{
    while (!pending_.empty() && pending_.front().done_at <= now_)
        pending_.pop_front();
}

uint32_t
WriteBuffer::Write(uint32_t addr)
{
    ++now_;  // the store itself is one processor cycle
    Drain();
    ++writes_;
    const uint32_t block = addr / config_.block_bytes;

    for (const Entry& e : pending_) {
        if (e.block == block) {
            ++coalesced_;
            return 0;
        }
    }

    uint32_t stall = 0;
    if (pending_.size() >= config_.depth) {
        // Stall until the oldest entry finishes on the bus.
        const uint64_t wait = pending_.front().done_at - now_;
        stall = static_cast<uint32_t>(wait);
        stall_cycles_ += wait;
        now_ += wait;
        Drain();
    }

    const uint64_t start = bus_free_at_ > now_ ? bus_free_at_ : now_;
    const uint64_t done = start + config_.retire_cycles;
    bus_free_at_ = done;
    pending_.push_back({block, done});
    return stall;
}

double
WriteBuffer::StallsPerWrite() const
{
    return writes_ == 0 ? 0.0
                        : static_cast<double>(stall_cycles_) /
                              static_cast<double>(writes_);
}

}  // namespace atum::cache
