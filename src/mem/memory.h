/**
 * @file
 * Main-memory model: 60 ns access latency, 85 GB/s peak bandwidth over
 * four DDR4 channels (Table III).
 *
 * Latency is fixed; bandwidth is modeled by booking channel busy time per
 * 64-byte transfer, so saturating the channels (e.g. with useless
 * prefetches) queues subsequent accesses.
 */

#ifndef DCFB_MEM_MEMORY_H
#define DCFB_MEM_MEMORY_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace dcfb::mem {

/** Main-memory configuration (cycles at the 2 GHz core clock). */
struct MemoryConfig
{
    Cycle accessLatency = 120;  //!< 60 ns at 2 GHz
    unsigned channels = 4;
    /** Busy cycles one 64 B block keeps a channel: 85 GB/s total over 4
     *  channels is ~21.25 GB/s each -> 64 B / 21.25 GB/s = 3 ns = 6 cyc. */
    Cycle channelBusyPerBlock = 6;
};

/**
 * Latency + bandwidth model of the DRAM subsystem.
 */
class MemoryModel
{
  public:
    explicit MemoryModel(const MemoryConfig &config) : cfg(config),
        channelFree(config.channels, 0)
    {}

    /**
     * Access the block at @p addr starting at @p now; returns the cycle
     * the block is available at the LLC.
     */
    Cycle
    access(Addr addr, Cycle now)
    {
        unsigned ch = static_cast<unsigned>(blockNumber(addr)) %
            cfg.channels;
        Cycle start = std::max(now, channelFree[ch]);
        channelFree[ch] = start + cfg.channelBusyPerBlock;
        cAccesses.add();
        cQueueCycles.add(start - now);
        return start + cfg.accessLatency;
    }

    const StatSet &stats() const { return statSet; }
    StatSet &stats() { return statSet; }

  private:
    MemoryConfig cfg;
    std::vector<Cycle> channelFree;
    StatSet statSet;
    obs::Counter cAccesses = statSet.counter("mem_accesses");
    obs::Counter cQueueCycles = statSet.counter("mem_queue_cycles");
};

} // namespace dcfb::mem

#endif // DCFB_MEM_MEMORY_H
