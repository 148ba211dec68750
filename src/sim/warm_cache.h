/**
 * @file
 * Shared functional-warmup checkpoints: warm once, restore many.
 *
 * Every System replays `functionalWarmInstrs` retired instructions into
 * its LLC, L1i, L1d, TAGE and BTB before the timed windows (the stand-in
 * for the paper's SimFlex checkpoints, DESIGN.md §7).  For a fixed
 * image, runSeed and warmed geometry that pass is the same for every
 * preset whose warm path does not prime a preset-private structure, so
 * the first cell of such a key walks and captures a WarmCheckpoint and
 * every later cell copies it into its own arena-resident components.
 *
 * The cache is keyed by image *identity* (the shared_ptr owner, never a
 * raw address), so it only serves cells that share an image through
 * SystemConfig::program; a privately built image is always warmed in
 * place.  Entries hold the image weakly and are pruned once its last
 * owner drops it, so a checkpoint never outlives its image.
 */

#ifndef DCFB_SIM_WARM_CACHE_H
#define DCFB_SIM_WARM_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "frontend/btb.h"
#include "frontend/tage.h"
#include "mem/l1d.h"
#include "mem/l1i.h"
#include "mem/llc.h"
#include "sim/config.h"
#include "workload/trace.h"

namespace dcfb::sim {

/** The state a functional warmup leaves behind, component by component. */
struct WarmCheckpoint
{
    workload::TraceWalker::State walker;
    mem::Llc::Checkpoint llc;
    mem::L1iCache::Checkpoint l1i;
    mem::L1dCache::Checkpoint l1d;
    frontend::Tage::Checkpoint tage;
    frontend::Btb::Checkpoint btb;
};

/**
 * True when @p preset's functional warmup touches only the shared
 * structures (PresetRow::warm is WarmMode::Shared).  The others warm
 * privately and store nothing.
 */
bool sharesWarmup(Preset preset);

/**
 * Process-wide cache of functional-warmup checkpoints.
 *
 * Thread-safe.  The first request for a key runs the caller's build
 * function outside the cache lock; concurrent requests for the same key
 * block on that entry (no spinning, no global lock across the walk) and
 * then share its checkpoint.
 */
class WarmCache
{
  public:
    /** Result of get(): the key's checkpoint and whether this call
     *  produced it (the builder's components already hold the state). */
    struct Lookup
    {
        std::shared_ptr<const WarmCheckpoint> state;
        bool built = false;
    };

    /**
     * The checkpoint for @p cfg's key (cfg.program must be set), running
     * @p build to produce it on the key's first request.  If @p build
     * throws, the exception propagates and the next request rebuilds.
     */
    Lookup get(const SystemConfig &cfg,
               const std::function<WarmCheckpoint()> &build);

    /** Live entries, after pruning those whose image has expired. */
    std::size_t entries();

    /** Checkpoints built (walks run) so far. */
    std::size_t builds() const { return buildCount.load(); }

    /** Requests served from an existing checkpoint so far. */
    std::size_t hits() const { return hitCount.load(); }

    /** The cache every System consults. */
    static WarmCache &global();

  private:
    struct Entry;

    /** Drop entries whose image has no owner left (lock held). */
    void prune();

    std::mutex mutex;
    std::vector<std::shared_ptr<Entry>> cache;
    std::atomic<std::size_t> buildCount{0};
    std::atomic<std::size_t> hitCount{0};
};

} // namespace dcfb::sim

#endif // DCFB_SIM_WARM_CACHE_H
