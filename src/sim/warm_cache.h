/**
 * @file
 * Shared functional-warmup checkpoints: warm once, restore many.
 *
 * Every System replays `functionalWarmInstrs` retired instructions into
 * its LLC, L1i, L1d, TAGE and conventional BTB before the timed windows
 * (the stand-in for the paper's SimFlex checkpoints, DESIGN.md §7).  For
 * a fixed image, runSeed and cache geometry that pass is the same for
 * every preset, so the first cell of a key walks and captures a
 * WarmCheckpoint and every later cell copies it into its own
 * arena-resident components.
 *
 * The BTB geometry is not part of the key: a checkpoint records the
 * geometry of the BTB it holds, and a cell whose BTB differs (Confluence's
 * 16 K entries, a Fig. 18 sweep point) restores everything else and
 * primes its own BTB by replaying the branch stream, as it primes the
 * preset-private structures (Shotgun's U/C-BTB/RIB, the Micro BTB).
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
    unsigned btbEntries = 0; //!< geometry of the BTB `btb` was taken from
    unsigned btbAssoc = 0;

    /** True when `btb` fits @p cfg's BTB (else the cell replays it). */
    bool
    holdsBtbOf(const SystemConfig &cfg) const
    {
        return btbEntries == cfg.btbEntries && btbAssoc == cfg.btbAssoc;
    }
};

/**
 * Submission order for a sweep over @p cfgs: the first cell of every
 * warm key, then the rest, each group in index order.  On a pool the
 * keys' walks then run side by side instead of a key's cells starting
 * together and blocking on one walk.  A cell without a shared image
 * walks privately and counts as its own leader.
 */
std::vector<std::size_t> warmLeadersFirst(
    const std::vector<const SystemConfig *> &cfgs);

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
