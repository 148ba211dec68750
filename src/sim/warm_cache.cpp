#include "sim/warm_cache.h"

#include <algorithm>
#include <cassert>

namespace dcfb::sim {

bool
sharesWarmup(Preset preset)
{
    return presetRow(preset).warm == WarmMode::Shared;
}

/** One key and its checkpoint.  The key is the image's identity plus
 *  exactly what the warm loop reads: prefetcher and fetch knobs (e.g.
 *  l1i.usePrefetchBuffer) must not split it. */
struct WarmCache::Entry
{
    std::weak_ptr<const workload::Program> image;
    std::uint64_t runSeed = 0;
    std::uint64_t warmInstrs = 0;
    mem::LlcConfig llc;
    std::size_t l1iBytes = 0;
    unsigned l1iAssoc = 0;
    std::size_t l1dBytes = 0;
    unsigned l1dAssoc = 0;
    unsigned btbEntries = 0;
    unsigned btbAssoc = 0;

    std::once_flag once;
    std::shared_ptr<const WarmCheckpoint> state; //!< set inside `once`

    explicit Entry(const SystemConfig &cfg)
        : image(cfg.program), runSeed(cfg.runSeed),
          warmInstrs(cfg.functionalWarmInstrs), llc(cfg.llc),
          l1iBytes(cfg.l1i.capacityBytes), l1iAssoc(cfg.l1i.assoc),
          l1dBytes(cfg.l1d.capacityBytes), l1dAssoc(cfg.l1d.assoc),
          btbEntries(cfg.btbEntries), btbAssoc(cfg.btbAssoc)
    {
    }

    bool
    matches(const SystemConfig &cfg) const
    {
        // Owner equality: the weak reference pins the control block, so
        // a rebuilt image can never compare equal to a freed one.
        bool same_image = !image.owner_before(cfg.program) &&
            !cfg.program.owner_before(image);
        return same_image && runSeed == cfg.runSeed &&
            warmInstrs == cfg.functionalWarmInstrs && llc == cfg.llc &&
            l1iBytes == cfg.l1i.capacityBytes &&
            l1iAssoc == cfg.l1i.assoc &&
            l1dBytes == cfg.l1d.capacityBytes &&
            l1dAssoc == cfg.l1d.assoc && btbEntries == cfg.btbEntries &&
            btbAssoc == cfg.btbAssoc;
    }
};

void
WarmCache::prune()
{
    std::erase_if(cache, [](const std::shared_ptr<Entry> &e) {
        return e->image.expired();
    });
}

WarmCache::Lookup
WarmCache::get(const SystemConfig &cfg,
               const std::function<WarmCheckpoint()> &build)
{
    assert(cfg.program);
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex);
        prune();
        auto it = std::find_if(cache.begin(), cache.end(),
                               [&](const std::shared_ptr<Entry> &e) {
                                   return e->matches(cfg);
                               });
        if (it != cache.end()) {
            entry = *it;
        } else {
            entry = std::make_shared<Entry>(cfg);
            cache.push_back(entry);
        }
    }

    // The walk runs outside the cache lock; same-key callers block here
    // until it finishes, other keys proceed.
    Lookup out;
    std::call_once(entry->once, [&] {
        entry->state = std::make_shared<const WarmCheckpoint>(build());
        out.built = true;
    });
    (out.built ? buildCount : hitCount).fetch_add(1);
    out.state = entry->state;
    return out;
}

std::size_t
WarmCache::entries()
{
    std::lock_guard<std::mutex> lock(mutex);
    prune();
    return cache.size();
}

WarmCache &
WarmCache::global()
{
    static WarmCache instance;
    return instance;
}

} // namespace dcfb::sim
