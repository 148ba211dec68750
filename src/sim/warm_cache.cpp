#include "sim/warm_cache.h"

#include <algorithm>
#include <cassert>

namespace dcfb::sim {

namespace {

/** Exactly what the warm loop reads besides the image.  Prefetcher and
 *  fetch knobs (e.g. l1i.usePrefetchBuffer) must not split it, and
 *  neither does the BTB geometry: a restoring cell replays its own BTB
 *  when the checkpoint's differs (WarmCheckpoint::holdsBtbOf). */
struct WarmKey
{
    std::uint64_t runSeed = 0;
    std::uint64_t warmInstrs = 0;
    mem::LlcConfig llc;
    std::size_t l1iBytes = 0;
    unsigned l1iAssoc = 0;
    std::size_t l1dBytes = 0;
    unsigned l1dAssoc = 0;

    explicit WarmKey(const SystemConfig &cfg)
        : runSeed(cfg.runSeed), warmInstrs(cfg.functionalWarmInstrs),
          llc(cfg.llc), l1iBytes(cfg.l1i.capacityBytes),
          l1iAssoc(cfg.l1i.assoc), l1dBytes(cfg.l1d.capacityBytes),
          l1dAssoc(cfg.l1d.assoc)
    {
    }

    bool operator==(const WarmKey &) const = default;
};

/** Owner equality: a weak reference pins the control block, so a
 *  rebuilt image can never compare equal to a freed one. */
template <typename A, typename B>
bool
sameOwner(const A &a, const B &b)
{
    return !a.owner_before(b) && !b.owner_before(a);
}

/** True when @p a and @p b share a key (both need a shared image). */
bool
sameWarmKey(const SystemConfig &a, const SystemConfig &b)
{
    return a.program && b.program && sameOwner(a.program, b.program) &&
        WarmKey(a) == WarmKey(b);
}

} // namespace

std::vector<std::size_t>
warmLeadersFirst(const std::vector<const SystemConfig *> &cfgs)
{
    std::vector<std::size_t> order, rest;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        bool led = std::any_of(order.begin(), order.end(), [&](auto j) {
            return sameWarmKey(*cfgs[j], *cfgs[i]);
        });
        (led ? rest : order).push_back(i);
    }
    order.insert(order.end(), rest.begin(), rest.end());
    return order;
}

/** One key and its checkpoint. */
struct WarmCache::Entry
{
    std::weak_ptr<const workload::Program> image;
    WarmKey key;

    std::once_flag once;
    std::shared_ptr<const WarmCheckpoint> state; //!< set inside `once`

    explicit Entry(const SystemConfig &cfg) : image(cfg.program), key(cfg) {}

    bool
    matches(const SystemConfig &cfg) const
    {
        return sameOwner(image, cfg.program) && key == WarmKey(cfg);
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
