/**
 * @file
 * Per-component statistics facade over the typed obs registry.
 *
 * Components register counters by name; the experiment harness dumps them
 * or computes derived metrics (FSCR, CMAL, coverage).  Counters are plain
 * uint64 accumulators; ratios are computed at reporting time.
 *
 * Two handle types, both bumped without per-event string hashing:
 *  - **obs::Counter / obs::Histogram** from counter() / histogram():
 *    registered at once, so the key reports even if it never fires.
 *  - **obs::LazyCounter** from lazy(): the key is interned on its first
 *    add, so a counter that never fires never reports.
 */

#ifndef DCFB_COMMON_STATS_H
#define DCFB_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/registry.h"

namespace dcfb {

/**
 * A bag of named 64-bit counters and log2 histograms.  Dumps and all()
 * render counters sorted by name (ordering is part of the report
 * contract: stable diffs and stable JSON).
 */
class StatSet
{
  public:
    /** Register (or re-find) a typed counter handle for @p name. */
    obs::Counter
    counter(std::string_view name)
    {
        return registry.counter(name);
    }

    /** Register (or re-find) a typed log2-histogram handle. */
    obs::Histogram
    histogram(std::string_view name)
    {
        return registry.histogram(name);
    }

    /**
     * A lazily-binding counter handle for @p name: interns the name on
     * the first add (even an add of 0); every later bump is a single
     * pointer-indirect add.  @p name must be a string literal (the
     * handle keeps the pointer), and the handle points into this set,
     * so its owner must not be copied or moved once handles exist.
     */
    obs::LazyCounter
    lazy(const char *name)
    {
        return registry.lazyCounter(name);
    }

    /** Read counter @p name; absent counters read as zero. */
    std::uint64_t
    get(std::string_view name) const
    {
        return registry.get(name);
    }

    /** Ratio of two counters; 0 when the denominator is zero. */
    double
    ratio(std::string_view num, std::string_view den) const
    {
        std::uint64_t d = get(den);
        return d == 0 ? 0.0 : static_cast<double>(get(num)) /
            static_cast<double>(d);
    }

    /** Reset every counter and histogram to zero (used at the
     *  warmup/measure boundary).  Registered names survive. */
    void reset();

    /** Render "name = value" lines for debugging dumps (sorted). */
    std::string dump() const;

    /** All counters, sorted by name. */
    std::map<std::string, std::uint64_t>
    all() const
    {
        return registry.counters();
    }

    /** All histograms, sorted by name, as snapshots. */
    std::map<std::string, obs::HistogramSnapshot>
    histograms() const
    {
        return registry.histograms();
    }

  private:
    obs::StatRegistry registry;
};

} // namespace dcfb

#endif // DCFB_COMMON_STATS_H
