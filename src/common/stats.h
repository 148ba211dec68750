/**
 * @file
 * Per-component statistics: a bag of named counters and histograms.
 *
 * Every component owns a StatSet and registers all of its counters and
 * histograms in its constructor.  Registration interns the name to a
 * stable slot and hands back an obs::Counter / obs::Histogram handle
 * (obs/registry.h) that hot paths bump without string hashing.  What a
 * constructor registers is the component's key schema: a registered
 * key reports, at zero if it never fired, and nothing else does.  The
 * experiment harness dumps the sets or derives metrics from them
 * (FSCR, CMAL, coverage); ratios are computed at reporting time.
 */

#ifndef DCFB_COMMON_STATS_H
#define DCFB_COMMON_STATS_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "obs/registry.h"

namespace dcfb {

/**
 * Named 64-bit counters and log2 histograms.  Re-registering a name
 * returns a handle to the same slot.  Slots live in deques, so handles
 * stay valid as the set grows; they point into this set, so its owner
 * must not be copied or moved once handles exist.  Dumps and all()
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
        return obs::Counter(&counterSlots[counterIndex(name)]);
    }

    /** Register (or re-find) a typed log2-histogram handle. */
    obs::Histogram histogram(std::string_view name);

    /** Slot index of counter @p name (registering it if new). */
    std::size_t counterIndex(std::string_view name);

    /** Read counter @p name; absent counters read as zero. */
    std::uint64_t get(std::string_view name) const;

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
    std::map<std::string, std::uint64_t> all() const;

    /** All histograms, sorted by name, as snapshots. */
    std::map<std::string, obs::HistogramSnapshot> histograms() const;

  private:
    std::deque<std::uint64_t> counterSlots;
    std::deque<obs::HistData> histSlots;
    std::map<std::string, std::size_t, std::less<>> counterIds;
    std::map<std::string, std::size_t, std::less<>> histIds;
};

} // namespace dcfb

#endif // DCFB_COMMON_STATS_H
