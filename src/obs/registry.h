/**
 * @file
 * Typed statistics handles.
 *
 * A dcfb::StatSet interns each counter or histogram name to a stable
 * slot when its component registers it, and hands back one of the
 * trivially-copyable handles below.  Hot paths bump the handle -- a
 * single pointer-indirect add, no per-event string hashing -- while the
 * StatSet keeps the name -> slot mapping for reporting.
 *
 * Histograms are log2-bucketed: bucket 0 holds exactly the value 0 and
 * bucket i (i >= 1) holds [2^(i-1), 2^i - 1].  That gives cheap constant
 * cost per sample (std::bit_width) and bounded storage for unbounded
 * quantities such as miss latencies, prefetch-to-use distances, proactive
 * chain depths and queue occupancies.
 *
 * Threading model: a StatSet and its handles are single-threaded by
 * design -- hot-path bumps must never pay for synchronization.  The
 * parallel experiment runner therefore gives every (workload x design)
 * cell its own stat sets (one per component, inside that cell's System)
 * and merges the per-cell snapshots into the grid only after the pool
 * barrier; no stat set is ever touched by two threads.  The shared
 * discard slots that back *default-constructed* handles are
 * thread_local so an unregistered handle bumped on a worker cannot race
 * another worker's.
 */

#ifndef DCFB_OBS_REGISTRY_H
#define DCFB_OBS_REGISTRY_H

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace dcfb {
class StatSet;
} // namespace dcfb

namespace dcfb::obs {

/** Number of log2 buckets: one for zero plus one per uint64 bit width. */
inline constexpr unsigned kHistBuckets = 65;

/** Bucket index of @p value: 0 for 0, otherwise bit_width(value). */
constexpr unsigned
histBucket(std::uint64_t value)
{
    return value == 0 ? 0u : static_cast<unsigned>(std::bit_width(value));
}

/** Smallest value in bucket @p i. */
constexpr std::uint64_t
histBucketLow(unsigned i)
{
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

/** Largest value in bucket @p i. */
constexpr std::uint64_t
histBucketHigh(unsigned i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
}

/**
 * Typed counter handle.  Trivially copyable; a default-constructed
 * handle accumulates into a shared discard slot, so a component can
 * hold a handle it registers only for some mechanisms (and bump it
 * unconditionally) at no cost to the others' key sets.
 */
class Counter
{
  public:
    Counter() : slot(&discard) {}

    void add(std::uint64_t delta = 1) { *slot += delta; }
    std::uint64_t value() const { return *slot; }

  private:
    friend class dcfb::StatSet;
    explicit Counter(std::uint64_t *s) : slot(s) {}

    // thread_local: unregistered handles on different workers must not
    // share (and race on) one sink slot.
    static inline thread_local std::uint64_t discard = 0;
    std::uint64_t *slot;
};

/** Raw accumulation state of one histogram. */
struct HistData
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kHistBuckets> buckets{};

    void
    reset()
    {
        count = sum = max = 0;
        buckets.fill(0);
    }
};

/** Typed histogram handle (same conventions as Counter). */
class Histogram
{
  public:
    Histogram() : data(&discard) {}

    void
    sample(std::uint64_t value)
    {
        HistData &d = *data;
        ++d.count;
        d.sum += value;
        if (value > d.max)
            d.max = value;
        ++d.buckets[histBucket(value)];
    }

    const HistData &raw() const { return *data; }

  private:
    friend class dcfb::StatSet;
    explicit Histogram(HistData *d) : data(d) {}

    static inline thread_local HistData discard{};
    HistData *data;
};

/**
 * Value-type histogram snapshot used by RunResult and the JSON report
 * writer.  Only non-empty buckets are kept, as (bucket index, count)
 * pairs in ascending index order.
 */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::vector<std::pair<unsigned, std::uint64_t>> buckets;

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    static HistogramSnapshot from(const HistData &d);

    /** Accumulate another snapshot (per-component merge). */
    void merge(const HistogramSnapshot &other);

    bool operator==(const HistogramSnapshot &) const = default;
};

} // namespace dcfb::obs

#endif // DCFB_OBS_REGISTRY_H
