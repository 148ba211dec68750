#include "obs/registry.h"

#include <algorithm>

namespace dcfb::obs {

HistogramSnapshot
HistogramSnapshot::from(const HistData &d)
{
    HistogramSnapshot s;
    s.count = d.count;
    s.sum = d.sum;
    s.max = d.max;
    for (unsigned i = 0; i < kHistBuckets; ++i) {
        if (d.buckets[i])
            s.buckets.emplace_back(i, d.buckets[i]);
    }
    return s;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
    // Merge the sparse bucket lists, keeping ascending index order.
    std::vector<std::pair<unsigned, std::uint64_t>> merged;
    merged.reserve(buckets.size() + other.buckets.size());
    std::size_t a = 0, b = 0;
    while (a < buckets.size() || b < other.buckets.size()) {
        if (b >= other.buckets.size() ||
            (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
            merged.push_back(buckets[a++]);
        } else if (a >= buckets.size() ||
                   other.buckets[b].first < buckets[a].first) {
            merged.push_back(other.buckets[b++]);
        } else {
            merged.emplace_back(buckets[a].first,
                                buckets[a].second + other.buckets[b].second);
            ++a;
            ++b;
        }
    }
    buckets = std::move(merged);
}

} // namespace dcfb::obs
