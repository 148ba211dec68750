#include "common/stats.h"

#include <sstream>

namespace dcfb {

std::size_t
StatSet::counterIndex(std::string_view name)
{
    auto it = counterIds.find(name);
    if (it != counterIds.end())
        return it->second;
    std::size_t id = counterSlots.size();
    counterSlots.push_back(0);
    counterIds.emplace(std::string(name), id);
    return id;
}

obs::Histogram
StatSet::histogram(std::string_view name)
{
    auto it = histIds.find(name);
    if (it == histIds.end()) {
        std::size_t id = histSlots.size();
        histSlots.emplace_back();
        it = histIds.emplace(std::string(name), id).first;
    }
    return obs::Histogram(&histSlots[it->second]);
}

std::uint64_t
StatSet::get(std::string_view name) const
{
    auto it = counterIds.find(name);
    return it == counterIds.end() ? 0 : counterSlots[it->second];
}

void
StatSet::reset()
{
    for (auto &slot : counterSlots)
        slot = 0;
    for (auto &h : histSlots)
        h.reset();
}

std::string
StatSet::dump() const
{
    std::ostringstream os;
    for (const auto &[name, value] : all())
        os << name << " = " << value << '\n';
    return os.str();
}

std::map<std::string, std::uint64_t>
StatSet::all() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, id] : counterIds)
        out.emplace(name, counterSlots[id]);
    return out;
}

std::map<std::string, obs::HistogramSnapshot>
StatSet::histograms() const
{
    std::map<std::string, obs::HistogramSnapshot> out;
    for (const auto &[name, id] : histIds)
        out.emplace(name, obs::HistogramSnapshot::from(histSlots[id]));
    return out;
}

} // namespace dcfb
