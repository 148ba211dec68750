#include "sim/config.h"

#include <cassert>
#include <iterator>

namespace dcfb::sim {

namespace {

rt::FaultPlan gDefaultFaultPlan; // inactive unless --inject installs one

using P = Preset;
using F = Family;

/** One row per Preset, in enum order.  Adding a preset: append the enum
 *  value, append its row here, and size its structures in makeConfig()
 *  if the defaults do not fit (DESIGN.md §14). */
constexpr PresetRow kPresets[] = {
    // preset          name                 family      NL uBTB
    {P::Baseline,      "Baseline",          F::Plain,      0, false},
    {P::NL,            "NL",                F::NextLine,   1, false},
    {P::N2L,           "N2L",               F::NextLine,   2, false},
    {P::N4L,           "N4L",               F::NextLine,   4, false},
    {P::N8L,           "N8L",               F::NextLine,   8, false},
    {P::N4LPlain,      "N4L(engine)",       F::Sn4lDisBtb, 0, false},
    {P::SN4L,          "SN4L",              F::Sn4lDisBtb, 0, false},
    {P::DisOnly,       "Dis",               F::Sn4lDisBtb, 0, false},
    {P::SN4LDis,       "SN4L+Dis",          F::Sn4lDisBtb, 0, false},
    {P::SN4LDisBtb,    "SN4L+Dis+BTB",      F::Sn4lDisBtb, 0, false},
    {P::ClassicDis,    "ClassicDis",        F::ClassicDis, 0, false},
    {P::Confluence,    "Confluence",        F::Confluence, 0, false},
    {P::Boomerang,     "Boomerang",         F::Boomerang,  0, false},
    {P::Shotgun,       "Shotgun",           F::Shotgun,    0, false},
    {P::PerfectL1i,    "PerfectL1i",        F::Plain,      0, false},
    {P::PerfectL1iBtb, "PerfectL1i+BTBinf", F::Plain,      0, false},
    {P::Fdip,          "FDIP",              F::Fdip,       0, false},
    {P::MicroBtb,      "MicroBTB",          F::Plain,      0, true},
};

/** Rows are indexed by enum value; MicroBtb is the last value. */
constexpr bool
rowsInEnumOrder()
{
    std::size_t i = 0;
    for (const PresetRow &row : kPresets) {
        if (row.preset != static_cast<Preset>(i++))
            return false;
    }
    return i == static_cast<std::size_t>(P::MicroBtb) + 1;
}
static_assert(rowsInEnumOrder());

} // namespace

void
setDefaultFaultPlan(const rt::FaultPlan &plan)
{
    gDefaultFaultPlan = plan;
}

const rt::FaultPlan &
defaultFaultPlan()
{
    return gDefaultFaultPlan;
}

const PresetRow &
presetRow(Preset preset)
{
    auto index = static_cast<std::size_t>(preset);
    assert(index < std::size(kPresets));
    return kPresets[index];
}

std::vector<Preset>
allPresets()
{
    std::vector<Preset> out;
    for (const PresetRow &row : kPresets)
        out.push_back(row.preset);
    return out;
}

std::string
presetName(Preset preset)
{
    return presetRow(preset).name;
}

SystemConfig
makeConfig(const workload::WorkloadProfile &profile, Preset preset)
{
    SystemConfig cfg;
    cfg.profile = profile;
    cfg.preset = preset;
    cfg.faults = defaultFaultPlan();

    switch (preset) {
      case Preset::NL:
      case Preset::N2L:
      case Preset::N4L:
      case Preset::N8L:
        // The NXL motivation studies use a 64-entry prefetch buffer to
        // immunize the L1i from pollution (Section IV).
        cfg.l1i.usePrefetchBuffer = true;
        break;
      case Preset::N4LPlain:
        cfg.sn4l.selective = false;
        cfg.sn4l.enableDis = false;
        cfg.sn4l.enableBtbPrefetch = false;
        cfg.sn4l.proactive = false;
        break;
      case Preset::SN4L:
        cfg.sn4l.enableDis = false;
        cfg.sn4l.enableBtbPrefetch = false;
        cfg.sn4l.proactive = false;
        break;
      case Preset::DisOnly:
        cfg.sn4l.seqDepth = 0;
        cfg.sn4l.enableBtbPrefetch = false;
        break;
      case Preset::SN4LDis:
        cfg.sn4l.enableBtbPrefetch = false;
        break;
      case Preset::Confluence:
        // Upper-bound Confluence: SHIFT + 16 K-entry BTB (Section VI.D).
        cfg.btbEntries = 16 * 1024;
        break;
      case Preset::Shotgun:
        cfg.l1i.usePrefetchBuffer = true; //!< 64-entry L1i prefetch buffer
        break;
      case Preset::PerfectL1i:
        cfg.fetch.perfectL1i = true;
        break;
      case Preset::PerfectL1iBtb:
        cfg.fetch.perfectL1i = true;
        cfg.fetch.perfectBtb = true;
        break;
      case Preset::Fdip:
        // The decoupled BPU runs ahead through a deeper FTQ than the
        // BTB-directed baselines' default.
        cfg.fetch.ftqEntries = cfg.fdip.ftqDepth;
        break;
      case Preset::MicroBtb:
        break; // defaults in MicroBtbConfig
      default:
        break;
    }

    if (profile.variableLength) {
        cfg.llc.dvllc = true;
        cfg.l1i.fetchFootprints = true;
        cfg.sn4l.disTable.byteOffsets = true;
    }
    return cfg;
}

} // namespace dcfb::sim
