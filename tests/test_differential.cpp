/**
 * @file
 * Differential tests for the hot-path data structures.
 *
 * The optimized SeqTable/DisTable index and tag paths (flat pre-sized
 * owner array, shift-based partial tags) are cross-checked against
 * naive reference models in `ref::` that keep the pre-optimization
 * semantics verbatim: hash maps probed per access, tag bits computed by
 * division.  Both models consume identical randomized streams (fixed
 * seeds) and must agree on every observable -- lookup results, conflict
 * and write counts -- at every step.
 *
 * The same file carries the property/fuzz suite for the predecoder's
 * block cache: randomized fixed-length blocks must decode to identical
 * branch footprints cold and cached, including across eviction/refill
 * of the direct-mapped cache, and decodeAt() must stay consistent with
 * the full-block decode.
 *
 * The competitor mechanisms bring two more pairs: the FDIP candidate
 * queue (power-of-two ring with a logical cap + dedup filter) against a
 * plain deque model, and the micro BTB (flat modulo-indexed ways, true
 * LRU) against a map model that recomputes set membership by scanning —
 * both over seeded random streams including non-power-of-two
 * geometries.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "frontend/micro_btb.h"
#include "isa/encoding.h"
#include "isa/predecoder.h"
#include "prefetch/dis_table.h"
#include "prefetch/fdip.h"
#include "prefetch/seq_table.h"
#include "workload/image.h"

namespace dcfb {
namespace ref {

/**
 * Pre-optimization SeqTable: same direct-mapped tagless bit table, but
 * the conflict instrumentation probes a hash map per write (the code
 * the flat owner array replaced).
 */
class SeqTable
{
  public:
    explicit SeqTable(std::size_t entries_)
        : entries(entries_), bits(entries_, true)
    {}

    bool get(Addr block_addr) const { return bits[index(block_addr)]; }

    void
    set(Addr block_addr, bool useful)
    {
        std::size_t i = index(block_addr);
        Addr owner = blockNumber(block_addr);
        auto [it, inserted] = lastOwner.try_emplace(i, owner);
        if (!inserted && it->second != owner) {
            ++conflicts;
            it->second = owner;
        }
        ++writes;
        bits[i] = useful;
    }

    std::uint8_t
    statusOfNextFour(Addr block_addr) const
    {
        std::uint8_t packed = 0;
        for (unsigned i = 0; i < 4; ++i) {
            if (get(block_addr + Addr{i + 1} * kBlockBytes))
                packed |= 1u << i;
        }
        return packed;
    }

    std::uint64_t conflicts = 0;
    std::uint64_t writes = 0;

  private:
    std::size_t
    index(Addr block_addr) const
    {
        return static_cast<std::size_t>(blockNumber(block_addr)) &
            (entries - 1);
    }

    std::size_t entries;
    std::vector<bool> bits;
    std::unordered_map<std::size_t, Addr> lastOwner;
};

/**
 * Pre-optimization DisTable: identical table, but the partial tag is
 * always the division form `blockNumber / entries` (the code the
 * power-of-two shift replaced).
 */
class DisTable
{
  public:
    explicit DisTable(const prefetch::DisTableConfig &config)
        : cfg(config), table(cfg.entries)
    {}

    void
    record(Addr block_addr, std::uint8_t offset)
    {
        Entry &e = table[index(block_addr)];
        e.valid = true;
        e.tag = tagOf(block_addr);
        e.offset = offset;
    }

    std::optional<std::uint8_t>
    lookup(Addr block_addr) const
    {
        const Entry &e = table[index(block_addr)];
        if (!e.valid)
            return std::nullopt;
        if (cfg.tagPolicy != prefetch::DisTagPolicy::Tagless &&
            e.tag != tagOf(block_addr)) {
            return std::nullopt;
        }
        return e.offset;
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint8_t offset = 0;
    };

    std::size_t
    index(Addr block_addr) const
    {
        return static_cast<std::size_t>(blockNumber(block_addr)) &
            (cfg.entries - 1);
    }

    std::uint64_t
    tagOf(Addr block_addr) const
    {
        std::uint64_t above = blockNumber(block_addr) / cfg.entries;
        switch (cfg.tagPolicy) {
          case prefetch::DisTagPolicy::Tagless: return 0;
          case prefetch::DisTagPolicy::Partial4: return above & 0xf;
          case prefetch::DisTagPolicy::Full: return above;
        }
        return 0;
    }

    prefetch::DisTableConfig cfg;
    std::vector<Entry> table;
};

/**
 * Reference FDIP candidate queue: a plain std::deque with an explicit
 * logical capacity, plus the same recently-accepted ring.  The
 * production FdipQueue sits on BoundedQueue's power-of-two ring with a
 * logical cap; this model has no ring arithmetic at all, so the two
 * only agree if the cap/wrap handling is exact for any (non-power-of-
 * two) capacity.
 */
class FdipQueue
{
  public:
    FdipQueue(unsigned entries, unsigned recent_entries)
        : cap(entries ? entries : 1),
          recent(recent_entries ? recent_entries : 1, kInvalidAddr)
    {}

    prefetch::FdipQueue::Push
    push(Addr block)
    {
        for (Addr r : recent) {
            if (r == block)
                return prefetch::FdipQueue::Push::Duplicate;
        }
        if (q.size() >= cap)
            return prefetch::FdipQueue::Push::Dropped;
        q.push_back(block);
        recent[recentPos] = block;
        recentPos = (recentPos + 1) % recent.size();
        return prefetch::FdipQueue::Push::Accepted;
    }

    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    Addr front() const { return q.front(); }
    void pop() { q.pop_front(); }

  private:
    std::size_t cap;
    std::deque<Addr> q;
    std::vector<Addr> recent;
    std::size_t recentPos = 0;
};

/**
 * Reference micro BTB: entries live in one std::map keyed by PC; set
 * membership is recomputed per fill by scanning the whole map for PCs
 * that share the victim set.  Replacement uses the same rules as the
 * flat-way table (insert while the set is under-full, else evict the
 * strictly lowest age) — ages advance in lockstep with the production
 * table's ++tick, so LRU order must match exactly.
 */
class MicroBtb
{
  public:
    explicit MicroBtb(const frontend::MicroBtbConfig &config)
        : cfg(config), numSets(config.entries / config.assoc)
    {}

    const frontend::MicroBtbEntry *
    probe(Addr pc)
    {
        ++probes;
        auto it = table.find(pc);
        if (it == table.end()) {
            ++misses;
            return nullptr;
        }
        ++hits;
        it->second.age = ++clock_;
        return &it->second.payload;
    }

    bool contains(Addr pc) const { return table.count(pc) != 0; }

    frontend::MicroBtb::Evicted
    fill(Addr pc, Addr target, isa::InstrKind kind)
    {
        ++fills;
        auto it = table.find(pc);
        if (it != table.end()) {
            it->second.payload.target = target;
            it->second.payload.kind = kind;
            it->second.age = ++clock_;
            return {};
        }
        // Scan the whole map for the set's residents (naive on purpose).
        unsigned set = static_cast<unsigned>(pc % numSets);
        std::map<Addr, Entry>::iterator victim = table.end();
        unsigned occupancy = 0;
        for (auto e = table.begin(); e != table.end(); ++e) {
            if (static_cast<unsigned>(e->first % numSets) != set)
                continue;
            ++occupancy;
            if (victim == table.end() || e->second.age < victim->second.age)
                victim = e;
        }
        frontend::MicroBtb::Evicted ev;
        if (occupancy >= cfg.assoc) {
            ev.valid = true;
            ev.pc = victim->first;
            ++evicts;
            table.erase(victim);
        }
        table[pc] = Entry{{target, kind}, ++clock_};
        return ev;
    }

    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evicts = 0;

  private:
    struct Entry
    {
        frontend::MicroBtbEntry payload;
        std::uint64_t age = 0;
    };

    frontend::MicroBtbConfig cfg;
    unsigned numSets;
    std::map<Addr, Entry> table;
    std::uint64_t clock_ = 0;
};

} // namespace ref

namespace {

class SeqTableDifferential : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SeqTableDifferential, AgreesWithMapModelOnRandomStream)
{
    constexpr std::size_t kEntries = 64; // small: force heavy aliasing
    prefetch::SeqTable opt(kEntries);
    ref::SeqTable model(kEntries);

    Rng rng(GetParam());
    const Addr base = 0x40000;
    for (int op = 0; op < 20000; ++op) {
        // 8x more blocks than entries, so conflicts are common.
        Addr block = base + rng.below(kEntries * 8) * kBlockBytes;
        switch (rng.below(3)) {
          case 0:
            opt.set(block, rng.chance(0.5));
            // Mirror the draw: both models must see identical streams.
            model.set(block, opt.get(block));
            break;
          case 1:
            ASSERT_EQ(opt.get(block), model.get(block))
                << "get() diverged at op " << op;
            break;
          default:
            ASSERT_EQ(opt.statusOfNextFour(block),
                      model.statusOfNextFour(block))
                << "statusOfNextFour() diverged at op " << op;
            break;
        }
    }

    EXPECT_EQ(opt.stats().get("seqtable_conflicts"), model.conflicts);
    EXPECT_EQ(opt.stats().get("seqtable_writes"), model.writes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqTableDifferential,
                         ::testing::Values(11, 22, 33, 44, 55));

struct DisCase
{
    std::size_t entries;
    prefetch::DisTagPolicy policy;
    std::uint64_t seed;
};

class DisTableDifferential : public ::testing::TestWithParam<DisCase>
{};

TEST_P(DisTableDifferential, AgreesWithDivisionModelOnRandomStream)
{
    const DisCase &c = GetParam();
    prefetch::DisTableConfig cfg;
    cfg.entries = c.entries;
    cfg.tagPolicy = c.policy;
    prefetch::DisTable opt(cfg);
    ref::DisTable model(cfg);

    Rng rng(c.seed);
    const Addr base = 0x40000;
    for (int op = 0; op < 20000; ++op) {
        // Span many multiples of the table size so partial tags alias.
        Addr block = base + rng.below(c.entries * 64) * kBlockBytes;
        if (rng.chance(0.4)) {
            auto offset = static_cast<std::uint8_t>(rng.below(16));
            opt.record(block, offset);
            model.record(block, offset);
        } else {
            ASSERT_EQ(opt.lookup(block), model.lookup(block))
                << "lookup() diverged at op " << op;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DisTableDifferential,
    ::testing::Values(
        // Power-of-two sizes take the shift path; the non-power-of-two
        // size keeps the division fallback -- both must match the
        // always-divide model.
        DisCase{64, prefetch::DisTagPolicy::Partial4, 101},
        DisCase{64, prefetch::DisTagPolicy::Tagless, 102},
        DisCase{64, prefetch::DisTagPolicy::Full, 103},
        DisCase{4096, prefetch::DisTagPolicy::Partial4, 104},
        DisCase{48, prefetch::DisTagPolicy::Partial4, 105},
        DisCase{48, prefetch::DisTagPolicy::Full, 106}));

// ---------------------------------------------------------------------
// FDIP candidate-queue differential.
// ---------------------------------------------------------------------

struct FdipQueueCase
{
    unsigned entries;
    unsigned recentEntries;
    std::uint64_t seed;
};

class FdipQueueDifferential
    : public ::testing::TestWithParam<FdipQueueCase>
{};

TEST_P(FdipQueueDifferential, AgreesWithDequeModelOnRandomStream)
{
    const FdipQueueCase &c = GetParam();
    prefetch::FdipQueue opt(c.entries, c.recentEntries);
    ref::FdipQueue model(c.entries, c.recentEntries);

    Rng rng(c.seed);
    const Addr base = 0x40000;
    // Mirrors the FTQ-append pattern: short runs of consecutive blocks
    // (a basic block's lines, in order) mixed with pops (issue slots)
    // from a pool small enough to hit the dedup ring constantly.
    for (int op = 0; op < 30000; ++op) {
        if (rng.chance(0.6)) {
            Addr first = base +
                rng.below(c.entries * 4) * kBlockBytes;
            Addr last = first + rng.below(3) * kBlockBytes;
            for (Addr b = first; b <= last; b += kBlockBytes) {
                ASSERT_EQ(opt.push(b), model.push(b))
                    << "push() diverged at op " << op;
            }
        } else {
            ASSERT_EQ(opt.empty(), model.empty())
                << "empty() diverged at op " << op;
            if (!opt.empty()) {
                ASSERT_EQ(opt.front(), model.front())
                    << "front() diverged at op " << op;
                opt.pop();
                model.pop();
            }
        }
        ASSERT_EQ(opt.size(), model.size())
            << "size() diverged at op " << op;
    }
    // Drain: the full FIFO order must match, not just the fronts the
    // random schedule happened to observe.
    while (!model.empty()) {
        ASSERT_FALSE(opt.empty());
        EXPECT_EQ(opt.front(), model.front());
        opt.pop();
        model.pop();
    }
    EXPECT_TRUE(opt.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FdipQueueDifferential,
    ::testing::Values(
        // The preset geometry is deliberately non-power-of-two (24/12);
        // the pow2 and degenerate single-entry shapes ride along.
        FdipQueueCase{24, 12, 201}, FdipQueueCase{24, 12, 202},
        FdipQueueCase{32, 8, 203}, FdipQueueCase{7, 3, 204},
        FdipQueueCase{1, 1, 205}, FdipQueueCase{5, 16, 206}));

// ---------------------------------------------------------------------
// Micro-BTB differential.
// ---------------------------------------------------------------------

struct MicroBtbCase
{
    unsigned entries;
    unsigned assoc;
    std::uint64_t seed;
};

class MicroBtbDifferential
    : public ::testing::TestWithParam<MicroBtbCase>
{};

TEST_P(MicroBtbDifferential, AgreesWithMapModelOnRandomStream)
{
    const MicroBtbCase &c = GetParam();
    frontend::MicroBtbConfig cfg;
    cfg.entries = c.entries;
    cfg.assoc = c.assoc;
    frontend::MicroBtb opt(cfg);
    ref::MicroBtb model(cfg);

    Rng rng(c.seed);
    const Addr base = 0x40000;
    // 6x more branch PCs than entries so sets stay full and every fill
    // must pick the same LRU victim in both models.
    const unsigned pool = c.entries * 6;
    for (int op = 0; op < 30000; ++op) {
        Addr pc = base + rng.below(pool) * kInstrBytes;
        switch (rng.below(3)) {
          case 0: {
            Addr target = base + rng.below(pool) * kInstrBytes;
            auto kind = rng.chance(0.5) ? isa::InstrKind::CondBranch
                                        : isa::InstrKind::Jump;
            frontend::MicroBtb::Evicted a = opt.fill(pc, target, kind);
            frontend::MicroBtb::Evicted b = model.fill(pc, target, kind);
            ASSERT_EQ(a.valid, b.valid)
                << "evict presence diverged at op " << op;
            if (a.valid) {
                ASSERT_EQ(a.pc, b.pc)
                    << "evict victim diverged at op " << op;
            }
            break;
          }
          case 1: {
            const frontend::MicroBtbEntry *a = opt.probe(pc);
            const frontend::MicroBtbEntry *b = model.probe(pc);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "probe() diverged at op " << op;
            if (a) {
                ASSERT_EQ(a->target, b->target) << "target at op " << op;
                ASSERT_EQ(a->kind, b->kind) << "kind at op " << op;
            }
            break;
          }
          default:
            ASSERT_EQ(opt.contains(pc), model.contains(pc))
                << "contains() diverged at op " << op;
            break;
        }
    }

    EXPECT_EQ(opt.stats().get("mbtb_probes"), model.probes);
    EXPECT_EQ(opt.stats().get("mbtb_hits"), model.hits);
    EXPECT_EQ(opt.stats().get("mbtb_misses"), model.misses);
    EXPECT_EQ(opt.stats().get("mbtb_fills"), model.fills);
    EXPECT_EQ(opt.stats().get("mbtb_evicts"), model.evicts);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MicroBtbDifferential,
    ::testing::Values(
        // 96/4 = 24 sets and 100/4 = 25 sets exercise the modulo index
        // that SetAssocCache's power-of-two mask cannot express.
        MicroBtbCase{96, 4, 301}, MicroBtbCase{100, 4, 302},
        MicroBtbCase{64, 4, 303}, MicroBtbCase{48, 3, 304},
        MicroBtbCase{12, 2, 305}, MicroBtbCase{6, 1, 306}));

// ---------------------------------------------------------------------
// Predecode-cache properties.
// ---------------------------------------------------------------------

using isa::DecodedInstr;
using isa::InstrKind;
using isa::PredecodedBranch;

bool
sameBranches(const std::vector<PredecodedBranch> &a,
             const std::vector<PredecodedBranch> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].byteOffset != b[i].byteOffset || a[i].kind != b[i].kind ||
            a[i].hasTarget != b[i].hasTarget ||
            a[i].target != b[i].target || a[i].pc != b[i].pc) {
            return false;
        }
    }
    return true;
}

/** Write one random fixed-length block at @p base; ~1/4 branch slots. */
void
writeRandomBlock(workload::ProgramImage &image, Addr base, Rng &rng)
{
    static const InstrKind kBranchKinds[] = {
        InstrKind::CondBranch, InstrKind::Jump,         InstrKind::Call,
        InstrKind::Return,     InstrKind::IndirectCall,
    };
    for (unsigned slot = 0; slot < kInstrPerBlock; ++slot) {
        Addr pc = base + slot * kInstrBytes;
        DecodedInstr di{InstrKind::Alu, false, kInvalidAddr};
        if (rng.chance(0.25)) {
            di.kind = kBranchKinds[rng.below(5)];
            if (isa::hasEncodedTarget(di.kind)) {
                di.hasTarget = true;
                std::int64_t delta =
                    static_cast<std::int64_t>(rng.below(1 << 12)) -
                    (1 << 11);
                di.target = static_cast<Addr>(
                    static_cast<std::int64_t>(pc) + delta * kInstrBytes);
            }
        }
        std::uint8_t buf[kInstrBytes];
        isa::writeWord(buf, isa::encodeInstr(pc, di));
        image.write(pc, buf, kInstrBytes);
    }
}

class PredecodeCacheProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PredecodeCacheProperty, ColdAndCachedDecodesAreIdentical)
{
    Rng rng(GetParam());
    workload::ProgramImage image;
    constexpr unsigned kBlocks = 64;
    const Addr base = 0x40000;
    for (unsigned b = 0; b < kBlocks; ++b)
        writeRandomBlock(image, base + Addr{b} * kBlockBytes, rng);

    isa::Predecoder cached(image, /*variable_length=*/false);
    for (int round = 0; round < 3; ++round) {
        for (unsigned b = 0; b < kBlocks; ++b) {
            Addr block = base + Addr{b} * kBlockBytes;
            // A fresh predecoder per probe never hits its cache.
            isa::Predecoder cold(image, false);
            ASSERT_TRUE(sameBranches(cold.predecodeBlock(block),
                                     cached.predecodeBlock(block)))
                << "block " << b << " round " << round;
        }
    }
}

TEST_P(PredecodeCacheProperty, SurvivesEvictionAndRefill)
{
    Rng rng(GetParam() + 1000);
    workload::ProgramImage image;
    // Two blocks 1024 block-numbers apart alias onto the same entry of
    // the 256-entry direct-mapped cache, so decoding one evicts the
    // other.  (If the cache ever grows past 1024 entries these become
    // non-aliasing probes and the test degrades to the cold/cached
    // property above, still sound.)
    const Addr a = 0x40000;
    const Addr b = a + Addr{1024} * kBlockBytes;
    writeRandomBlock(image, a, rng);
    writeRandomBlock(image, b, rng);

    isa::Predecoder pd(image, false);
    auto first_a = pd.predecodeBlock(a);
    auto first_b = pd.predecodeBlock(b); // evicts a's entry
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(sameBranches(pd.predecodeBlock(a), first_a));
        ASSERT_TRUE(sameBranches(pd.predecodeBlock(b), first_b));
    }
}

TEST_P(PredecodeCacheProperty, DecodeAtMatchesFullBlockDecode)
{
    Rng rng(GetParam() + 2000);
    workload::ProgramImage image;
    const Addr block = 0x40000;
    writeRandomBlock(image, block, rng);

    isa::Predecoder pd(image, false);
    auto all = pd.predecodeBlock(block);
    std::vector<bool> is_branch_offset(kBlockBytes, false);
    for (const auto &br : all) {
        auto one = pd.decodeAt(block, br.byteOffset);
        ASSERT_EQ(one.size(), 1u);
        EXPECT_TRUE(sameBranches(one, {br}));
        is_branch_offset[br.byteOffset] = true;
    }
    for (unsigned off = 0; off < kBlockBytes; off += kInstrBytes) {
        if (!is_branch_offset[off]) {
            EXPECT_TRUE(pd.decodeAt(block, off).empty());
        }
    }
}

TEST_P(PredecodeCacheProperty, UnmappedAndVariableLengthStayEmpty)
{
    Rng rng(GetParam() + 3000);
    workload::ProgramImage image;
    writeRandomBlock(image, 0x40000, rng);

    isa::Predecoder fl(image, false);
    EXPECT_TRUE(fl.predecodeBlock(0x99000).empty());
    EXPECT_TRUE(fl.predecodeBlock(0x99000).empty()); // cached miss too

    // VL mode has no full-block decode; the cache must not change that.
    isa::Predecoder vl(image, true);
    EXPECT_TRUE(vl.predecodeBlock(0x40000).empty());
    EXPECT_TRUE(vl.predecodeBlock(0x40000).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeCacheProperty,
                         ::testing::Values(7, 17, 27));

} // namespace
} // namespace dcfb
