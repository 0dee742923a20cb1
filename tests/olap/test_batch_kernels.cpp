#include <gtest/gtest.h>

#include "common/log.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "olap/batch.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "support/reference_check.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using storage::Region;
using testsupport::expectExecution;
using testsupport::referenceAnswer;
using txn::Database;
using txn::DatabaseConfig;
using txn::InstanceFormat;
using txn::TpccEngine;
using workload::ChTable;

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    // Morsels (2048 rows) span many 64-row circulant blocks, so the
    // stride path's per-block segmentation is exercised heavily.
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

// ---- selection-vector kernels ------------------------------------

SelectionVector
iota(std::uint32_t n)
{
    SelectionVector sel;
    for (std::uint32_t i = 0; i < n; ++i)
        sel.idx.push_back(i);
    return sel;
}

/** Copy out of the 64-byte-aligned vector for gtest comparisons. */
std::vector<std::uint32_t>
indices(const SelectionVector &sel)
{
    return {sel.idx.begin(), sel.idx.end()};
}

TEST(SelectionKernels, IntRangeKeepsInclusiveBounds)
{
    auto sel = iota(5);
    const std::vector<std::int64_t> vals = {-3, 0, 5, 9, 10};
    filterIntRange(vals, sel, 0, 9);
    EXPECT_EQ(indices(sel), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(SelectionKernels, IntRangeEmptyWindowSelectsNothing)
{
    auto sel = iota(4);
    const std::vector<std::int64_t> vals = {1, 2, 3, 4};
    filterIntRange(vals, sel, 3, 2); // lo > hi
    EXPECT_TRUE(sel.empty());
}

TEST(SelectionKernels, IntRangeOnEmptySelectionIsANoop)
{
    SelectionVector sel;
    filterIntRange({}, sel, 0, 100);
    EXPECT_TRUE(sel.empty());
}

TEST(SelectionKernels, IntRangeFullKeepPreservesOrder)
{
    auto sel = iota(6);
    const std::vector<std::int64_t> vals = {5, 5, 5, 5, 5, 5};
    filterIntRange(vals, sel, 5, 5);
    EXPECT_EQ(sel.size(), 6u);
    for (std::uint32_t i = 0; i < 6; ++i)
        EXPECT_EQ(sel.idx[i], i);
}

TEST(SelectionKernels, CharPrefixMatchAndNegate)
{
    const std::uint32_t w = 4;
    // Payloads: "ORIG", "ORxx", "ORIG".
    const std::vector<std::uint8_t> chars = {'O', 'R', 'I', 'G',
                                             'O', 'R', 'x', 'x',
                                             'O', 'R', 'I', 'G'};
    auto sel = iota(3);
    filterCharPrefix(chars, w, sel, "ORI", false);
    EXPECT_EQ(indices(sel), (std::vector<std::uint32_t>{0, 2}));

    sel = iota(3);
    filterCharPrefix(chars, w, sel, "ORI", true);
    EXPECT_EQ(indices(sel), (std::vector<std::uint32_t>{1}));
}

TEST(SelectionKernels, CharPrefixLongerThanColumnNeverMatches)
{
    const std::uint32_t w = 2;
    const std::vector<std::uint8_t> chars = {'A', 'B', 'A', 'B'};
    auto sel = iota(2);
    filterCharPrefix(chars, w, sel, "ABC", false);
    EXPECT_TRUE(sel.empty());

    // ... so its negation keeps everything (scalar substr rule).
    sel = iota(2);
    filterCharPrefix(chars, w, sel, "ABC", true);
    EXPECT_EQ(sel.size(), 2u);
}

// ---- morsel iteration and visibility extraction ------------------

TEST(MorselVisibility, MatchesFindNextWalk)
{
    DatabaseConfig cfg = smallConfig();
    Database db(cfg);
    auto &store = db.table(ChTable::OrderLine).store();
    // Punch holes in the data visibility so morsels see partial
    // selections (boundary words included).
    auto &dv = store.dataVisible();
    for (std::size_t r = 0; r < dv.size(); r += 7)
        dv.clear(r);

    std::vector<RowId> expect;
    for (std::size_t r = dv.findNext(0); r < dv.size();
         r = dv.findNext(r + 1))
        expect.push_back(static_cast<RowId>(r));

    std::vector<RowId> got;
    SelectionVector sel;
    forEachMorsel(store, [&](const Morsel &m) {
        if (m.reg != Region::Data)
            return;
        EXPECT_LE(m.count, kMorselRows);
        visibleRows(store, m, sel);
        for (const auto off : sel.idx)
            got.push_back(m.base + off);
    });
    EXPECT_EQ(got, expect);
}

TEST(MorselVisibility, EmptyRegionYieldsEmptySelections)
{
    DatabaseConfig cfg = smallConfig();
    Database db(cfg);
    auto &store = db.table(ChTable::OrderLine).store();
    store.dataVisible().setAll(false);
    SelectionVector sel;
    forEachMorsel(store, [&](const Morsel &m) {
        visibleRows(store, m, sel);
        EXPECT_TRUE(sel.empty());
    });
}

// ---- batch decode vs per-row byte reads --------------------------

/** One row's column bytes, gathered fragment by fragment. */
std::vector<std::uint8_t>
rowBytes(const storage::TableStore &store, ColumnId c, Region reg,
         RowId r)
{
    std::vector<std::uint8_t> out(store.schema().column(c).width);
    store.readColumnBytes(reg, c, r, out);
    return out;
}

class BatchDecodeTest
    : public ::testing::TestWithParam<InstanceFormat>
{
  protected:
    BatchDecodeTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, GetParam(), bw, timing, 17),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 30; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
    }

    void
    expectAllColumnsMatch(ChTable table)
    {
        const auto &tbl = db.table(table);
        const auto &store = tbl.store();
        for (const auto &col : tbl.schema().columns()) {
            const BatchColumnReader rd(store, col.name);
            const ColumnId cid = tbl.schema().columnId(col.name);
            SelectionVector sel;
            ColumnBatch batch;
            forEachMorsel(store, [&](const Morsel &m) {
                visibleRows(store, m, sel);
                if (col.type == format::ColType::Int) {
                    rd.gatherInts(m, sel.span(), batch);
                    ASSERT_EQ(batch.ints.size(), sel.size());
                    for (std::size_t i = 0; i < sel.size(); ++i) {
                        const RowId r = m.base + sel.idx[i];
                        ASSERT_EQ(batch.ints[i],
                                  format::decodeValue(
                                      col, rowBytes(store, cid, m.reg, r)))
                            << col.name << " row " << r;
                    }
                }
                rd.gatherChars(m, sel.span(), batch);
                ASSERT_EQ(batch.chars.size(),
                          sel.size() * col.width);
                for (std::size_t i = 0; i < sel.size(); ++i) {
                    const RowId r = m.base + sel.idx[i];
                    const auto want = rowBytes(store, cid, m.reg, r);
                    ASSERT_EQ(std::memcmp(batch.chars.data() +
                                              i * col.width,
                                          want.data(), col.width),
                              0)
                        << col.name << " row " << r;
                }
            });
        }
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_P(BatchDecodeTest, EveryColumnMatchesPerRowReads)
{
    expectAllColumnsMatch(ChTable::OrderLine);
    expectAllColumnsMatch(ChTable::Orders);
    expectAllColumnsMatch(ChTable::Item);
}

TEST_P(BatchDecodeTest, KeyColumnsUseTheStridePath)
{
    const auto &tbl = db.table(ChTable::OrderLine);
    // Key columns are unfragmented by construction, so the
    // zero-copy stride path must be available for them.
    for (const auto &col : tbl.schema().columns()) {
        if (col.isKey) {
            EXPECT_TRUE(BatchColumnReader(tbl.store(), col.name)
                            .strided())
                << col.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, BatchDecodeTest,
    ::testing::Values(InstanceFormat::Unified,
                      InstanceFormat::RowStore,
                      InstanceFormat::ColumnStore),
    [](const ::testing::TestParamInfo<InstanceFormat> &info)
        -> std::string {
        switch (info.param) {
          case InstanceFormat::Unified: return "Unified";
          case InstanceFormat::RowStore: return "RowStore";
          case InstanceFormat::ColumnStore: return "ColumnStore";
        }
        return "Unknown";
    });

TEST(BatchDecodeFragmented, GatherFallbackMatchesPerRowReads)
{
    // With only Q1's columns as keys, most columns fragment: the
    // reader must fall back to the per-row gather with identical
    // values.
    auto cfg = smallConfig();
    cfg.olapQuerySubset = 1;
    Database db(cfg);
    const auto &tbl = db.table(ChTable::Orders);
    const auto &store = tbl.store();

    bool saw_fragmented = false;
    for (const auto &col : tbl.schema().columns()) {
        const BatchColumnReader rd(store, col.name);
        saw_fragmented |= !rd.strided();
        if (col.type != format::ColType::Int)
            continue;
        const ColumnId cid = tbl.schema().columnId(col.name);
        SelectionVector sel;
        ColumnBatch batch;
        forEachMorsel(store, [&](const Morsel &m) {
            visibleRows(store, m, sel);
            rd.gatherInts(m, sel.span(), batch);
            for (std::size_t i = 0; i < sel.size(); ++i)
                ASSERT_EQ(batch.ints[i],
                          format::decodeValue(
                              col, rowBytes(store, cid, m.reg,
                                            m.base + sel.idx[i])))
                    << col.name;
        });
    }
    EXPECT_TRUE(saw_fragmented);
}

// ---- batch executor vs the reference executor --------------------

class BatchVsReferenceTest : public ::testing::Test
{
  protected:
    BatchVsReferenceTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 7),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
    }

    /** Execute @p p and check it against the reference. */
    PlanExecution
    expectMatchesReference(const QueryPlan &p, const std::string &what)
    {
        auto got = executePlan(db, p);
        expectExecution(got, referenceAnswer(tables, p), what);
        return got;
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
    /** Reads rows on first use, after the constructor's commits. */
    testsupport::RefTables tables{db};
};

TEST_F(BatchVsReferenceTest, AllExecutablePlansMatch)
{
    for (const auto &q : workload::chExecutablePlans())
        expectMatchesReference(q.plan, q.plan.name);
}

TEST_F(BatchVsReferenceTest, FusedPassEqualsUnfusedOnRandomPlans)
{
    // Property: the batch engine's fused filter+aggregate pass
    // (joins absent) and its joined pipeline both equal the
    // reference executor on randomized plans.
    Rng rng(20260725);
    for (int it = 0; it < 24; ++it) {
        QueryPlan p;
        const auto shape = rng.below(4);
        if (shape == 0) {
            // Q6-like fused scan, possibly empty/degenerate window.
            const auto lo =
                workload::kDateBase + rng.inRange(-500, 3000);
            p = plans::q6(lo, lo + rng.inRange(-10, 3000),
                          rng.inRange(0, 5), rng.inRange(3, 12));
        } else if (shape == 1) {
            // Q1-like fused grouped scan.
            p = plans::q1(workload::kDateBase +
                          rng.inRange(-100, 4000));
        } else if (shape == 2) {
            // Q19-like semi join with random ranges.
            p = plans::q19(rng.inRange(1, 4), rng.inRange(4, 9), 0,
                           0, rng.inRange(0, 4000),
                           rng.inRange(4000, 10000));
        } else {
            // Q14-like join, randomly flipped to its anti form.
            p = plans::q14(workload::kDateBase,
                           workload::kDateBase +
                               rng.inRange(0, 4000));
            if (rng.flip(0.5))
                p.joins[0].kind = JoinKind::Anti;
        }
        // std::string(..) + avoids the GCC 12 -Wrestrict false
        // positive on operator+(const char*, string&&) (PR 105651).
        p.name += std::string("#") + std::to_string(it);

        const auto batch = expectMatchesReference(p, p.name);
        // Fusion is reported exactly when the whole probe pass
        // stays one fused kernel: join-free, or every join a
        // probe-keyed semi/anti existence filter.
        if (planFusesProbePass(p))
            EXPECT_GT(batch.fusedScanColumns, 0u) << p.name;
        else
            EXPECT_EQ(batch.fusedScanColumns, 0u) << p.name;
    }
}

TEST_F(BatchVsReferenceTest, MinMaxAggregatesMatchReference)
{
    QueryPlan p;
    p.name = "minmax";
    p.probe.table = ChTable::OrderLine;
    p.aggregates = {{AggKind::Min, {ColRef::kProbe, "ol_amount"}},
                    {AggKind::Max, {ColRef::kProbe, "ol_amount"}},
                    {AggKind::Sum, {ColRef::kProbe, "ol_quantity"}}};
    expectMatchesReference(p, p.name);

    // Grouped variant exercises per-group Min/Max seeding.
    p.groupBy = {{ColRef::kProbe, "ol_number"}};
    expectMatchesReference(p, "minmax grouped");
}

TEST_F(BatchVsReferenceTest, FusedScanPricingReducesModelledTime)
{
    // With fuseScans on, results stay identical and the modelled
    // PIM time of a fused plan drops (one serial scan instead of
    // one per probe column) — for the join-free Q6 and for the
    // probe-keyed semi-join Q14, whose probe pass also runs fused.
    auto fused_cfg = OlapConfig::pushtapDimm();
    fused_cfg.fuseScans = true;
    OlapEngine fused(db, fused_cfg);
    fused.prepareSnapshot(db.now());
    engine.prepareSnapshot(db.now());

    QueryResult base_res, fused_res;
    const auto base = engine.runQuery(plans::q6(), &base_res);
    const auto opt = fused.runQuery(plans::q6(), &fused_res);
    ASSERT_EQ(base_res.rows.size(), fused_res.rows.size());
    EXPECT_EQ(base_res.rows[0].aggs, fused_res.rows[0].aggs);
    EXPECT_EQ(base.fusedScanColumns, opt.fusedScanColumns);
    EXPECT_GT(base.fusedScanColumns, 0u);
    EXPECT_LT(opt.pimNs, base.pimNs);

    const auto base_j = engine.runQuery(plans::q14(), nullptr);
    const auto opt_j = fused.runQuery(plans::q14(), nullptr);
    EXPECT_GT(base_j.fusedScanColumns, 0u);
    EXPECT_EQ(opt_j.fusedScanColumns, base_j.fusedScanColumns);
    EXPECT_LT(opt_j.pimNs, base_j.pimNs);
}

// ---- group tables: the shared materialization tail and the fold ---

/** Random group table over 2-int keys: one Sum, Min and Max slot per
 *  group (idle-initialized like the engine's), values drawn from a
 *  small range so ORDER BY ties are common. */
FlatTable
randomGroups(Rng &rng, std::size_t n, std::int64_t key_range)
{
    FlatTable t(2, {0, std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int64_t>::min()});
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t key[2] = {rng.inRange(-key_range, key_range),
                                     rng.inRange(0, 3)};
        const std::uint64_t h = hashKey(key, 2);
        auto &part = t.part(partitionOf(h));
        const auto e = part.findOrInsert(key, h);
        std::int64_t *slots = part.slots(e);
        const std::int64_t v = rng.inRange(-6, 6);
        slots[0] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(slots[0]) +
            (static_cast<std::uint64_t>(v) << 60));
        slots[1] = std::min(slots[1], v);
        slots[2] = std::max(slots[2], -v);
        ++part.count(e);
    }
    return t;
}

QueryPlan
groupPlan()
{
    QueryPlan p;
    p.name = "groups";
    p.probe.table = ChTable::OrderLine;
    p.groupBy = {{ColRef::kProbe, "ol_o_id"}, {ColRef::kProbe, "ol_d_id"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}},
                    {AggKind::Min, {ColRef::kProbe, "ol_amount"}},
                    {AggKind::Max, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

/** Every group of @p t as a result row, in ascending key order. */
std::vector<ResultRow>
rowsByKey(const FlatTable &t)
{
    std::map<std::vector<std::int64_t>, ResultRow> byKey;
    for (std::size_t p = 0; p < kTablePartitions; ++p) {
        const auto &part = t.part(p);
        for (std::uint32_t e = 0; e < part.size(); ++e) {
            std::vector<std::int64_t> key(part.key(e),
                                          part.key(e) + t.keyWidth());
            byKey[key] = ResultRow{
                key,
                {part.slots(e), part.slots(e) + t.slotCount()},
                part.count(e)};
        }
    }
    std::vector<ResultRow> rows;
    for (auto &[key, row] : byKey)
        rows.push_back(std::move(row));
    return rows;
}

TEST(GroupTail, TopKMatchesStableSortOverAscendingKeys)
{
    // The tail sorts an index permutation (ORDER BY values, then the
    // key) and partial_sorts to LIMIT; the reference here is the
    // engine's former tail: ascending-key rows, a stable ORDER BY
    // sort, then the LIMIT cut.
    Rng rng(1207);
    for (int it = 0; it < 200; ++it) {
        const auto groups =
            randomGroups(rng, rng.inRange(0, 400), rng.inRange(1, 60));
        auto plan = groupPlan();
        const auto nsk = rng.inRange(0, 2);
        for (std::int64_t j = 0; j < nsk; ++j) {
            SortKey sk;
            sk.target = static_cast<SortKey::Target>(rng.inRange(0, 2));
            sk.index = static_cast<std::size_t>(
                sk.target == SortKey::Target::GroupKey
                    ? rng.inRange(0, 1)
                    : rng.inRange(0, 2));
            sk.descending = rng.flip(0.5);
            plan.orderBy.push_back(sk);
        }
        plan.limit = static_cast<std::uint64_t>(
            rng.flip(0.3) ? 0 : rng.inRange(1, 300));

        auto want = rowsByKey(groups);
        std::stable_sort(
            want.begin(), want.end(),
            [&plan](const ResultRow &a, const ResultRow &b) {
                for (const auto &sk : plan.orderBy) {
                    std::int64_t av = 0, bv = 0;
                    switch (sk.target) {
                      case SortKey::Target::GroupKey:
                        av = a.keys[sk.index];
                        bv = b.keys[sk.index];
                        break;
                      case SortKey::Target::Aggregate:
                        av = a.aggs[sk.index];
                        bv = b.aggs[sk.index];
                        break;
                      case SortKey::Target::Count:
                        av = static_cast<std::int64_t>(a.count);
                        bv = static_cast<std::int64_t>(b.count);
                        break;
                    }
                    if (av != bv)
                        return sk.descending ? av > bv : av < bv;
                }
                return false;
            });
        if (plan.limit != 0 && want.size() > plan.limit)
            want.resize(plan.limit);

        const auto got = materializeGroups(plan, groups);
        ASSERT_EQ(got.rows.size(), want.size()) << "it " << it;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got.rows[i].keys, want[i].keys) << it << "/" << i;
            EXPECT_EQ(got.rows[i].aggs, want[i].aggs) << it << "/" << i;
            EXPECT_EQ(got.rows[i].count, want[i].count) << it << "/" << i;
        }
    }
}

TEST(GroupTail, EmptyTableYieldsThePlaceholderOnlyWhenUngrouped)
{
    auto plan = groupPlan();
    EXPECT_TRUE(materializeGroups(plan, FlatTable(2, {0, 0, 0}))
                    .rows.empty());
    plan.groupBy.clear();
    const auto res = materializeGroups(plan, FlatTable(0, {0, 0, 0}));
    ASSERT_EQ(res.rows.size(), 1u);
    EXPECT_TRUE(res.rows[0].keys.empty());
    EXPECT_EQ(res.rows[0].aggs, (std::vector<std::int64_t>{0, 0, 0}));
    EXPECT_EQ(res.rows[0].count, 0u);
}

TEST(GroupTail, FoldGroupsMatchesAnOrderedMerge)
{
    // foldGroups is one pass over `from` through the table; the
    // reference merges ordered maps with the same wrapping-sum /
    // min / max / count semantics. Pools of 1 and 4 workers (the
    // latter folds partitions in parallel once the input is large).
    Rng rng(4242);
    for (const std::uint32_t workers : {1u, 4u}) {
        WorkerPool pool(workers);
        for (int it = 0; it < 2; ++it) {
            // The large case crosses the parallel-merge threshold.
            const std::size_t n = it % 2 == 0 ? 300 : 6000;
            auto into = randomGroups(rng, n, 3000);
            const auto from = randomGroups(rng, n, 3000);
            auto want = rowsByKey(into);
            std::map<std::vector<std::int64_t>, ResultRow> merged;
            for (auto &row : want)
                merged[row.keys] = row;
            for (const auto &row : rowsByKey(from)) {
                auto [pos, fresh] = merged.try_emplace(row.keys, row);
                if (fresh)
                    continue;
                auto &m = pos->second;
                m.aggs[0] = static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(m.aggs[0]) +
                    static_cast<std::uint64_t>(row.aggs[0]));
                m.aggs[1] = std::min(m.aggs[1], row.aggs[1]);
                m.aggs[2] = std::max(m.aggs[2], row.aggs[2]);
                m.count += row.count;
            }
            foldGroups(groupPlan(), into, from,
                       workers > 1 ? &pool : nullptr);
            const auto got = rowsByKey(into);
            ASSERT_EQ(got.size(), merged.size());
            std::size_t i = 0;
            for (const auto &[key, row] : merged) {
                EXPECT_EQ(got[i].keys, row.keys);
                EXPECT_EQ(got[i].aggs, row.aggs) << i;
                EXPECT_EQ(got[i].count, row.count) << i;
                ++i;
            }
        }
    }
}

} // namespace
} // namespace pushtap::olap
