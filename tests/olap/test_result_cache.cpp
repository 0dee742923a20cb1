#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "olap/result_cache.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

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
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

void
expectSameResult(const QueryResult &got, const QueryResult &want,
                 const std::string &what)
{
    ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
    for (std::size_t i = 0; i < want.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].keys, want.rows[i].keys)
            << what << " row " << i;
        EXPECT_EQ(got.rows[i].aggs, want.rows[i].aggs)
            << what << " row " << i;
        EXPECT_EQ(got.rows[i].count, want.rows[i].count)
            << what << " row " << i;
    }
}

class ResultCachePropertyTest
    : public ::testing::TestWithParam<InstanceFormat>
{
  protected:
    ResultCachePropertyTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, GetParam(), bw, timing, 37)
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
};

TEST_P(ResultCachePropertyTest, IncrementalScansOnlyTheDelta)
{
    auto cfg = OlapConfig::pushtapDimm();
    cfg.resultCache = true;
    OlapEngine cached(db, cfg);
    cached.prepareSnapshot(db.now());

    const QueryPlan &q1 = *workload::executableQueryPlan(1);
    QueryResult cold;
    const auto cold_rep = cached.runQuery(q1, &cold);
    EXPECT_FALSE(cold_rep.cacheHit);
    EXPECT_EQ(cold_rep.incrementalRows, 0u);

    // Only New-Order appends touch OrderLine; the re-execution must
    // charge and count just those appended rows.
    for (int i = 0; i < 8; ++i)
        oltp.executeNewOrder();
    cached.prepareSnapshot(db.now());
    QueryResult warm;
    const auto warm_rep = cached.runQuery(q1, &warm);
    EXPECT_FALSE(warm_rep.cacheHit);
    EXPECT_GT(warm_rep.incrementalRows, 0u);
    EXPECT_LT(warm_rep.incrementalRows, warm_rep.rowsVisible);
    EXPECT_GT(warm_rep.rowsVisible, cold_rep.rowsVisible);

    auto ground = executePlan(db, q1);
    expectSameResult(warm, ground.result, "q1 incremental");

    // The delta-only ScanCost pricing can never charge more PIM
    // streaming than the cold run over the full snapshot did.
    EXPECT_LE(warm_rep.pimNs, cold_rep.pimNs);
}

TEST_P(ResultCachePropertyTest, UpdatedProbeFallsBackToFullRun)
{
    auto cfg = OlapConfig::pushtapDimm();
    cfg.resultCache = true;
    OlapEngine cached(db, cfg);
    cached.prepareSnapshot(db.now());

    // STOCK takes in-place updates from New-Order, so a plan
    // probing it can never re-execute incrementally: the subset
    // test sees the cleared bit of every rewritten row.
    QueryPlan stock_scan;
    stock_scan.name = "stock_scan";
    stock_scan.probe.table = ChTable::Stock;
    stock_scan.aggregates = {
        {AggKind::Sum, {ColRef::kProbe, "s_quantity"}}};

    QueryResult cold;
    cached.runQuery(stock_scan, &cold);
    for (int i = 0; i < 8; ++i)
        oltp.executeNewOrder();
    cached.prepareSnapshot(db.now());

    QueryResult warm;
    const auto rep = cached.runQuery(stock_scan, &warm);
    EXPECT_FALSE(rep.cacheHit);
    EXPECT_EQ(rep.incrementalRows, 0u);
    auto ground = executePlan(db, stock_scan);
    expectSameResult(warm, ground.result, "stock fallback");
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, ResultCachePropertyTest,
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

} // namespace
} // namespace pushtap::olap
