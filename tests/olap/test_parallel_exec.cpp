#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "support/reference_check.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using testsupport::expectExecution;
using testsupport::expectRows;
using testsupport::referenceAnswer;
using txn::Database;
using workload::ChTable;
using txn::DatabaseConfig;
using txn::InstanceFormat;
using txn::TpccEngine;

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    // 64-row circulant blocks: shard boundaries align to blocks far
    // smaller than a morsel, so shards start mid-morsel-stride and
    // the per-shard walk is exercised hard.
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

// ---- the FlatTable family vs the reference executor ---------------

/**
 * Plans shaped to drive every member of the hash-table family
 * (group tables, subquery tables, inner-join build tables, existence
 * sets) and the shared top-k materialization tail through their edge
 * cases.
 */
std::vector<QueryPlan>
flatTablePlans()
{
    std::vector<QueryPlan> out;

    // Group domain past DenseGroupAggregator::kMaxDomain (s_i_id
    // spans every item), so the dense aggregator spills mid-stream;
    // Min/Max over negative values, a Sum that wraps, and ORDER BY a
    // low-cardinality aggregate (ties) with a LIMIT just below the
    // group count, so nearly every group shows.
    QueryPlan spill;
    spill.name = "spill";
    spill.probe.table = ChTable::Stock;
    spill.groupBy = {{ColRef::kProbe, "s_i_id"}};
    spill.aggregates = {
        {AggKind::Min, {},
         ex::sub(ex::lit(0), ex::col("s_quantity"))},
        {AggKind::Max, {},
         ex::sub(ex::lit(-1000), ex::col("s_order_cnt"))},
        {AggKind::Sum, {},
         ex::mul(ex::col("s_quantity"),
                 ex::lit(std::int64_t{1} << 61))},
        {AggKind::Sum, {ColRef::kProbe, "s_quantity"}}};
    spill.orderBy = {{SortKey::Target::Aggregate, 0, false},
                     {SortKey::Target::Count, 0, true}};
    spill.limit = 4500;
    out.push_back(spill);

    // The same folds ungrouped (the fused single-group pass): the
    // wrapping Sum crosses int64 many times over.
    QueryPlan total = spill;
    total.name = "ungrouped";
    total.groupBy.clear();
    total.orderBy.clear();
    total.limit = 0;
    out.push_back(total);

    // Key arity 1..8 over Orders Int columns, ORDER BY the group
    // count (heavy ties) with a LIMIT.
    const char *cols[] = {"o_ol_cnt",  "o_d_id",     "o_carrier_id",
                          "o_c_id",    "o_all_local", "o_id",
                          "o_w_id",    "o_entry_d"};
    for (std::size_t arity = 1; arity <= InlineKey::kMaxKeys;
         ++arity) {
        QueryPlan p;
        p.name = "arity" + std::to_string(arity);
        p.probe.table = ChTable::Orders;
        for (std::size_t c = 0; c < arity; ++c)
            p.groupBy.push_back({ColRef::kProbe, cols[c]});
        p.aggregates = {
            {AggKind::Sum, {ColRef::kProbe, "o_ol_cnt"}},
            {AggKind::Max, {},
             ex::sub(ex::lit(0), ex::col("o_entry_d"))}};
        p.orderBy = {{SortKey::Target::Count, 0, true}};
        p.limit = 50;
        out.push_back(std::move(p));
    }

    // Inner joins with duplicate build keys: every customer id
    // matches several orders (o_c_id repeats across districts), and
    // every order several lines through a payload-keyed second join.
    QueryPlan dup;
    dup.name = "dupkeys";
    dup.probe.table = ChTable::Customer;
    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_c_id", {ColRef::kProbe, "c_id"}}};
    orders.payload = {"o_id", "o_d_id", "o_w_id", "o_entry_d"};
    JoinSpec lines;
    lines.build.table = ChTable::OrderLine;
    lines.kind = JoinKind::Inner;
    lines.keys = {{"ol_o_id", {0, "o_id"}},
                  {"ol_d_id", {0, "o_d_id"}},
                  {"ol_w_id", {0, "o_w_id"}}};
    lines.payload = {"ol_amount", "ol_i_id"};
    dup.joins = {orders, lines};
    dup.groupBy = {{ColRef::kProbe, "c_d_id"}, {1, "ol_i_id"}};
    dup.aggregates = {{AggKind::Sum, {1, "ol_amount"}},
                      {AggKind::Max, {0, "o_entry_d"}},
                      {AggKind::Min, {},
                       ex::sub(ex::col(0, "o_id"),
                               ex::col(ColRef::kProbe, "c_id"))}};
    dup.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    dup.limit = 25;
    out.push_back(std::move(dup));

    // A subquery table with thousands of groups and negative
    // Min/Max slots, probed per OrderLine row: keep the lines
    // cheaper than their item's most expensive line.
    QueryPlan sub;
    sub.name = "subquery";
    sub.probe.table = ChTable::OrderLine;
    SubquerySpec stats;
    stats.source.table = ChTable::OrderLine;
    stats.groupBy = {"ol_i_id"};
    stats.aggs = {{AggKind::Min, ex::sub(ex::lit(0), ex::col("ol_amount"))},
                  {AggKind::Max, ex::sub(ex::col("ol_quantity"),
                                         ex::lit(100))},
                  {AggKind::Sum, ex::lit(1)}};
    stats.keys = {{ColRef::kProbe, "ol_i_id"}};
    sub.subqueries = {std::move(stats)};
    sub.probe.exprPredicates = {
        ex::gt(ex::sub(ex::lit(0), ex::col("ol_amount")),
               ex::subq(0, 0))};
    sub.groupBy = {{ColRef::kProbe, "ol_number"}};
    sub.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    out.push_back(std::move(sub));

    // Two-column existence sets: a semi and an anti join keyed on
    // (order id, district) — the multi-key filter-join probe.
    for (const auto kind : {JoinKind::Semi, JoinKind::Anti}) {
        QueryPlan p;
        p.name = kind == JoinKind::Semi ? "semi2" : "anti2";
        p.probe.table = ChTable::OrderLine;
        JoinSpec j;
        j.build.table = ChTable::Orders;
        j.build.intPredicates = {{"o_carrier_id", 1, 5}};
        j.kind = kind;
        j.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}},
                  {"o_d_id", {ColRef::kProbe, "ol_d_id"}}};
        p.joins = {std::move(j)};
        p.groupBy = {{ColRef::kProbe, "ol_d_id"}};
        p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
        out.push_back(std::move(p));
    }
    return out;
}

/**
 * Every FlatTable-shaped plan, across workers {1, 2, 4} x shards
 * {1, 3, 8}, byte-identical to the independently-mechanised
 * reference executor. A larger database than smallConfig(): Stock
 * holds 5 000 items, so group domains outgrow the dense aggregator.
 */
TEST(FlatTableExec, PlansMatchReferenceAcrossWorkersAndShards)
{
    auto cfg = smallConfig();
    cfg.scale = 0.00025;
    Database db(cfg);
    format::BandwidthModel bw(8, 8, true);
    dram::BatchTimingModel timing(dram::Geometry::dimmDefault(),
                                  dram::TimingParams::ddr5_3200());
    TpccEngine oltp(db, InstanceFormat::Unified, bw, timing, 41);
    OlapEngine engine(db, OlapConfig::pushtapDimm());
    for (int i = 0; i < 60; ++i)
        oltp.executeMixed();
    engine.prepareSnapshot(db.now());
    // Past the dense aggregator's 4096-key domain.
    ASSERT_GT(db.table(ChTable::Stock).populatedRows(), 4096u);

    testsupport::RefTables tables(db);
    for (const auto &plan : flatTablePlans()) {
        const auto want = referenceAnswer(tables, plan);
        ASSERT_FALSE(want.rows.empty()) << plan.name;
        for (const std::uint32_t workers : {1u, 2u, 4u}) {
            WorkerPool pool(workers);
            for (const std::uint32_t shards : {1u, 3u, 8u}) {
                ExecOptions opts;
                opts.shards = shards;
                opts.workers = workers;
                opts.pool = workers > 1 ? &pool : nullptr;
                expectExecution(executePlan(db, plan, opts), want,
                                plan.name + " w" +
                                    std::to_string(workers) + " s" +
                                    std::to_string(shards));
            }
        }
    }
}

TEST(ExecOptionsValidation, RejectsBadKnobs)
{
    const Database db(smallConfig());
    const auto plan = plans::q6();
    ExecOptions opts;
    opts.morselRows = 1536; // not a power of two
    EXPECT_THROW(executePlan(db, plan, opts), FatalError);
    opts.morselRows = 0;
    EXPECT_THROW(executePlan(db, plan, opts), FatalError);
    opts = {};
    opts.shards = 0;
    EXPECT_THROW(executePlan(db, plan, opts), FatalError);
}

TEST(OlapConfigValidation, RejectsBadKnobs)
{
    Database db(smallConfig());
    auto cfg = OlapConfig::pushtapDimm();
    cfg.morselRows = 1000;
    EXPECT_THROW(OlapEngine(db, cfg), FatalError);
    cfg.morselRows = 0;
    EXPECT_THROW(OlapEngine(db, cfg), FatalError);
    cfg = OlapConfig::pushtapDimm();
    cfg.shards = 0;
    EXPECT_THROW(OlapEngine(db, cfg), FatalError);
}

/**
 * Pricing invariants of the shard decomposition, against the golden
 * single-shard engine.
 */
class ShardPricingTest : public ::testing::Test
{
  protected:
    ShardPricingTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 11)
    {
        for (int i = 0; i < 30; ++i)
            oltp.executeMixed();
    }

    OlapConfig
    config(std::uint32_t shards, std::uint32_t workers) const
    {
        auto cfg = OlapConfig::pushtapDimm();
        cfg.shards = shards;
        cfg.workers = workers;
        return cfg;
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
};

TEST_F(ShardPricingTest, SingleShardDecompositionUnchangedByWorkers)
{
    // Golden invariance: workers are host-side only, so a shards=1
    // engine must reproduce every decomposition bit-for-bit no
    // matter how many threads drained the morsels.
    OlapEngine golden(db, config(1, 1));
    OlapEngine parallel(db, config(1, 4));
    for (const auto &q : workload::chExecutablePlans()) {
        golden.prepareSnapshot(db.now());
        parallel.prepareSnapshot(db.now());
        QueryResult gres, pres;
        const auto grep = golden.runQuery(q.plan, &gres);
        const auto prep = parallel.runQuery(q.plan, &pres);
        EXPECT_DOUBLE_EQ(prep.pimNs, grep.pimNs) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.cpuNs, grep.cpuNs) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.cpuBlockedNs, grep.cpuBlockedNs)
            << q.plan.name;
        EXPECT_EQ(prep.rowsVisible, grep.rowsVisible) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.mergeNs, 0.0) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.buildMergeNs, 0.0) << q.plan.name;
        ASSERT_EQ(gres.rows.size(), pres.rows.size()) << q.plan.name;
        for (std::size_t i = 0; i < gres.rows.size(); ++i) {
            EXPECT_EQ(gres.rows[i].keys, pres.rows[i].keys);
            EXPECT_EQ(gres.rows[i].aggs, pres.rows[i].aggs);
            EXPECT_EQ(gres.rows[i].count, pres.rows[i].count);
        }
    }
}

TEST_F(ShardPricingTest, ShardBytesComposeAdditively)
{
    OlapEngine one(db, config(1, 1));
    OlapEngine four(db, config(4, 2));
    for (const auto &q : workload::chExecutablePlans()) {
        one.prepareSnapshot(db.now());
        four.prepareSnapshot(db.now());
        QueryResult r1, r4;
        const auto rep1 = one.runQuery(q.plan, &r1);
        const auto rep4 = four.runQuery(q.plan, &r4);

        // Identical answers, identical scanned bytes in total.
        ASSERT_EQ(r1.rows.size(), r4.rows.size()) << q.plan.name;
        for (std::size_t i = 0; i < r1.rows.size(); ++i)
            EXPECT_EQ(r1.rows[i].aggs, r4.rows[i].aggs);
        ASSERT_EQ(rep1.shardBytes.size(), 1u);
        ASSERT_EQ(rep4.shardBytes.size(), 4u);
        EXPECT_EQ(std::accumulate(rep4.shardBytes.begin(),
                                  rep4.shardBytes.end(), Bytes{0}),
                  rep1.shardBytes[0])
            << q.plan.name;

        // Partitioning pays per-shard scan fixed costs plus the
        // cross-shard merge and (for plans with builds) the
        // build-consolidation charge — never less than the single
        // scan.
        EXPECT_GE(rep4.pimNs, rep1.pimNs) << q.plan.name;
        EXPECT_GT(rep4.mergeNs, 0.0) << q.plan.name;
        if (q.plan.joins.empty() && q.plan.subqueries.empty())
            EXPECT_DOUBLE_EQ(rep4.buildMergeNs, 0.0) << q.plan.name;
        else
            EXPECT_GT(rep4.buildMergeNs, 0.0) << q.plan.name;
        EXPECT_DOUBLE_EQ(rep4.cpuNs, rep1.cpuNs + rep4.mergeNs +
                                         rep4.buildMergeNs)
            << q.plan.name;
    }
}

TEST_F(ShardPricingTest, EngineShardingKeepsReferenceAnswers)
{
    // End-to-end through the engine at an aggressive configuration:
    // answers equal the reference executor exactly.
    OlapEngine engine(db, config(4, 4));
    engine.prepareSnapshot(db.now());
    testsupport::RefTables tables(db);
    for (const auto &q : workload::chExecutablePlans()) {
        QueryResult res;
        engine.runQuery(q.plan, &res);
        expectRows(res, testsupport::referenceExecute(tables, q.plan),
                   q.plan.name);
    }
}

} // namespace
} // namespace pushtap::olap
