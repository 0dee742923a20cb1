#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "olap/simd_kernels.hpp"
#include "support/reference_check.hpp"
#include "txn/txn_worker_group.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap {
namespace {

using olap::ExecOptions;
using olap::OlapConfig;
using olap::OlapEngine;
using testsupport::RefAnswer;
using txn::InstanceFormat;
using workload::ChTable;

/** Fixed seed of every draw below; a failure prints it. */
constexpr std::uint64_t kSeed = 0x9d1ff16;

txn::DatabaseConfig
smallConfig()
{
    txn::DatabaseConfig cfg;
    cfg.scale = 0.0002;
    // 64-row circulant blocks: shard boundaries land mid-morsel, so
    // the per-shard scan and build walks are exercised hard.
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

const char *
formatName(InstanceFormat f)
{
    switch (f) {
      case InstanceFormat::Unified: return "Unified";
      case InstanceFormat::RowStore: return "RowStore";
      case InstanceFormat::ColumnStore: return "ColumnStore";
    }
    return "Unknown";
}

/**
 * One configuration under test: either a bare executePlan() call with
 * fixed ExecOptions, or a long-lived OlapEngine whose optimizer stats
 * and result cache persist across frontiers.
 */
struct Cell
{
    std::string what;
    /** Run with simd::forceScalarKernels(true). */
    bool scalar = false;
    ExecOptions exec;
    /** Engine cells only; null for executePlan cells. */
    std::unique_ptr<OlapEngine> engine;
};

/**
 * The section 4.3 contract, checked differentially: every served
 * answer equals the reference executor's serial read at the captured
 * commit frontier, for every configuration, on one database whose
 * writes, snapshots and defragmentation passes interleave with the
 * queries. One database per InstanceFormat (the format changes OLTP
 * pricing and layout, never answers).
 *
 * Frontiers, in order:
 *  - F0: the populated tables, no write yet;
 *  - F1: after a TxnWorkerGroup batch; a second batch commits past
 *    the snapshot while the cells run, so its versions sit in the
 *    delta region unseen;
 *  - F2, F3: after a batch and a defragmentation pass; F3's cells
 *    race another batch like F1's.
 * The result-cache engines run every plan twice at the quiescent
 * frontiers (exact hits) and see OrderLine grow by pure appends
 * between F0 and F1 (delta-incremental serves of Q1/Q6).
 */
class Differential : public ::testing::TestWithParam<InstanceFormat>
{
  protected:
    Differential()
        : rng(kSeed ^ static_cast<std::uint64_t>(GetParam())),
          db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200())
    {
        // One engine owns the snapshot and defrag passes: snapshot
        // cursors are per engine, and a defrag run by one engine
        // leaves the others' cursors stale. The cells read the
        // shared visibility bitmaps.
        auto cfg = OlapConfig::pushtapDimm();
        cfg.workers = rng.flip(0.5) ? 4 : 1;
        maintenance = std::make_unique<OlapEngine>(db, cfg);
        buildCells();
    }

    ~Differential() override { olap::simd::forceScalarKernels(false); }

    WorkerPool *
    pool(std::uint32_t workers)
    {
        if (workers <= 1)
            return nullptr;
        auto &p = pools[workers];
        if (!p)
            p = std::make_unique<WorkerPool>(workers);
        return p.get();
    }

    void
    addExec(std::uint32_t workers, std::uint32_t shards,
            std::uint32_t morsel, bool scalar)
    {
        Cell c;
        c.what = "exec w" + std::to_string(workers) + " s" +
                 std::to_string(shards) + " m" +
                 std::to_string(morsel) + (scalar ? " scalar" : "");
        c.scalar = scalar;
        c.exec.workers = workers;
        c.exec.shards = shards;
        c.exec.morselRows = morsel;
        c.exec.pool = pool(workers);
        cells.push_back(std::move(c));
    }

    void
    addEngine(const OlapConfig &cfg, bool scalar = false)
    {
        Cell c;
        c.what = "engine w" + std::to_string(cfg.workers) + " s" +
                 std::to_string(cfg.shards) + " m" +
                 std::to_string(cfg.morselRows) +
                 (cfg.fuseScans ? " fuseScans" : "") +
                 (cfg.optimize ? " optimize" : "") +
                 (cfg.resultCache ? " resultCache" : "") +
                 (scalar ? " scalar" : "");
        c.scalar = scalar;
        c.engine = std::make_unique<OlapEngine>(db, cfg);
        cells.push_back(std::move(c));
    }

    void
    buildCells()
    {
        const std::uint32_t hw = WorkerPool::hardwareWorkers();
        for (const std::uint32_t w : {1u, 2u, 4u, hw})
            for (const std::uint32_t s : {1u, 2u, 4u})
                addExec(w, s, olap::kMorselRows, false);
        // Morsel sizes around the default, at both corners the
        // parallel scan and build paths were pinned at.
        for (const std::uint32_t m : {256u, 8192u}) {
            addExec(2, 2, m, false);
            addExec(4, 4, m, false);
        }
        addExec(1, 1, olap::kMorselRows, true);
        addExec(4, 4, olap::kMorselRows, true);

        const auto base = OlapConfig::pushtapDimm();
        addEngine(base);
        auto fused = base;
        fused.fuseScans = true;
        addEngine(fused);
        for (const std::uint32_t s : {2u, 4u}) {
            auto opt = base;
            opt.optimize = true;
            opt.shards = s;
            opt.workers = 2;
            addEngine(opt);
        }
        auto cached = base;
        cached.resultCache = true;
        addEngine(cached);
        cached.optimize = true;
        addEngine(cached);

        // Seeded draws over the whole configuration space.
        for (int i = 0; i < 2; ++i) {
            const auto workers =
                static_cast<std::uint32_t>(rng.inRange(1, 4));
            const auto shards =
                static_cast<std::uint32_t>(rng.inRange(1, 4));
            const std::uint32_t morsel = 64u << rng.below(8);
            const bool scalar = rng.flip(0.5);
            if (rng.flip(0.5)) {
                addExec(workers, shards, morsel, scalar);
                continue;
            }
            auto cfg = base;
            cfg.workers = workers;
            cfg.shards = shards;
            cfg.morselRows = morsel;
            cfg.fuseScans = rng.flip(0.5);
            cfg.optimize = rng.flip(0.5);
            cfg.resultCache = rng.flip(0.5);
            addEngine(cfg, scalar);
        }
    }

    /** A fresh writer group of 1-4 workers with its own seed. */
    std::unique_ptr<txn::TxnWorkerGroup>
    writers()
    {
        txn::TxnWorkerGroupOptions opts;
        opts.workers = static_cast<std::uint32_t>(rng.inRange(1, 4));
        opts.seed = rng();
        return std::make_unique<txn::TxnWorkerGroup>(
            db, GetParam(), bw, timing, opts);
    }

    std::uint64_t batchSize() { return 15 + rng.below(16); }

    /** Run @p cell over every plan against @p want. */
    void
    runCell(Cell &cell, const std::vector<RefAnswer> &want,
            const std::string &label)
    {
        const auto &plans = workload::chExecutablePlans();
        olap::simd::forceScalarKernels(cell.scalar);
        for (std::size_t p = 0; p < plans.size(); ++p) {
            const auto &plan = plans[p].plan;
            const auto what = label + " | " + cell.what + " | " +
                              plan.name;
            if (!cell.engine) {
                testsupport::expectExecution(
                    olap::executePlan(db, plan, cell.exec), want[p],
                    what);
                continue;
            }
            olap::QueryResult res;
            const auto rep = cell.engine->runQuery(plan, &res);
            testsupport::expectRows(res, want[p].rows, what);
            EXPECT_EQ(rep.rowsVisible, want[p].rowsVisible) << what;
            if (!rep.optimized)
                continue;
            // The optimizer only takes strictly cheaper plans and
            // never overrides a user-set knob.
            const auto &cfg = cell.engine->config();
            EXPECT_LE(rep.pricedChosenNs, rep.pricedHandBuiltNs)
                << what;
            if (cfg.workers > 1) {
                EXPECT_EQ(rep.execWorkers, cfg.workers) << what;
            }
            if (cfg.shards > 1) {
                EXPECT_EQ(rep.execShards, cfg.shards) << what;
            }
            if (cfg.morselRows != olap::kMorselRows) {
                EXPECT_EQ(rep.execMorselRows, cfg.morselRows) << what;
            }
        }
        olap::simd::forceScalarKernels(false);
    }

    /**
     * Snapshot at the current frontier, take the reference answers
     * once, and run every cell against them. With @p inflight, a
     * further batch commits past the snapshot while the cells run;
     * otherwise the result-cache engines repeat every plan, which
     * must be served as exact hits.
     */
    void
    checkFrontier(const std::string &label, bool inflight)
    {
        maintenance->prepareSnapshot(db.now());
        const auto &plans = workload::chExecutablePlans();
        std::vector<RefAnswer> want;
        testsupport::RefTables tables(db);
        for (const auto &q : plans)
            want.push_back(testsupport::referenceAnswer(tables, q.plan));

        std::unique_ptr<txn::TxnWorkerGroup> racing;
        if (inflight) {
            racing = writers();
            racing->start(batchSize());
        }
        for (auto &cell : cells) {
            runCell(cell, want, label);
            if (HasFailure())
                break;
        }
        if (racing) {
            racing->finish();
            return;
        }
        for (auto &cell : cells) {
            if (!cell.engine || !cell.engine->config().resultCache)
                continue;
            for (std::size_t p = 0; p < plans.size(); ++p) {
                const auto what = label + " repeat | " + cell.what +
                                  " | " + plans[p].plan.name;
                olap::QueryResult res;
                const auto rep =
                    cell.engine->runQuery(plans[p].plan, &res);
                EXPECT_TRUE(rep.cacheHit) << what;
                testsupport::expectRows(res, want[p].rows, what);
            }
        }
    }

    mvcc::DefragStrategy
    strategy()
    {
        constexpr mvcc::DefragStrategy kAll[] = {
            mvcc::DefragStrategy::CpuOnly,
            mvcc::DefragStrategy::PimOnly,
            mvcc::DefragStrategy::Hybrid};
        return kAll[rng.below(3)];
    }

    Rng rng;
    txn::Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    std::map<std::uint32_t, std::unique_ptr<WorkerPool>> pools;
    std::unique_ptr<OlapEngine> maintenance;
    std::vector<Cell> cells;
};

TEST_P(Differential, EveryConfigurationMatchesReferenceAtEveryFrontier)
{
    SCOPED_TRACE(::testing::Message() << "seed 0x" << std::hex << kSeed
                                      << " format "
                                      << formatName(GetParam()));

    checkFrontier("F0 clean", false);
    ASSERT_FALSE(HasFailure());

    writers()->run(batchSize());
    ASSERT_GT(db.table(ChTable::OrderLine).versions().deltaUsed(), 0u);
    checkFrontier("F1 batch", true);
    ASSERT_FALSE(HasFailure());

    // Defragment before each snapshot: the F1 racing batch was never
    // snapshotted, and F2's entries start from an empty delta region,
    // so F3's in-place Stock updates leave the bitmaps looking
    // append-only and only the rewrite epoch voids those entries.
    writers()->run(batchSize());
    maintenance->runDefragmentation(strategy());
    checkFrontier("F2 batch+defrag", false);
    ASSERT_FALSE(HasFailure());

    writers()->run(batchSize());
    maintenance->runDefragmentation(strategy());
    checkFrontier("F3 batch+defrag", true);

    // Both cache serve paths ran, besides the cold misses.
    for (const auto &cell : cells) {
        if (!cell.engine || !cell.engine->config().resultCache)
            continue;
        const auto *cache = cell.engine->resultCache();
        ASSERT_NE(cache, nullptr) << cell.what;
        EXPECT_GT(cache->hits, 0u) << cell.what;
        EXPECT_GT(cache->incrementals, 0u) << cell.what;
        EXPECT_GT(cache->misses, 0u) << cell.what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, Differential,
    ::testing::Values(InstanceFormat::Unified, InstanceFormat::RowStore,
                      InstanceFormat::ColumnStore),
    [](const ::testing::TestParamInfo<InstanceFormat> &info) {
        return std::string(formatName(info.param));
    });

} // namespace
} // namespace pushtap
