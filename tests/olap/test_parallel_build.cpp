#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>

#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
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

/**
 * Bit-identity of the parallel snapshot/defrag passes: the modelled
 * charges and merged stats fold serially in table order, so a
 * workers=4 engine must reproduce the workers=1 engine exactly.
 */
class ParallelMaintenanceTest : public ::testing::Test
{
  protected:
    /** Two identically-populated databases (same seed, same ops). */
    struct Instance
    {
        explicit Instance(std::uint32_t workers)
            : db(smallConfig()),
              bw(8, 8, true),
              timing(dram::Geometry::dimmDefault(),
                     dram::TimingParams::ddr5_3200()),
              oltp(db, InstanceFormat::Unified, bw, timing, 17),
              engine(db, config(workers))
        {
            for (int i = 0; i < 40; ++i)
                oltp.executeMixed();
        }

        static OlapConfig
        config(std::uint32_t workers)
        {
            auto cfg = OlapConfig::pushtapDimm();
            cfg.workers = workers;
            return cfg;
        }

        Database db;
        format::BandwidthModel bw;
        dram::BatchTimingModel timing;
        TpccEngine oltp;
        OlapEngine engine;
    };
};

TEST_F(ParallelMaintenanceTest, SnapshotChargeAndStatsBitIdentical)
{
    Instance serial(1), parallel(4), manual(1);
    const auto ts = serial.db.now();
    ASSERT_EQ(ts, parallel.db.now());
    ASSERT_EQ(ts, manual.db.now());
    const auto t1 = serial.engine.prepareSnapshot(ts);
    const auto t4 = parallel.engine.prepareSnapshot(ts);
    EXPECT_DOUBLE_EQ(t4, t1);
    const auto &s1 = serial.engine.lastSnapshotStats();
    const auto &s4 = parallel.engine.lastSnapshotStats();
    EXPECT_EQ(s4.versionsScanned, s1.versionsScanned);
    EXPECT_EQ(s4.versionsSkipped, s1.versionsSkipped);
    EXPECT_EQ(s4.bitsFlipped, s1.bitsFlipped);
    EXPECT_EQ(s4.metadataBytesRead, s1.metadataBytesRead);
    EXPECT_EQ(s4.bitmapBytesWritten, s1.bitmapBytesWritten);

    // The stats cover the whole pass: they equal the sum of
    // independent per-table snapshot passes over the identically
    // built third database, not just the last table's share.
    mvcc::SnapshotStats sum;
    std::size_t tables_flipped = 0;
    for (std::size_t i = 0; i < workload::kChTableCount; ++i) {
        auto &tbl = manual.db.table(static_cast<ChTable>(i));
        mvcc::Snapshotter snap;
        const auto st = snap.snapshot(tbl.store(), tbl.versions(), ts);
        sum.versionsScanned += st.versionsScanned;
        sum.versionsSkipped += st.versionsSkipped;
        sum.bitsFlipped += st.bitsFlipped;
        sum.metadataBytesRead += st.metadataBytesRead;
        sum.bitmapBytesWritten += st.bitmapBytesWritten;
        tables_flipped += st.bitsFlipped > 0 ? 1 : 0;
    }
    // The mixed workload writes several tables, so a last-table-only
    // value could not pass.
    ASSERT_GT(tables_flipped, 1u);
    EXPECT_EQ(s1.versionsScanned, sum.versionsScanned);
    EXPECT_EQ(s1.versionsSkipped, sum.versionsSkipped);
    EXPECT_EQ(s1.bitsFlipped, sum.bitsFlipped);
    EXPECT_EQ(s1.metadataBytesRead, sum.metadataBytesRead);
    EXPECT_EQ(s1.bitmapBytesWritten, sum.bitmapBytesWritten);
}

TEST_F(ParallelMaintenanceTest, DefragChargeStatsAndAnswersIdentical)
{
    Instance serial(1), parallel(4);
    serial.engine.prepareSnapshot(serial.db.now());
    parallel.engine.prepareSnapshot(parallel.db.now());
    const auto t1 = serial.engine.runDefragmentation(
        mvcc::DefragStrategy::Hybrid);
    const auto t4 = parallel.engine.runDefragmentation(
        mvcc::DefragStrategy::Hybrid);
    EXPECT_DOUBLE_EQ(t4, t1);
    const auto &d1 = serial.engine.lastDefragStats();
    const auto &d4 = parallel.engine.lastDefragStats();
    EXPECT_EQ(d4.deltaRows, d1.deltaRows);
    EXPECT_EQ(d4.rowsCopied, d1.rowsCopied);
    EXPECT_EQ(d4.chainSteps, d1.chainSteps);
    EXPECT_EQ(d4.bytesMoved, d1.bytesMoved);
    EXPECT_DOUBLE_EQ(d4.timeNs, d1.timeNs);
    EXPECT_DOUBLE_EQ(d4.breakdown.get("traverse"),
                     d1.breakdown.get("traverse"));
    EXPECT_DOUBLE_EQ(d4.breakdown.get("copy"),
                     d1.breakdown.get("copy"));

    // Post-defrag queries agree row for row.
    serial.engine.prepareSnapshot(serial.db.now());
    parallel.engine.prepareSnapshot(parallel.db.now());
    for (const auto &q : workload::chExecutablePlans()) {
        QueryResult r1, r4;
        serial.engine.runQuery(q.plan, &r1);
        parallel.engine.runQuery(q.plan, &r4);
        ASSERT_EQ(r1.rows.size(), r4.rows.size()) << q.plan.name;
        for (std::size_t i = 0; i < r1.rows.size(); ++i) {
            EXPECT_EQ(r1.rows[i].keys, r4.rows[i].keys);
            EXPECT_EQ(r1.rows[i].aggs, r4.rows[i].aggs);
            EXPECT_EQ(r1.rows[i].count, r4.rows[i].count);
        }
    }
}

} // namespace
} // namespace pushtap::olap
