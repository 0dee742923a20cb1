#include <gtest/gtest.h>

/**
 * @file
 * Golden modelled TxnStats of a seeded serial Payment + New-Order run
 * under every storage format (and the HBM variant of the unified
 * one). Every CPU component, the line count, the memory time and the
 * version count are pinned exactly: the engine's cost accounting may
 * be restructured, but it must add the same doubles in the same
 * order. Components a format never charges must stay absent.
 */

#include <map>
#include <string>

#include "txn/tpcc_engine.hpp"

namespace pushtap::txn {
namespace {

struct Golden
{
    const char *name;
    InstanceFormat fmt;
    bool hbm;
    std::map<std::string, double> cpu;
    double memLines;
    double memTimeNs;
};

/** Shared by every format: only the line traffic and relayout move. */
const std::map<std::string, double> kCoreCpu = {
    {"allocation", 158760},
    {"chain_traverse", 1504},
    {"commit", 3600},
    {"computation", 132030},
    {"indexing", 120980},
};

std::map<std::string, double>
withRelayout(double relayout)
{
    auto cpu = kCoreCpu;
    cpu["relayout"] = relayout;
    return cpu;
}

class TxnStatsGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(TxnStatsGolden, SerialRunMatchesExactly)
{
    const Golden &g = GetParam();
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    const format::BandwidthModel bw =
        g.hbm ? format::BandwidthModel(8, 64, false)
              : format::BandwidthModel(8, 8, true);
    const dram::BatchTimingModel timing =
        g.hbm ? dram::BatchTimingModel(dram::Geometry::hbmDefault(),
                                       dram::TimingParams::hbm3())
              : dram::BatchTimingModel(
                    dram::Geometry::dimmDefault(),
                    dram::TimingParams::ddr5_3200());

    Database db(cfg);
    TpccEngine engine(db, g.fmt, bw, timing, 11);
    for (int i = 0; i < 60; ++i) {
        engine.executePayment();
        engine.executeNewOrder();
    }
    const TxnStats s = engine.stats();
    EXPECT_EQ(s.transactions, 120u);
    EXPECT_EQ(s.payments, 60u);
    EXPECT_EQ(s.newOrders, 60u);
    EXPECT_EQ(s.versionsCreated, 1620u);
    EXPECT_EQ(s.cpu.parts(), g.cpu);
    EXPECT_EQ(s.memLines, g.memLines);
    EXPECT_EQ(s.memTimeNs, g.memTimeNs);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, TxnStatsGolden,
    ::testing::Values(
        Golden{"RowStore", InstanceFormat::RowStore, false, kCoreCpu,
               7475.625, 63186.339632520721},
        Golden{"ColumnStore", InstanceFormat::ColumnStore, false,
               kCoreCpu, 9967.5, 189854.30838251757},
        Golden{"Unified", InstanceFormat::Unified, false,
               withRelayout(12186.00000000018), 12664.6875,
               95911.974603636249},
        Golden{"UnifiedHbm", InstanceFormat::Unified, true,
               withRelayout(12186.00000000018), 12898.125,
               31957.488762842291}),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace pushtap::txn
