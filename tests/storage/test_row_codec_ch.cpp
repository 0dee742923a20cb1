#include <gtest/gtest.h>

/**
 * @file
 * Row re-layout over the real CH-benCHmark layouts: for all nine
 * tables (key columns marked from Q1-Q22, so normal columns shred
 * across devices), both regions and rows on both sides of every
 * block-circulant rotation boundary, TableStore::readRow after
 * writeRow returns the written bytes, and so does the independent
 * per-column fragment path (readColumnBytes). The codec's move count
 * is the layout's fragment count.
 */

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "format/generators.hpp"
#include "storage/table_store.hpp"
#include "workload/ch_schema.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::storage {
namespace {

constexpr std::uint32_t kDevices = 8;
constexpr std::uint32_t kBlockRows = 4;
/** Three full rotations plus one block: every boundary is crossed. */
constexpr RowId kRows = kBlockRows * (kDevices * 3 + 1);

class RowCodecCh : public ::testing::TestWithParam<double>
{
};

TEST_P(RowCodecCh, AllTablesRoundTripAcrossRotations)
{
    auto schemas = workload::chBenchmarkSchemas();
    workload::markKeyColumns(schemas, 22);
    ASSERT_EQ(schemas.size(), workload::kChTableCount);
    pushtap::Rng rng(2024);
    for (const auto &schema : schemas) {
        SCOPED_TRACE(schema.name());
        const auto layout =
            format::compactAligned(schema, kDevices, GetParam());
        TableStore store(layout,
                         format::BlockCirculant(kDevices, kBlockRows),
                         kRows, kRows);

        std::uint32_t fragments = 0;
        for (const auto &part : layout.parts())
            for (const auto &slot : part.slots)
                fragments +=
                    static_cast<std::uint32_t>(slot.fragments.size());
        EXPECT_EQ(store.codec().fragmentsPerRow(), fragments);
        EXPECT_GE(fragments, schema.columnCount());

        for (Region reg : {Region::Data, Region::Delta}) {
            std::vector<std::vector<std::uint8_t>> rows(kRows);
            for (RowId r = 0; r < kRows; ++r) {
                rows[r].resize(schema.rowBytes());
                for (auto &b : rows[r])
                    b = static_cast<std::uint8_t>(rng.below(256));
                store.writeRow(reg, r, rows[r]);
            }
            // Read back after every row is written, so a move landing
            // on a neighbour's bytes would show.
            std::vector<std::uint8_t> out(schema.rowBytes());
            std::vector<std::uint8_t> col;
            for (RowId r = 0; r < kRows; ++r) {
                store.readRow(reg, r, out);
                ASSERT_EQ(out, rows[r]) << "row " << r;
                for (ColumnId c = 0; c < schema.columnCount(); ++c) {
                    const auto width = schema.column(c).width;
                    col.assign(width, 0);
                    store.readColumnBytes(reg, c, r, col);
                    ASSERT_EQ(0, std::memcmp(col.data(),
                                             rows[r].data() +
                                                 schema.canonicalOffset(
                                                     c),
                                             width))
                        << "row " << r << " column "
                        << schema.column(c).name;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, RowCodecCh,
                         ::testing::Values(0.0, 0.6, 1.0));

} // namespace
} // namespace pushtap::storage
