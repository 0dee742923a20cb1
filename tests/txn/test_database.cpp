#include <gtest/gtest.h>

#include "common/log.hpp"

#include <optional>
#include <vector>

#include "txn/database.hpp"
#include "workload/row_view.hpp"

namespace pushtap::txn {
namespace {

using workload::ChTable;

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    cfg.blockRows = 64; // small blocks keep the test store compact
    return cfg;
}

/** One shared database across tests (construction is the slow part). */
class DatabaseTest : public ::testing::Test
{
  protected:
    static Database &
    db()
    {
        static Database instance(smallConfig());
        return instance;
    }
};

TEST_F(DatabaseTest, TablesPopulatedToScale)
{
    const auto counts = workload::chRowCounts(0.0002);
    for (std::size_t i = 0; i < workload::kChTableCount; ++i) {
        const auto t = static_cast<ChTable>(i);
        EXPECT_EQ(db().table(t).populatedRows(), counts.at(t))
            << workload::chTableName(t);
    }
}

TEST_F(DatabaseTest, StoredRowsMatchGenerator)
{
    // Spot-check: rows read back from the unified format equal the
    // generator's canonical bytes.
    for (const auto t : {ChTable::Customer, ChTable::OrderLine,
                         ChTable::Stock}) {
        auto &tbl = db().table(t);
        const auto &schema = tbl.schema();
        std::vector<std::uint8_t> expect(schema.rowBytes());
        std::vector<std::uint8_t> got(schema.rowBytes());
        for (RowId r : {RowId{0}, RowId{1},
                        tbl.populatedRows() / 2,
                        tbl.populatedRows() - 1}) {
            db().generator().fillRow(t, schema, r, expect);
            tbl.store().readRow(storage::Region::Data, r, got);
            EXPECT_EQ(got, expect)
                << schema.name() << " row " << r;
        }
    }
}

TEST_F(DatabaseTest, IndexResolvesPrimaryKeys)
{
    auto &customers = db().table(ChTable::Customer);
    const auto row = customers.index().lookup(packKey(0, 0, 123));
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(*row, RowId{123});

    auto &stock = db().table(ChTable::Stock);
    EXPECT_TRUE(stock.index().lookup(packKey(0, 0, 50)).has_value());

    auto &district = db().table(ChTable::District);
    EXPECT_TRUE(
        district.index().lookup(packKey(0, 7)).has_value());
}

TEST_F(DatabaseTest, PopulateStoresAndIndexesEveryRow)
{
    // Every populated data row holds the generator's bytes, and each
    // of the six indexed tables maps every row's primary key to it;
    // history, neworder and orderline carry no index entries.
    for (std::size_t i = 0; i < workload::kChTableCount; ++i) {
        const auto t = static_cast<ChTable>(i);
        auto &tbl = db().table(t);
        const auto &schema = tbl.schema();
        std::vector<std::uint8_t> expect(schema.rowBytes());
        std::vector<std::uint8_t> got(schema.rowBytes());
        const workload::ConstRowView v(schema, expect);
        const auto key = [&]() -> std::optional<std::uint64_t> {
            const auto f = [&v](const char *name) {
                return static_cast<std::uint64_t>(v.getInt(name));
            };
            switch (t) {
              case ChTable::Warehouse: return packKey(f("w_id"));
              case ChTable::District:
                return packKey(f("d_w_id"), f("d_id"));
              case ChTable::Customer: return packKey(0, 0, f("c_id"));
              case ChTable::Item: return packKey(0, 0, f("i_id"));
              case ChTable::Stock: return packKey(0, 0, f("s_i_id"));
              case ChTable::Orders: return packKey(0, 0, f("o_id"));
              default: return std::nullopt;
            }
        };
        const std::uint64_t n = tbl.populatedRows();
        bool indexed = false;
        for (RowId r = 0; r < n; ++r) {
            db().generator().fillRow(t, schema, r, expect);
            tbl.store().readRow(storage::Region::Data, r, got);
            ASSERT_EQ(got, expect) << schema.name() << " row " << r;
            const auto k = key();
            indexed = k.has_value();
            if (k) {
                ASSERT_EQ(tbl.index().lookup(*k), r)
                    << schema.name() << " row " << r;
            }
        }
        EXPECT_EQ(tbl.index().size(), indexed ? n : 0u)
            << schema.name();
    }
}

TEST_F(DatabaseTest, ReadNewestFollowsVersions)
{
    auto &tbl = db().table(ChTable::Warehouse);
    const auto &schema = tbl.schema();
    std::vector<std::uint8_t> row(schema.rowBytes());
    tbl.store().readRow(storage::Region::Data, 0, row);
    workload::RowView v(schema, row);
    v.setInt("w_ytd", 777777);

    const RowId slot = tbl.versions().allocDeltaSlot(0);
    tbl.store().writeRow(storage::Region::Delta, slot, row);
    tbl.versions().addVersion(0, slot, db().nextTimestamp());

    std::vector<std::uint8_t> out(schema.rowBytes());
    const auto steps = db().readNewest(ChTable::Warehouse, 0, out);
    EXPECT_EQ(steps, 1u);
    EXPECT_EQ(workload::ConstRowView(schema, out).getInt("w_ytd"),
              777777);
}

TEST_F(DatabaseTest, InsertRowsComeFromTail)
{
    auto &tbl = db().table(ChTable::History);
    const auto before = tbl.usedDataRows();
    const RowId r = tbl.allocInsertRow();
    EXPECT_EQ(r, before);
    EXPECT_EQ(tbl.usedDataRows(), before + 1);
    // Tail rows start invisible.
    EXPECT_FALSE(tbl.store().dataVisible().test(r));
}

TEST_F(DatabaseTest, StorageAccountingPositive)
{
    EXPECT_GT(db().storageBytes(), 0u);
    EXPECT_GT(db().snapshotBytes(), 0u);
    // Snapshot bitmaps are a small fraction of storage (Fig. 8(b)).
    EXPECT_LT(static_cast<double>(db().snapshotBytes()),
              0.1 * static_cast<double>(db().storageBytes()));
}

TEST_F(DatabaseTest, TimestampsMonotone)
{
    const auto a = db().nextTimestamp();
    const auto b = db().nextTimestamp();
    EXPECT_GT(b, a);
    EXPECT_EQ(db().now(), b);
}

} // namespace
} // namespace pushtap::txn
