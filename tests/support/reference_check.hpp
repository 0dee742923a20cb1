#pragma once

/**
 * @file
 * gtest assertions of executePlan() results against the reference
 * executor (reference_executor.hpp). The sweeps compute one
 * RefAnswer per plan per fixture — outside their configuration loops
 * — and check every workers x shards x morsel run against it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "olap/operators.hpp"
#include "olap/plan.hpp"
#include "support/reference_executor.hpp"
#include "txn/database.hpp"

namespace pushtap::testsupport {

/** The reference answer to one plan at the current snapshot. */
struct RefAnswer
{
    std::vector<RefRow> rows;
    /** Snapshot-visible probe rows (data + delta region), which
     *  PlanExecution::rowsVisible must report. */
    std::uint64_t rowsVisible = 0;
};

/**
 * Reference answer to @p plan. The reference reads the newest
 * committed versions, so call this while the snapshot is current
 * (before any transaction commits past it). Sweeps answering many
 * plans pass one RefTables, so each table is read once.
 */
inline RefAnswer
referenceAnswer(RefTables &tables, const olap::QueryPlan &plan)
{
    const auto &store =
        tables.database().table(plan.probe.table).store();
    return {referenceExecute(tables, plan),
            store.dataVisible().count() + store.deltaVisible().count()};
}

inline RefAnswer
referenceAnswer(txn::Database &db, const olap::QueryPlan &plan)
{
    RefTables tables(db);
    return referenceAnswer(tables, plan);
}

/** Expect @p got's rows to equal @p want exactly, in order. */
inline void
expectRows(const olap::QueryResult &got,
           const std::vector<RefRow> &want, const std::string &what)
{
    ASSERT_EQ(got.rows.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.rows[i].keys, want[i].keys)
            << what << " row " << i;
        EXPECT_EQ(got.rows[i].aggs, want[i].aggs)
            << what << " row " << i;
        EXPECT_EQ(got.rows[i].count, want[i].count)
            << what << " row " << i;
    }
}

/** Expect one execution to match @p want: rows and visible count. */
inline void
expectExecution(const olap::PlanExecution &got, const RefAnswer &want,
                const std::string &what)
{
    EXPECT_EQ(got.rowsVisible, want.rowsVisible) << what;
    expectRows(got.result, want.rows, what);
}

} // namespace pushtap::testsupport
