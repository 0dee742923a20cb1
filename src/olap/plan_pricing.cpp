#include "olap/plan_pricing.hpp"

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "olap/operators.hpp"

namespace pushtap::olap {

namespace {

/**
 * Charge the distinct columns an expression set streams over @p tbl:
 * a gather per Char (LIKE) column, one read (as @p op) per Int column
 * — the same footprints the closed predicate forms charge. std::set
 * keeps the charge order deterministic.
 */
void
priceExprColumns(const ScanPricer &pricer, const txn::TableRuntime &tbl,
                 const std::vector<ExprPtr> &exprs, pim::OpType op,
                 QueryReport &rep)
{
    std::set<std::string> int_cols, char_cols;
    collectExprColumns(exprs, int_cols, char_cols);
    for (const auto &name : char_cols)
        pricer.gather(tbl, name, rep);
    for (const auto &name : int_cols)
        pricer.read(tbl, name, op, rep);
}

/** Predicate filters of one input: a gather per Char predicate, a
 *  Filter read per Int predicate, then the expression predicates'
 *  column sets. */
void
priceInput(const ScanPricer &pricer, const txn::Database &db,
           const TableInput &in, QueryReport &rep)
{
    const auto &tbl = db.table(in.table);
    for (const auto &p : in.charPredicates)
        pricer.gather(tbl, p.column, rep);
    for (const auto &p : in.intPredicates)
        pricer.read(tbl, p.column, pim::OpType::Filter, rep);
    priceExprColumns(pricer, tbl, in.exprPredicates,
                     pim::OpType::Filter, rep);
}

} // namespace

void
pricePlanScans(const txn::Database &db, const QueryPlan &plan,
               const ScanPricer &pricer, bool fuse_probe_scans,
               QueryReport &rep)
{
    const auto &probe_tbl = db.table(plan.probe.table);
    const std::uint64_t probe_rows = pricer.joinRows(probe_tbl);
    const bool fused = fuse_probe_scans && planFusesProbePass(plan);

    // Scalar-subquery pre-passes: the source filters exactly like any
    // probe, then group and aggregate-input reads, then the
    // probe-side lookup of each key column once — unless the fused
    // probe pass already streams them.
    for (const auto &sub : plan.subqueries) {
        const auto &tbl = db.table(sub.source.table);
        priceInput(pricer, db, sub.source, rep);
        for (const auto &col : sub.groupBy)
            pricer.read(tbl, col, pim::OpType::Group, rep);
        std::vector<ExprPtr> inputs;
        for (const auto &agg : sub.aggs)
            inputs.push_back(agg.value);
        priceExprColumns(pricer, tbl, inputs,
                         pim::OpType::Aggregation, rep);
        if (!fused) {
            std::set<std::string> key_cols;
            for (const auto &key : sub.keys)
                key_cols.insert(key.column);
            for (const auto &name : key_cols)
                pricer.read(probe_tbl, name, pim::OpType::Filter,
                            rep);
        }
    }

    // One hash-join leg: PIM hashes both key columns, the CPU
    // fetches the hashes, partitions buckets and pushes them back,
    // then the PIM units probe within buckets. A fused probe pass
    // already streams the probe-side keys (they are part of
    // fusedProbeColumns whenever the pass fuses); the build filters,
    // build hash reads, shuffle and in-bucket probe are never fused.
    auto price_join = [&](const JoinSpec &join) {
        priceInput(pricer, db, join.build, rep);
        const auto &build_tbl = db.table(join.build.table);
        for (const auto &[build_col, ref] : join.keys) {
            pricer.read(build_tbl, build_col, pim::OpType::Hash, rep);
            if (!fused)
                pricer.read(db.table(tableOf(plan, ref)), ref.column,
                            pim::OpType::Hash, rep);
        }
        pricer.joinCompute(build_tbl.usedDataRows() + probe_rows,
                           rep);
    };

    if (fused) {
        // Char predicates (prefix and LIKE) keep their own gathers;
        // every other probe column of the pass — the expressions'
        // Int columns included — rides the fused scan.
        for (const auto &p : plan.probe.charPredicates)
            pricer.gather(probe_tbl, p.column, rep);
        std::set<std::string> expr_int_cols, like_cols;
        collectExprColumns(plan.probe.exprPredicates, expr_int_cols,
                           like_cols);
        for (const auto &name : like_cols)
            pricer.gather(probe_tbl, name, rep);
        pricer.fusedScan(probe_tbl, fusedProbeColumns(plan), rep);
        for (const auto &join : plan.joins)
            price_join(join);
        return;
    }

    priceInput(pricer, db, plan.probe, rep);
    for (const auto &join : plan.joins)
        price_join(join);

    // Grouped aggregation: one Group read per key, one Aggregation
    // read per aggregated column — every distinct column an
    // aggregate expression streams charges its own read.
    for (const auto &key : plan.groupBy)
        pricer.read(db.table(tableOf(plan, key)), key.column,
                    pim::OpType::Group, rep);
    for (const auto &agg : plan.aggregates) {
        if (agg.expr) {
            std::set<std::pair<workload::ChTable, std::string>> cols;
            forEachColumnRef(*agg.expr,
                             [&cols, &plan](const ColRef &ref, bool) {
                                 cols.emplace(tableOf(plan, ref),
                                              ref.column);
                             });
            for (const auto &[table, name] : cols)
                pricer.read(db.table(table), name,
                            pim::OpType::Aggregation, rep);
        } else {
            pricer.read(db.table(tableOf(plan, agg.value)),
                        agg.value.column, pim::OpType::Aggregation,
                        rep);
        }
    }
}

} // namespace pushtap::olap
