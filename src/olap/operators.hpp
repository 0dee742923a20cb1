#pragma once

/**
 * @file
 * Physical operators of the OLAP pipeline: a typed column scan over
 * the snapshot bitmaps, predicate filters, a hash join (build +
 * probe), a grouped aggregate and a sort/limit, composed by
 * executePlan() according to a logical QueryPlan.
 *
 * executePlan() is morsel-driven, batch-at-a-time and shard
 * parallel: the probe table splits into contiguous block-aligned
 * shards (txn::TableRuntime::shardMap) fanned out over a worker
 * pool, and each worker walks its shards in morsels through the
 * kernel layer of olap/batch.hpp (selection vectors from word-level
 * bitmap extraction, one typed column decode per morsel with a
 * zero-copy stride path for unfragmented columns, predicate kernels
 * — closed forms and expression trees with selectivity-adaptive
 * conjunct ordering — that compact the selection in place,
 * bulk-hashed join probes with batched inner-join match expansion
 * into per-morsel index/payload vectors, and a filter+aggregate pass
 * fused into one loop when no join intervenes). The pre-query
 * phases are parallel too: join hash tables build as partitioned
 * parallel builds (per-shard scans into hash-partitioned partial
 * chunks, stitched in deterministic task order) and scalar
 * subqueries materialize through the same sharded morsel pipeline
 * (per-worker partial group accumulators, ordered merge) before
 * either is probed strictly read-only by the fan-out. Per-worker
 * partial accumulators are consolidated by a deterministic ordered
 * merge, so results are byte-identical to the single-threaded run
 * for every workers x shards configuration. It is the only
 * executor: the test suites check it against an independently
 * mechanised reference (tests/support/reference_executor.hpp).
 *
 * The operators compute exact results over the MVCC snapshot — every
 * aggregate is verifiable against a reference scan through the
 * version chains — while the timing contribution of each operator is
 * accumulated separately by the plan-pricing walk
 * (olap/plan_pricing.hpp).
 */

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/types.hpp"
#include "olap/batch.hpp"
#include "olap/plan.hpp"
#include "txn/database.hpp"

namespace pushtap {
class WorkerPool;
}

namespace pushtap::olap {

/** One output row of a plan. */
struct ResultRow
{
    std::vector<std::int64_t> keys; ///< Group-key values.
    std::vector<std::int64_t> aggs; ///< Aggregate values.
    std::uint64_t count = 0;        ///< Rows in the group.
};

struct QueryResult
{
    std::vector<ResultRow> rows;
};

/** Observed row flow through one join of the batch engine. */
struct JoinExecStats
{
    std::uint64_t in = 0;  ///< Entries probed into the join.
    std::uint64_t out = 0; ///< Entries surviving (or expanded) out.
};

/**
 * Measured execution statistics of the batch engine — observed, not
 * modelled. The cost-based optimizer's per-plan stats cache feeds on
 * these so repeated runs re-optimize from measured selectivities
 * (probe filter pass rates, per-join survival/expansion ratios)
 * instead of assumed ones. All counts are deterministic sums over
 * the per-worker partials, so they are identical for every workers x
 * shards configuration.
 */
struct ExecStats
{
    /** Snapshot-visible probe rows entering the predicate chain. */
    std::uint64_t probeVisible = 0;
    /** Probe rows surviving the pushed-down predicate chain. */
    std::uint64_t probeFiltered = 0;
    /** Per plan join index (filter joins and descend joins alike). */
    std::vector<JoinExecStats> joins;
    /** (seen, kept) per probe expression conjunct, in the plan's
     *  original predicate order — the adaptive reorderer's measured
     *  selectivities. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> conjuncts;
};

struct PlanExecution
{
    QueryResult result;
    /** Snapshot-visible rows of the probe table (filtered or not). */
    std::uint64_t rowsVisible = 0;
    /**
     * Number of distinct probe Int columns the batch engine streamed
     * in a single fused filter+group+aggregate pass (0 when a join
     * descended through the match expansion). OlapConfig::fuseScans
     * prices these as one serial scan instead of one per operator
     * input.
     */
    std::uint32_t fusedScanColumns = 0;
    /**
     * Host wall-clock of the batch engine's execution phases, in
     * nanoseconds: the scalar-subquery pre-pass, the join build
     * phase (partitioned scan + stitch + existence-set flatten), the
     * probe fan-out, and the final cross-worker merge/materialize.
     * Measured time, not modelled — the pricing walks never read
     * these.
     */
    double subqueryNs = 0.0;
    double buildNs = 0.0;
    double probeNs = 0.0;
    double mergeNs = 0.0;
    /** Observed selectivity statistics. */
    ExecStats stats;
    /**
     * Filled when ExecOptions::captureGroups was set (empty
     * otherwise): the merged cross-worker group table the result was
     * materialized from — one entry per group with count > 0, keyed
     * by the inline group key (empty for ungrouped plans), one slot
     * per plan aggregate. Folding two captures with foldGroups() and
     * materializing with materializeGroups() is byte-identical to one
     * cold run over the union of their input rows: every aggregate
     * kind is a commutative, associative fold (wrapping sums, counts,
     * min/max), which is what makes delta-incremental re-execution
     * exact.
     */
    FlatTable groups;
};

/**
 * Host-side execution options of executePlan(): how the probe
 * table is partitioned into shards (contiguous block-aligned row
 * ranges modelling independent bank stripes, see
 * txn::TableRuntime::shardMap) and how many worker threads the
 * shards fan out over. Results are byte-identical to the defaults
 * for every shards x workers combination: per-worker partial
 * accumulators are consolidated by a deterministic ordered merge.
 */
struct ExecOptions
{
    /** Probe-table shard count (>= 1; fatal on 0). */
    std::uint32_t shards = 1;
    /** Worker threads (0 = hardware concurrency). */
    std::uint32_t workers = 1;
    /** Rows per morsel; must be a power of two (fatal otherwise). */
    std::uint32_t morselRows = kMorselRows;
    /**
     * External pool to run on (overrides `workers`); nullptr spawns
     * a transient pool when workers resolves to more than one.
     */
    WorkerPool *pool = nullptr;
    /**
     * Capture the merged group accumulators into
     * PlanExecution::groups. The result cache sets this on cold and
     * incremental runs so the accumulators can seed later
     * delta-incremental re-executions.
     */
    bool captureGroups = false;
    /**
     * Baseline visibility bitmaps of the probe table (both or
     * neither). When set, the probe pass scans only rows visible now
     * but NOT in the baseline — the rows appended since the baseline
     * was captured — and PlanExecution::rowsVisible counts just
     * those. Join builds and subquery pre-passes still scan their
     * full tables. Only sound when the probe table changed by pure
     * appends since the baseline (no previously visible bit cleared,
     * no defragmentation); the result cache checks exactly that
     * before setting these.
     */
    const Bitmap *probeBaselineData = nullptr;
    const Bitmap *probeBaselineDelta = nullptr;
};

/**
 * Execute @p plan exactly over the current snapshot bitmaps of @p db
 * with the morsel-driven batch engine, fanning per-shard pipelines
 * out over @p opts' worker pool. The plan is validated first (fatal
 * on malformed plans, including key sets wider than kMaxKeyColumns).
 */
PlanExecution executePlan(const txn::Database &db,
                          const QueryPlan &plan,
                          const ExecOptions &opts = {});

/**
 * True when the batch engine runs @p plan's whole probe pass fused
 * (predicates + filter joins + grouping + aggregation in one morsel
 * loop): every join is a probe-keyed selection kernel — a semi or
 * anti join keyed purely on probe columns. Inner joins and
 * payload-keyed joins descend through the match expansion instead.
 * Defined next to the executor's own classification so the
 * OlapConfig::fuseScans pricing gate and the fusedScanColumns report
 * cannot drift.
 */
bool planFusesProbePass(const QueryPlan &plan);

/**
 * Fold @p from into @p into with the batch engine's cross-worker
 * merge (the same partitioned mergeTables fold: wrapping sums,
 * counts, min/max), matching groups by key in one pass over @p from.
 * Both tables must come from captures of @p plan. Partitions fold in
 * parallel over @p pool when given and the input is large.
 */
void foldGroups(const QueryPlan &plan, FlatTable &into,
                const FlatTable &from, WorkerPool *pool = nullptr);

/**
 * Materialize @p groups into result rows through the batch engine's
 * own tail: the ungrouped zero-placeholder when an ungrouped plan
 * produced no groups, otherwise the plan's ORDER BY (ties in
 * ascending group-key order) cut to its LIMIT. Byte-identical to a
 * cold executePlan() fed the same accumulator state.
 */
QueryResult materializeGroups(const QueryPlan &plan,
                              const FlatTable &groups);

} // namespace pushtap::olap
