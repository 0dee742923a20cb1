#pragma once

/**
 * @file
 * Analytic query pricing for the comparison systems of Fig. 9(b):
 *
 *  - *Ideal*: all columns already compact, execution time is scanning
 *    time only (no consistency work).
 *  - *MI*: the multi-instance PIM-based design (Polynesia-style [6])
 *    adapted to the same general-purpose DIMM PIM as PUSHtap: a
 *    row-store instance in CPU memory plus a column-store instance in
 *    PIM memory that must be *rebuilt* from the transaction log
 *    before a query can see fresh data.
 *
 * Both systems answer queries identically to the single-instance
 * engine by construction, so only times are modelled here:
 * runQuery() prices the plan through the engine's own plan-pricing
 * walk (olap/plan_pricing.hpp), charging every read as one clean
 * packed-column scan, so every system charges the same column scans
 * for the same plan.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dram/timing_model.hpp"
#include "mvcc/version_manager.hpp"
#include "olap/plan.hpp"
#include "olap/plan_pricing.hpp"
#include "olap/query_report.hpp"
#include "pim/two_phase.hpp"
#include "txn/database.hpp"

namespace pushtap::htap {

/** Which comparison system prices the query. */
enum class BaselineKind : std::uint8_t
{
    Ideal,
    MultiInstance,
    /** MI with the dedicated rebuild accelerator (MI (HBM), [6]). */
    MultiInstanceAccel,
};

/**
 * Baseline query report: the shared OLAP report shape, with
 * consistencyNs carrying the column-store rebuild time (zero for
 * Ideal) and the engine-only fields (cpuBlockedNs, rowsVisible) left
 * at zero.
 */
using BaselineReport = olap::QueryReport;

class AnalyticOlapModel : private olap::ScanPricer
{
  public:
    AnalyticOlapModel(const txn::Database &db,
                      const dram::Geometry &geom,
                      const dram::TimingParams &timing,
                      const pim::PimConfig &pim_cfg,
                      const pim::OffloadOverheads &overheads,
                      double accel_speedup = 5.0);

    /**
     * Scan time of @p width-byte column over @p rows at 100%
     * efficiency (the clean column-store instance).
     */
    pim::TwoPhaseSchedule idealColumnScan(std::uint64_t rows,
                                          std::uint32_t width) const;

    /**
     * Price @p plan on clean packed columns over current table
     * sizes: the shared plan walk's reads (one ideal scan each) and
     * join legs, the CPU merge, plus the consistency charge of
     * @p kind.
     */
    BaselineReport runQuery(BaselineKind kind,
                            const olap::QueryPlan &plan,
                            std::uint64_t pending_versions) const;

    /**
     * Rebuild cost for @p versions pending transactions: the CPU
     * transfers every new-versioned row plus its metadata to the PIM
     * DRAM banks, then PIM units merge the metadata and copy the
     * rows into the column-store instance (section 7.3.2).
     */
    TimeNs rebuildTime(std::uint64_t versions, bool accel) const;

  private:
    // ScanPricer over the clean column-store instance: every read —
    // Char predicates included, which this instance scans in PIM
    // unlike the single-instance engine's CPU gather — is one
    // idealColumnScan at the column width over the used data rows.
    void read(const txn::TableRuntime &tbl, const std::string &column,
              pim::OpType op, olap::QueryReport &rep) const override;
    void gather(const txn::TableRuntime &tbl, const std::string &column,
                olap::QueryReport &rep) const override;
    /** Never reached: runQuery prices without fusion. */
    void fusedScan(const txn::TableRuntime &tbl,
                   const std::set<std::string> &columns,
                   olap::QueryReport &rep) const override;
    std::uint64_t
    joinRows(const txn::TableRuntime &probe) const override;
    void joinCompute(std::uint64_t rows,
                     olap::QueryReport &rep) const override;

    TimeNs consistency(BaselineKind kind,
                       std::uint64_t pending_versions) const;

    const txn::Database &db_;
    dram::Geometry geom_;
    dram::BatchTimingModel timing_;
    pim::PimConfig pimCfg_;
    pim::TwoPhaseModel twoPhase_;
    double accelSpeedup_;
};

} // namespace pushtap::htap
