#include "htap/analytic_olap.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "common/log.hpp"
#include "workload/ch_schema.hpp"

namespace pushtap::htap {

using workload::ChTable;

AnalyticOlapModel::AnalyticOlapModel(
    const txn::Database &db, const dram::Geometry &geom,
    const dram::TimingParams &timing, const pim::PimConfig &pim_cfg,
    const pim::OffloadOverheads &overheads, double accel_speedup)
    : db_(db), geom_(geom), timing_(geom, timing), pimCfg_(pim_cfg),
      twoPhase_(pim::CostModel(pim_cfg), overheads),
      accelSpeedup_(accel_speedup)
{
}

pim::TwoPhaseSchedule
AnalyticOlapModel::idealColumnScan(std::uint64_t rows,
                                   std::uint32_t width) const
{
    const Bytes total = rows * width;
    const std::uint32_t units = geom_.totalPimUnits();
    const Bytes per_unit = (total + units - 1) / units;
    return twoPhase_.schedule(pim::OpType::Filter, per_unit, width);
}

TimeNs
AnalyticOlapModel::rebuildTime(std::uint64_t versions,
                               bool accel) const
{
    if (versions == 0)
        return 0.0;
    // Average row bytes across the write-heavy tables.
    const auto &lines = db_.table(ChTable::OrderLine);
    const Bytes row_bytes = lines.schema().rowBytes();

    // CPU pushes rows + metadata over the bus...
    const Bytes transfer =
        versions * (row_bytes + mvcc::kMetadataBytes);
    TimeNs t = timing_.cpuPeakBandwidth().transferTime(transfer);
    // ...then the PIM units merge metadata and install the rows into
    // the column store (read + write inside the banks).
    const Bytes pim_moved =
        versions * (2 * row_bytes + mvcc::kMetadataBytes);
    t += timing_
             .pimAggregateBandwidth(pimCfg_.streamBandwidth)
             .transferTime(pim_moved);
    // The general-purpose units also re-execute the merge logic.
    pim::CostModel cm(pimCfg_);
    t += cm.computeTime(pim::OpType::Defragment,
                        versions * row_bytes /
                            geom_.totalPimUnits());
    return accel ? t / accelSpeedup_ : t;
}

TimeNs
AnalyticOlapModel::consistency(BaselineKind kind,
                               std::uint64_t pending_versions) const
{
    switch (kind) {
      case BaselineKind::Ideal:
        return 0.0;
      case BaselineKind::MultiInstance:
        return rebuildTime(pending_versions, false);
      case BaselineKind::MultiInstanceAccel:
        return rebuildTime(pending_versions, true);
    }
    return 0.0;
}

namespace {

const char *
kindName(BaselineKind k)
{
    switch (k) {
      case BaselineKind::Ideal: return "Ideal";
      case BaselineKind::MultiInstance: return "MI";
      case BaselineKind::MultiInstanceAccel: return "MI(accel)";
    }
    return "?";
}

} // namespace

void
AnalyticOlapModel::read(const txn::TableRuntime &tbl,
                        const std::string &column, pim::OpType,
                        olap::QueryReport &rep) const
{
    const auto &s = tbl.schema();
    rep.pimNs += idealColumnScan(tbl.usedDataRows(),
                                 s.column(s.columnId(column)).width)
                     .total();
}

void
AnalyticOlapModel::gather(const txn::TableRuntime &tbl,
                          const std::string &column,
                          olap::QueryReport &rep) const
{
    read(tbl, column, pim::OpType::Filter, rep);
}

void
AnalyticOlapModel::fusedScan(const txn::TableRuntime &,
                             const std::set<std::string> &,
                             olap::QueryReport &) const
{
    panic("AnalyticOlapModel: the clean-column baselines never fuse");
}

std::uint64_t
AnalyticOlapModel::joinRows(const txn::TableRuntime &probe) const
{
    return probe.usedDataRows();
}

void
AnalyticOlapModel::joinCompute(std::uint64_t rows,
                               olap::QueryReport &rep) const
{
    pim::CostModel cm(pimCfg_);
    rep.pimNs += cm.computeTime(pim::OpType::Join,
                                rows / geom_.totalPimUnits() + 1);
    rep.cpuNs += 2.0 * timing_.cpuPeakBandwidth().transferTime(rows * 4);
}

BaselineReport
AnalyticOlapModel::runQuery(BaselineKind kind,
                            const olap::QueryPlan &plan,
                            std::uint64_t pending_versions) const
{
    olap::validatePlan(plan);

    BaselineReport rep;
    rep.name = std::string(kindName(kind)) + "/" + plan.name;
    olap::pricePlanScans(db_, plan, *this, /*fuse_probe_scans=*/false,
                         rep);

    // CPU merge: joined plans already paid the bucket partition; a
    // grouped scan ships one 2 B group index per row; an ungrouped
    // scan merges one partial value per unit per aggregate.
    if (plan.joins.empty()) {
        if (!plan.groupBy.empty()) {
            rep.cpuNs += timing_.cpuPeakBandwidth().transferTime(
                db_.table(plan.probe.table).usedDataRows() * 2);
        } else {
            const auto naggs = std::max<std::size_t>(
                1, plan.aggregates.size());
            rep.cpuNs += timing_.cpuPeakBandwidth().transferTime(
                static_cast<Bytes>(geom_.totalPimUnits()) * 8 *
                naggs);
        }
    }

    rep.consistencyNs = consistency(kind, pending_versions);
    return rep;
}

} // namespace pushtap::htap
