#pragma once

/**
 * @file
 * The one plan-pricing walk: which column every operator of a logical
 * plan streams, and as which operator. pricePlanScans() visits the
 * subquery pre-passes, the probe and build inputs (Int, Char and
 * expression predicates), each join's key legs and hash/partition/
 * probe compute, the group keys, the aggregate columns and — when
 * asked — the fused probe pass, and charges each through a
 * ScanPricer. The single-instance engine (olap/olap_engine.hpp)
 * prices with its sharded, layout-, dictionary- and placement-aware
 * scans; the Ideal/MI baselines (htap/analytic_olap.hpp) price every
 * read as one clean packed-column scan. Both therefore charge the
 * same column scans for the same plan (Fig. 9(b)).
 */

#include <cstdint>
#include <set>
#include <string>

#include "olap/plan.hpp"
#include "olap/query_report.hpp"
#include "pim/launch.hpp"
#include "txn/database.hpp"

namespace pushtap::olap {

/** How one system charges the reads the plan walk asks for. */
class ScanPricer
{
  public:
    /** One read of @p column of @p tbl as operator @p op (Int
     *  predicates, join keys, group keys, aggregate inputs). */
    virtual void read(const txn::TableRuntime &tbl,
                      const std::string &column, pim::OpType op,
                      QueryReport &rep) const = 0;

    /** One Char column a prefix or LIKE predicate filters. */
    virtual void gather(const txn::TableRuntime &tbl,
                        const std::string &column,
                        QueryReport &rep) const = 0;

    /** The fused probe pass streaming @p columns together. */
    virtual void fusedScan(const txn::TableRuntime &tbl,
                           const std::set<std::string> &columns,
                           QueryReport &rep) const = 0;

    /** Probe-table rows each join leg hashes, partitions and
     *  probes. */
    virtual std::uint64_t
    joinRows(const txn::TableRuntime &probe) const = 0;

    /** Hash/partition/probe compute of one join leg over @p rows
     *  build plus probe rows. */
    virtual void joinCompute(std::uint64_t rows,
                             QueryReport &rep) const = 0;

  protected:
    ~ScanPricer() = default;
};

/**
 * Charge every column scan and join leg of @p plan through
 * @p pricer into @p rep. With @p fuse_probe_scans set and a plan
 * whose probe pass fuses (planFusesProbePass), the probe's columns go
 * to one ScanPricer::fusedScan instead of one read per operator
 * input. Merge and consistency charges are the caller's.
 */
void pricePlanScans(const txn::Database &db, const QueryPlan &plan,
                    const ScanPricer &pricer, bool fuse_probe_scans,
                    QueryReport &rep);

} // namespace pushtap::olap
