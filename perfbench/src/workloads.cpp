#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "dram/timing_model.hpp"
#include "format/bandwidth.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "olap/optimizer.hpp"
#include "support/reference_executor.hpp"
#include "trace.hpp"
#include "txn/database.hpp"
#include "txn/tpcc_engine.hpp"
#include "txn/txn_worker_group.hpp"
#include "workload/ch_schema.hpp"
#include "workload/query_catalog.hpp"

namespace perfbench {
namespace {

using namespace pushtap;
using Clock = std::chrono::steady_clock;
using workload::ChTable;

constexpr double kScale = 0.001;
constexpr std::uint32_t kWriters = 2;
constexpr std::uint32_t kOlapWorkers = 2;
/** Every run keeps measuring until it has this many rounds... */
constexpr std::uint32_t kMinRounds = 3;
/** ...and this many query latency samples, so that at least ten
 *  samples lie above the reported p95. */
constexpr std::size_t kMinQuerySamples = 220;
constexpr std::size_t kMaxRounds = 64;

/**
 * The fixed amount of work of one round. The database grows while
 * transactions run and queries slow down with it, so a round does a
 * fixed amount of work on a fresh database and a run repeats rounds.
 */
struct Shape
{
    std::uint64_t txns = 0;  ///< Transactions (ingest or preload).
    std::uint64_t batch = 0; ///< Writer batch; defrag in between.
    std::uint32_t passes = 0; ///< Passes over the 22 CH plans.
};

Shape
shapeOf(const std::string &w)
{
    if (w == "oltp_ingest")
        return {20'000, 5'000, 3};
    if (w == "olap_suite")
        return {4'000, 2'000, 5};
    return {20'000, 5'000, 0}; // htap_mixed: queries while ingesting
}

/**
 * Size insert headroom and delta provisioning from the schedule
 * length, so a round can never exhaust a table's insert capacity.
 * Per transaction (Payment or New-Order, whichever is larger) a
 * table receives at most `inserts` new rows and `updates` new
 * versions; defragmentation between batches recycles versions but
 * never insert rows.
 */
txn::DatabaseConfig
sizedConfig(std::uint64_t seed, const Shape &s)
{
    struct PerTxn
    {
        ChTable table;
        double inserts;
        double updates;
    };
    static const PerTxn kPerTxn[] = {
        {ChTable::Warehouse, 0, 1}, {ChTable::District, 0, 1},
        {ChTable::Customer, 0, 1},  {ChTable::History, 1, 0},
        {ChTable::NewOrder, 1, 0},  {ChTable::Orders, 1, 0},
        {ChTable::OrderLine, static_cast<double>(workload::kLinesPerOrder), 0},
        {ChTable::Stock, 0, static_cast<double>(workload::kLinesPerOrder)},
    };
    txn::DatabaseConfig cfg;
    cfg.scale = kScale;
    cfg.seed = seed;
    const auto counts = workload::chRowCounts(kScale);
    const double fixed_delta =
        static_cast<double>(cfg.blockRows) * cfg.devices;
    double headroom = 0.0, delta = 0.0;
    for (const auto &p : kPerTxn) {
        const auto rows = static_cast<double>(counts.at(p.table));
        headroom = std::max(
            headroom, p.inserts * static_cast<double>(s.txns) / rows);
        delta = std::max(delta, (p.updates * static_cast<double>(
                                                 s.batch) -
                                 fixed_delta) /
                                    rows);
    }
    cfg.insertHeadroom = headroom * 1.05 + 0.05;
    cfg.deltaFraction = delta * 1.05 + 0.05;
    return cfg;
}

/** Seed of the writers' schedule stream, derived from --seed. */
std::uint64_t
txnSeedOf(std::uint64_t seed)
{
    return seed * 0x9E3779B97F4A7C15ull + 7;
}

/**
 * The analyst's engine. Every workload uses the same shards/workers,
 * so query numbers compare across workloads, and leaves half of a
 * 4-thread host to the writers (htap_mixed) or idle: on a shared
 * 4-vCPU host, runs at 4 workers varied about twice as much from run
 * to run as runs at 2.
 */
olap::OlapConfig
olapConfigOf(const std::string &w)
{
    auto cfg = olap::OlapConfig::pushtapDimm();
    cfg.shards = cfg.workers = kOlapWorkers;
    cfg.optimize = cfg.resultCache = w == "htap_mixed";
    return cfg;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Harrell-Davis estimate of the @p q quantile: the mean of all order
 * statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density at each
 * rank's midpoint. A plain order statistic at the median of 22 plans
 * is the slowest run of one plan or the fastest of the next and swings
 * from run to run; the weighted mean does not.
 *
 * Samples are weighted so that every plan counts the same. htap_mixed
 * queries round-robin until each batch commits, so how many runs each
 * plan gets depends on timing, and an unweighted median moves with
 * those counts across the 2x gaps between plans. With @p plan empty
 * every sample weighs the same.
 */
double
latencyQuantile(const std::vector<double> &ms,
                const std::vector<std::size_t> &plan, double q)
{
    if (ms.empty())
        return 0.0;
    std::map<std::size_t, double> runs;
    for (const std::size_t p : plan)
        runs[p] += 1.0;
    std::vector<std::size_t> order(ms.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return ms[x] < ms[y]; });
    const double n = static_cast<double>(ms.size());
    const double a = q * (n + 1) - 1, b = (1 - q) * (n + 1) - 1;
    const double plans = static_cast<double>(runs.size());
    std::vector<double> logw(ms.size());
    double below = 0.0; // weight of the samples before this one
    for (std::size_t i = 0; i < order.size(); ++i) {
        const double w = plan.empty()
                             ? 1.0 / n
                             : 1.0 / (runs[plan[order[i]]] * plans);
        const double x = std::clamp(below + w / 2, 0.5 / n, 1 - 0.5 / n);
        logw[i] = std::log(w) + a * std::log(x) + b * std::log1p(-x);
        below += w;
    }
    const double top = *std::max_element(logw.begin(), logw.end());
    double sum = 0.0, weights = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const double w = std::exp(logw[i] - top);
        sum += w * ms[order[i]];
        weights += w;
    }
    return sum / weights;
}

bool
sameAnswer(const olap::QueryResult &a, const olap::QueryResult &b)
{
    if (a.rows.size() != b.rows.size())
        return false;
    for (std::size_t i = 0; i < a.rows.size(); ++i)
        if (a.rows[i].keys != b.rows[i].keys ||
            a.rows[i].aggs != b.rows[i].aggs ||
            a.rows[i].count != b.rows[i].count)
            return false;
    return true;
}

bool
sameAnswer(const olap::QueryResult &a,
           const std::vector<testsupport::RefRow> &ref)
{
    if (a.rows.size() != ref.size())
        return false;
    for (std::size_t i = 0; i < ref.size(); ++i)
        if (a.rows[i].keys != ref[i].keys ||
            a.rows[i].aggs != ref[i].aggs ||
            a.rows[i].count != ref[i].count)
            return false;
    return true;
}

std::string
queryMetricName(int query_no)
{
    char name[32];
    std::snprintf(name, sizeof name, "olap.q%02d_ms", query_no);
    return name;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One database with its engines; members destroy in reverse. */
struct Instance
{
    std::unique_ptr<txn::Database> db;
    std::unique_ptr<olap::OlapEngine> olap;
    std::unique_ptr<txn::TxnWorkerGroup> group;
};

/** One query answer of htap_mixed, kept for the serial replay. */
struct Answer
{
    std::size_t plan = 0;
    Timestamp frontier = 0;
    olap::QueryResult result;
};

struct Round
{
    double setupS = 0.0;
    /** Wall time of the measured sections (tracing overhead base). */
    double workS = 0.0;
    /** Throughput samples: one per writer batch / query pass. */
    std::vector<double> txnRate;
    std::vector<double> queryRate;
    std::vector<double> queryMs;
    std::vector<std::size_t> queryPlan; ///< Plan of each queryMs sample.
    std::vector<double> lag;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

class Runner
{
  public:
    explicit Runner(const Options &opt)
        : opt_(opt), shape_(shapeOf(opt.workload)),
          dbCfg_(sizedConfig(opt.seed, shape_)),
          olapCfg_(olapConfigOf(opt.workload)),
          txnSeed_(txnSeedOf(opt.seed)),
          plans_(workload::chExecutablePlans()), tr_(false),
          bw_(8, 8, true),
          timing_(dram::Geometry::dimmDefault(),
                  dram::TimingParams::ddr5_3200())
    {
    }

    Outcome run();

  private:
    Instance build(std::uint32_t writers,
                   const olap::OlapConfig &ocfg) const;

    /**
     * Drain one writer batch (with @p answers, an analyst client
     * queries until it has committed); returns its wall seconds.
     */
    double runBatch(Instance &in, Round &r, std::vector<Answer> *answers);
    /** shape_.passes passes over the plans at the current state. */
    void queryPasses(Instance &in, Round &r,
                     std::vector<olap::QueryResult> &got);
    /** The final commit frontier must be exactly shape_.txns. */
    void checkFrontier(Instance &in, Round &r);

    void oltpIngest(Round &r);
    void olapSuite(Round &r);
    void htapMixed(Round &r);

    /** Snapshot at @p ts and run plan @p i; returns latency (ms). */
    double query(olap::OlapEngine &olap, std::size_t i, Timestamp ts,
                 olap::QueryResult &res);
    /** Defragment every table; returns wall seconds. */
    double defrag(olap::OlapEngine &olap, std::uint64_t batch);
    /** Compare every answer with the reference executor. */
    void checkAgainstReference(txn::Database &db,
                               const std::vector<olap::QueryResult> &got,
                               Round &r);
    /** Serial 1-writer replay checking every htap_mixed answer of
     *  the run at its frontier; returns the wrong answers. */
    std::uint64_t replayCheck();

    void olapProbes(Instance &in, Round &r);
    void txnProbes(Instance &in, double first_drain_s);

    void
    layer(const std::string &name, double v)
    {
        layer_[name].push_back(v);
    }

    Outcome finish() const;

    const Options &opt_;
    Shape shape_;
    txn::DatabaseConfig dbCfg_;
    olap::OlapConfig olapCfg_;
    std::uint64_t txnSeed_;
    const std::vector<workload::ExecutableQuery> &plans_;
    Tracer tr_;
    format::BandwidthModel bw_;
    dram::BatchTimingModel timing_;
    /** Pool the traced executePlan probes run on (workload knobs). */
    std::unique_ptr<WorkerPool> probePool_;

    /** htap_mixed answers of every round, checked after the last. */
    std::vector<Answer> answers_;
    /** Reference answers; every round of a run has the same inputs. */
    std::vector<std::vector<testsupport::RefRow>> refs_;

    std::vector<Round> rounds_;
    std::vector<double> workTraced_, workUntraced_;
    std::map<std::string, std::vector<double>> layer_;
    std::uint64_t querySeq_ = 0;
    std::uint64_t batchSeq_ = 0;
    std::size_t nextPlan_ = 0;
    double lastDrainS_ = 0.0;
    std::size_t lastBatchQueries_ = 0;
    std::uint64_t errors_ = 0;
};

Instance
Runner::build(std::uint32_t writers, const olap::OlapConfig &ocfg) const
{
    Instance in;
    in.db = std::make_unique<txn::Database>(dbCfg_);
    in.olap = std::make_unique<olap::OlapEngine>(*in.db, ocfg);
    txn::TxnWorkerGroupOptions gopts;
    gopts.workers = writers;
    gopts.seed = txnSeed_;
    in.group = std::make_unique<txn::TxnWorkerGroup>(
        *in.db, txn::InstanceFormat::Unified, bw_, timing_, gopts);
    return in;
}

double
Runner::query(olap::OlapEngine &olap, std::size_t i, Timestamp ts,
              olap::QueryResult &res)
{
    const std::uint64_t req = ++querySeq_;
    const Scope qs(tr_, "query", req);
    const auto t0 = Clock::now();
    {
        const Scope s(tr_, "mvcc.snapshot", req);
        olap.prepareSnapshot(ts);
    }
    {
        const Scope s(tr_, "olap.run_query", req);
        olap.runQuery(plans_[i].plan, &res);
    }
    const double ms = secondsSince(t0) * 1e3;
    if (tr_.on())
        layer(queryMetricName(plans_[i].queryNo), ms);
    return ms;
}

double
Runner::defrag(olap::OlapEngine &olap, std::uint64_t batch)
{
    const auto t0 = Clock::now();
    {
        const Scope s(tr_, "mvcc.defrag", batch);
        olap.runDefragmentation(mvcc::DefragStrategy::Hybrid);
    }
    const double secs = secondsSince(t0);
    if (tr_.on()) {
        // Merged over all tables (unlike lastSnapshotStats()).
        const auto &st = olap.lastDefragStats();
        layer("mvcc.defrag_rows_copied",
              static_cast<double>(st.rowsCopied));
        layer("mvcc.defrag_chain_steps",
              static_cast<double>(st.chainSteps));
    }
    return secs;
}

void
Runner::checkAgainstReference(txn::Database &db,
                              const std::vector<olap::QueryResult> &got,
                              Round &r)
{
    // Every round of a run starts from the same seed, so the first
    // round's reference answers are every round's expected answers.
    if (refs_.empty())
        for (const auto &q : plans_)
            refs_.push_back(testsupport::referenceExecute(db, q.plan));
    for (std::size_t k = 0; k < got.size(); ++k)
        if (!sameAnswer(got[k], refs_[k % plans_.size()])) {
            ++r.failed;
            std::fprintf(stderr, "wrong answer: %s (pass %zu)\n",
                         plans_[k % plans_.size()].plan.name.c_str(),
                         k / plans_.size());
        }
}

double
Runner::runBatch(Instance &in, Round &r, std::vector<Answer> *answers)
{
    const auto t0 = Clock::now();
    const Scope bs(tr_, "batch", ++batchSeq_);
    {
        const Scope s(tr_, "txn.start", batchSeq_);
        in.group->start(shape_.batch);
    }
    const auto t_drain = Clock::now();
    const Timestamp end = in.group->scheduleBase() + shape_.batch;
    std::size_t queries = 0;
    // htap_mixed: the analyst snapshots at the live commit frontier
    // and runs the plans round-robin until the batch has committed.
    while (answers && in.group->commitFrontier() < end) {
        Answer a;
        a.plan = nextPlan_;
        a.frontier = in.group->commitFrontier();
        r.queryMs.push_back(
            query(*in.olap, a.plan, a.frontier, a.result));
        r.queryPlan.push_back(a.plan);
        r.lag.push_back(
            static_cast<double>(in.group->commitFrontier() - a.frontier));
        answers->push_back(std::move(a));
        nextPlan_ = (nextPlan_ + 1) % plans_.size();
        ++queries;
    }
    in.group->finish();
    const auto t_end = Clock::now();
    tr_.interval("txn.drain", batchSeq_, t_drain, t_end);
    lastDrainS_ = std::chrono::duration<double>(t_end - t_drain).count();
    r.attempted += shape_.batch + queries;
    lastBatchQueries_ = queries;
    return std::chrono::duration<double>(t_end - t0).count();
}

void
Runner::queryPasses(Instance &in, Round &r,
                    std::vector<olap::QueryResult> &got)
{
    const Timestamp ts = in.db->now();
    got.assign(shape_.passes * plans_.size(), {});
    for (std::uint32_t p = 0; p < shape_.passes; ++p) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < plans_.size(); ++i) {
            r.queryMs.push_back(
                query(*in.olap, i, ts, got[p * plans_.size() + i]));
            r.queryPlan.push_back(i);
        }
        const double s = secondsSince(t0);
        r.queryRate.push_back(static_cast<double>(plans_.size()) / s);
        r.workS += s;
    }
    r.attempted += got.size();
}

void
Runner::checkFrontier(Instance &in, Round &r)
{
    const Timestamp n = shape_.txns;
    if (in.group->commitFrontier() == n && in.db->now() == n)
        return;
    ++r.failed;
    std::fprintf(stderr,
                 "final frontier %llu (database now %llu), expected %llu\n",
                 static_cast<unsigned long long>(in.group->commitFrontier()),
                 static_cast<unsigned long long>(in.db->now()),
                 static_cast<unsigned long long>(n));
}

void
Runner::oltpIngest(Round &r)
{
    const auto t_setup = Clock::now();
    Instance in = build(kWriters, olapCfg_);
    r.setupS = secondsSince(t_setup);

    // Ingest: batches drained by the writers, each followed by a
    // defragmentation pass (the mixedParallel pattern). No queries
    // run. One throughput sample per batch, defragmentation included.
    const std::uint64_t batches = shape_.txns / shape_.batch;
    double first_drain_s = 0.0;
    for (std::uint64_t b = 0; b < batches; ++b) {
        double s = runBatch(in, r, nullptr);
        if (b == 0)
            first_drain_s = lastDrainS_;
        // The transaction probes need the last batch's version chains,
        // so they run before its defragmentation, outside the timing.
        if (tr_.on() && b + 1 == batches)
            txnProbes(in, first_drain_s);
        s += defrag(*in.olap, batchSeq_);
        r.txnRate.push_back(static_cast<double>(shape_.batch) / s);
        r.workS += s;
    }
    checkFrontier(in, r);

    // Query passes over the ingested state (no writer runs): what the
    // grown database costs the analyst.
    std::vector<olap::QueryResult> got;
    queryPasses(in, r, got);
    if (tr_.on())
        olapProbes(in, r);
    checkAgainstReference(*in.db, got, r);
}

void
Runner::olapSuite(Round &r)
{
    const auto t_setup = Clock::now();
    Instance in = build(kWriters, olapCfg_);
    r.setupS = secondsSince(t_setup);

    // Preload: no defragmentation, so delta regions and version
    // chains are non-empty when the analyst starts.
    const std::uint64_t batches = shape_.txns / shape_.batch;
    double first_drain_s = 0.0;
    for (std::uint64_t b = 0; b < batches; ++b) {
        const double s = runBatch(in, r, nullptr);
        if (b == 0)
            first_drain_s = lastDrainS_;
        if (tr_.on() && b + 1 == batches)
            txnProbes(in, first_drain_s);
        r.txnRate.push_back(static_cast<double>(shape_.batch) / s);
        r.workS += s;
    }
    checkFrontier(in, r);
    in.olap->prepareSnapshot(in.db->now());

    std::vector<olap::QueryResult> got;
    queryPasses(in, r, got);
    checkAgainstReference(*in.db, got, r);
    if (tr_.on()) {
        olapProbes(in, r);
        // Not part of the workload: what defragmenting the preload
        // would cost.
        defrag(*in.olap, batchSeq_);
    }
}

void
Runner::htapMixed(Round &r)
{
    const auto t_setup = Clock::now();
    Instance in = build(kWriters, olapCfg_);
    r.setupS = secondsSince(t_setup);

    // Writers drain each batch in the background while one analyst
    // client (this thread) queries; defragmentation after each batch
    // pauses both sides. One throughput sample per batch.
    nextPlan_ = 0;
    const std::uint64_t batches = shape_.txns / shape_.batch;
    double first_drain_s = 0.0;
    for (std::uint64_t b = 0; b < batches; ++b) {
        double s = runBatch(in, r, &answers_);
        if (b == 0)
            first_drain_s = lastDrainS_;
        if (tr_.on() && b + 1 == batches)
            txnProbes(in, first_drain_s);
        s += defrag(*in.olap, batchSeq_);
        r.txnRate.push_back(static_cast<double>(shape_.batch) / s);
        r.queryRate.push_back(static_cast<double>(lastBatchQueries_) / s);
        r.workS += s;
    }
    checkFrontier(in, r);

    if (tr_.on()) {
        if (const auto *c = in.olap->resultCache()) {
            const double total = static_cast<double>(
                c->hits + c->incrementals + c->misses);
            layer("cache.hit_ratio",
                  total > 0 ? static_cast<double>(c->hits) / total : 0);
            layer("cache.incremental_ratio",
                  total > 0 ? static_cast<double>(c->incrementals) /
                                  total
                            : 0);
        }
        olapProbes(in, r);
    }
}

std::uint64_t
Runner::replayCheck()
{
    // The test_concurrent_ingest contract: a single writer replays
    // the identical schedule (same seed, same descriptor stream) and
    // every answer must equal the replay's answer at its frontier.
    // Every round drew the same schedule, so one replay serves the
    // answers of all rounds, visited in frontier order.
    std::stable_sort(answers_.begin(), answers_.end(),
                     [](const Answer &a, const Answer &b) {
                         return a.frontier < b.frontier;
                     });
    auto ocfg = olap::OlapConfig::pushtapDimm();
    ocfg.shards = ocfg.workers = WorkerPool::hardwareWorkers();
    Instance in = build(1, ocfg);
    std::uint64_t wrong = 0;
    Timestamp cur = 0;
    std::size_t i = 0;
    const std::uint64_t batches = shape_.txns / shape_.batch;
    for (std::uint64_t b = 0; b < batches; ++b) {
        const Timestamp end = (b + 1) * shape_.batch;
        for (; i < answers_.size() && answers_[i].frontier <= end; ++i) {
            const auto &a = answers_[i];
            if (a.frontier > cur) {
                in.group->run(a.frontier - cur);
                cur = a.frontier;
            }
            in.olap->prepareSnapshot(a.frontier);
            olap::QueryResult want;
            in.olap->runQuery(plans_[a.plan].plan, &want);
            if (!sameAnswer(a.result, want)) {
                ++wrong;
                std::fprintf(stderr,
                             "wrong answer: %s at frontier %llu\n",
                             plans_[a.plan].plan.name.c_str(),
                             static_cast<unsigned long long>(
                                 a.frontier));
            }
        }
        if (end > cur) {
            in.group->run(end - cur);
            cur = end;
        }
        in.olap->runDefragmentation(mvcc::DefragStrategy::Hybrid);
    }
    return wrong;
}

void
Runner::olapProbes(Instance &in, Round &r)
{
    // Outside the measured window: the batch executor's phases and
    // counts at the workload's knobs, the optimizer and pricing
    // walks, and runQuery's cost over executePlan on one snapshot.
    in.olap->prepareSnapshot(in.db->now());
    if (!probePool_ && olapCfg_.workers > 1)
        probePool_ = std::make_unique<WorkerPool>(olapCfg_.workers);
    olap::ExecOptions eo;
    eo.shards = olapCfg_.shards;
    eo.workers = olapCfg_.workers;
    eo.morselRows =
        olap::OlapConfig::defaultMorselRows(txn::InstanceFormat::Unified);
    eo.pool = probePool_.get();

    double sub = 0, build_ns = 0, probe = 0, merge = 0;
    double visible = 0, filtered = 0, join_out = 0;
    double optimize_us = 0, price_us = 0, overhead_us = 0;
    for (const auto &q : plans_) {
        const std::uint64_t req = ++querySeq_;
        // executePlan runs before and after runQuery; their mean is
        // the base of runQuery's overhead, so drift cancels.
        auto execute = [&](olap::PlanExecution &ex) {
            const auto t0 = Clock::now();
            const Scope s(tr_, "olap.execute_plan", req);
            ex = olap::executePlan(*in.db, q.plan, eo);
            return secondsSince(t0) * 1e6;
        };
        olap::PlanExecution ex, again;
        const double exec_before_us = execute(ex);
        olap::QueryResult via_engine;
        auto t = Clock::now();
        {
            const Scope s(tr_, "olap.run_query", req);
            in.olap->runQuery(q.plan, &via_engine);
        }
        const double run_us = secondsSince(t) * 1e6;
        overhead_us += run_us - (exec_before_us + execute(again)) / 2;
        ++r.attempted;
        if (!sameAnswer(ex.result, via_engine)) {
            ++r.failed;
            std::fprintf(stderr, "executePlan and runQuery disagree: %s\n",
                         q.plan.name.c_str());
        }
        sub += ex.subqueryNs;
        build_ns += ex.buildNs;
        probe += ex.probeNs;
        merge += ex.mergeNs;
        visible += static_cast<double>(ex.stats.probeVisible);
        filtered += static_cast<double>(ex.stats.probeFiltered);
        for (const auto &j : ex.stats.joins)
            join_out += static_cast<double>(j.out);
        // Measured on every workload; runQuery calls the optimizer
        // only where it is on (htap_mixed).
        t = Clock::now();
        {
            const Scope s(tr_, "olap.optimize", req);
            (void)in.olap->optimizePlan(q.plan);
        }
        optimize_us += secondsSince(t) * 1e6;
        t = Clock::now();
        {
            const Scope s(tr_, "olap.price", req);
            (void)in.olap->pricePlan(q.plan, false, nullptr,
                                     ex.rowsVisible);
        }
        price_us += secondsSince(t) * 1e6;
    }
    const auto n = static_cast<double>(plans_.size());
    // Phase times are per pass over the 22 plans; API costs per plan.
    layer("olap.subquery_ms", sub / 1e6);
    layer("olap.build_ms", build_ns / 1e6);
    layer("olap.probe_ms", probe / 1e6);
    layer("olap.merge_ms", merge / 1e6);
    layer("olap.rows_visible", visible);
    layer("olap.probe_filtered", filtered);
    layer("olap.join_out_rows", join_out);
    layer("olap.optimize_us", optimize_us / n);
    layer("olap.price_us", price_us / n);
    layer("olap.engine_overhead_us", overhead_us / n);
}

void
Runner::txnProbes(Instance &in, double first_drain_s)
{
    const std::uint64_t n = shape_.txns;
    const std::uint64_t req = batchSeq_;

    // Regenerate the round's schedule exactly as the group drew it.
    std::vector<txn::TxnDescriptor> descs(n);
    auto t = Clock::now();
    {
        const Scope s(tr_, "txn.gen", req);
        Rng rng(txnSeed_);
        for (auto &d : descs)
            d = txn::TpccEngine::genMixed(rng, *in.db);
    }
    layer("txn.gen_us", secondsSince(t) * 1e6 / static_cast<double>(n));

    // Hash index: every customer and stock key the schedule touches.
    std::vector<std::uint64_t> cust_keys, stock_keys;
    std::set<std::uint64_t> all_items, last_items;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto &d = descs[i];
        cust_keys.push_back(txn::packKey(0, 0, d.customer));
        if (d.kind != txn::TxnDescriptor::Kind::NewOrder)
            continue;
        for (const auto &l : d.lines) {
            stock_keys.push_back(txn::packKey(0, 0, l.item));
            all_items.insert(l.item);
            if (i >= n - shape_.batch)
                last_items.insert(l.item);
        }
    }
    auto &cust = in.db->table(ChTable::Customer).index();
    auto &stock = in.db->table(ChTable::Stock).index();
    std::uint64_t probes = 0, found = 0;
    t = Clock::now();
    {
        const Scope s(tr_, "index.lookup", req);
        for (const auto k : cust_keys) {
            std::uint64_t p = 0;
            found += cust.lookup(k, &p).has_value();
            probes += p;
        }
        for (const auto k : stock_keys) {
            std::uint64_t p = 0;
            found += stock.lookup(k, &p).has_value();
            probes += p;
        }
    }
    const auto lookups =
        static_cast<double>(cust_keys.size() + stock_keys.size());
    layer("index.lookup_ns", secondsSince(t) * 1e9 / lookups);
    layer("index.probes_per_lookup", static_cast<double>(probes) / lookups);
    if (found != cust_keys.size() + stock_keys.size())
        ++errors_;

    // Version chains: stock rows the last batch wrote (not yet
    // defragmented) against stock rows no transaction touched.
    std::vector<RowId> written, untouched;
    for (const auto item : last_items)
        if (const auto row = stock.lookup(txn::packKey(0, 0, item)))
            written.push_back(*row);
    const auto items = in.db->table(ChTable::Stock).populatedRows();
    for (std::uint64_t item = 0;
         item < items && untouched.size() < written.size(); ++item)
        if (!all_items.count(item))
            if (const auto row = stock.lookup(txn::packKey(0, 0, item)))
                untouched.push_back(*row);
    std::vector<std::uint8_t> buf(
        in.db->table(ChTable::Stock).schema().rowBytes());
    auto read_all = [&](const std::vector<RowId> &rows, const char *span,
                        const char *ns_name, const char *steps_name) {
        std::uint64_t steps = 0;
        const auto t0 = Clock::now();
        {
            const Scope s(tr_, span, req);
            for (const auto row : rows)
                steps += in.db->readNewest(ChTable::Stock, row, buf);
        }
        const auto cnt = static_cast<double>(std::max<std::size_t>(
            rows.size(), 1));
        layer(ns_name, secondsSince(t0) * 1e9 / cnt);
        layer(steps_name, static_cast<double>(steps) / cnt);
    };
    read_all(written, "mvcc.read_newest.written", "mvcc.read_newest_ns",
             "mvcc.chain_steps_written");
    read_all(untouched, "mvcc.read_newest.untouched",
             "mvcc.read_newest_untouched_ns", "mvcc.chain_steps_untouched");

    // Per-transaction latency: a serial pass over the first batch on
    // a fresh database (the worker group exposes no per-transaction
    // timing).
    {
        txn::Database db(dbCfg_);
        txn::TpccEngine engine(db, txn::InstanceFormat::Unified, bw_,
                               timing_, txnSeed_);
        const Timestamp base = db.reserveTimestamps(shape_.batch);
        for (std::uint64_t i = 0; i < shape_.batch; ++i) {
            auto d = descs[i];
            d.ts = base + 1 + i;
            const Scope s(tr_,
                          d.kind == txn::TxnDescriptor::Kind::Payment
                              ? "txn.execute.payment"
                              : "txn.execute.neworder",
                          d.ts);
            engine.execute(d);
        }
    }

    // Writer scaling: the first batch drained by one writer.
    {
        Instance one = build(1, olap::OlapConfig::pushtapDimm());
        one.group->start(shape_.batch);
        const auto t0 = Clock::now();
        one.group->finish();
        layer("txn.scaling_2w", secondsSince(t0) / first_drain_s);
    }
}

/** Per-layer metrics (name, unit), in output order. */
std::vector<std::pair<std::string, std::string>>
layerMetrics()
{
    std::vector<std::pair<std::string, std::string>> out = {
        {"txn.schedule_ms", "ms"},
        {"txn.drain_ms", "ms"},
        {"txn.payment_us_p50", "us"},
        {"txn.payment_us_p95", "us"},
        {"txn.neworder_us_p50", "us"},
        {"txn.neworder_us_p95", "us"},
        {"txn.gen_us", "us"},
        {"txn.scaling_2w", "ratio"},
        {"index.lookup_ns", "ns"},
        {"index.probes_per_lookup", "count"},
        {"mvcc.read_newest_ns", "ns"},
        {"mvcc.read_newest_untouched_ns", "ns"},
        {"mvcc.chain_steps_written", "count"},
        {"mvcc.chain_steps_untouched", "count"},
        {"mvcc.snapshot_ms", "ms"},
        {"mvcc.defrag_ms", "ms"},
        {"mvcc.defrag_rows_copied", "count"},
        {"mvcc.defrag_chain_steps", "count"},
        {"olap.subquery_ms", "ms"},
        {"olap.build_ms", "ms"},
        {"olap.probe_ms", "ms"},
        {"olap.merge_ms", "ms"},
        {"olap.rows_visible", "count"},
        {"olap.probe_filtered", "count"},
        {"olap.join_out_rows", "count"},
        {"olap.optimize_us", "us"},
        {"olap.price_us", "us"},
        {"olap.engine_overhead_us", "us"},
        {"cache.hit_ratio", "ratio"},
        {"cache.incremental_ratio", "ratio"},
        {"htap.freshness_lag_txns_p50", "count"},
        {"trace.overhead_pct", "%"},
    };
    for (const auto &q : workload::chExecutablePlans())
        out.emplace_back(queryMetricName(q.queryNo), "ms");
    return out;
}

Outcome
Runner::run()
{
    // Rounds repeat until the run has measured for opt.seconds, has
    // at least kMinRounds rounds and enough query samples. A traced
    // run alternates untraced and traced rounds so the tracing
    // overhead compares like with like.
    const auto t_run = Clock::now();
    std::size_t samples = 0;
    const std::size_t min_rounds = opt_.trace ? 2 * kMinRounds : kMinRounds;
    while (rounds_.size() < kMaxRounds &&
           (rounds_.size() < min_rounds ||
            secondsSince(t_run) < opt_.seconds ||
            samples < kMinQuerySamples ||
            (opt_.trace && workTraced_.size() < kMinRounds))) {
        const bool traced = opt_.trace && rounds_.size() % 2 == 1;
        tr_.enable(traced);
        Round r;
        try {
            const Scope rs(tr_, "round", rounds_.size());
            if (opt_.workload == "oltp_ingest")
                oltpIngest(r);
            else if (opt_.workload == "olap_suite")
                olapSuite(r);
            else
                htapMixed(r);
        } catch (const FatalError &e) {
            // Counted, not fatal: every operation of the round fails.
            std::fprintf(stderr, "round %zu failed: %s\n",
                         rounds_.size(), e.what());
            const auto planned =
                shape_.txns + shape_.passes * plans_.size();
            r = Round{};
            r.attempted = r.failed = std::max<std::uint64_t>(planned, 1);
            rounds_.push_back(std::move(r));
            break;
        }
        std::printf("round %zu%s: setup %.3f s, %.0f txn/s, %.1f "
                    "queries/s, work %.3f s\n",
                    rounds_.size(), traced ? " (traced)" : "", r.setupS,
                    median(r.txnRate), median(r.queryRate), r.workS);
        samples += r.queryMs.size();
        (traced ? workTraced_ : workUntraced_).push_back(r.workS);
        rounds_.push_back(std::move(r));
    }
    tr_.enable(false);
    if (!answers_.empty()) {
        try {
            errors_ += replayCheck();
        } catch (const FatalError &e) {
            std::fprintf(stderr, "replay failed: %s\n", e.what());
            errors_ += answers_.size();
        }
    }
    return finish();
}

Outcome
Runner::finish() const
{
    Outcome out;
    std::vector<double> setup, txn_s, query_s, query_ms, lag;
    std::vector<std::size_t> query_plan;
    for (const auto &r : rounds_) {
        out.attempted += r.attempted;
        out.failed += r.failed;
        if (r.workS <= 0.0)
            continue; // a failed round
        setup.push_back(r.setupS);
        txn_s.insert(txn_s.end(), r.txnRate.begin(), r.txnRate.end());
        query_s.insert(query_s.end(), r.queryRate.begin(),
                       r.queryRate.end());
        query_ms.insert(query_ms.end(), r.queryMs.begin(), r.queryMs.end());
        query_plan.insert(query_plan.end(), r.queryPlan.begin(),
                          r.queryPlan.end());
        lag.insert(lag.end(), r.lag.begin(), r.lag.end());
    }
    out.failed += errors_;

    std::printf("rounds: %zu (%zu traced)\n", rounds_.size(),
                workTraced_.size());
    std::printf("query latency samples: %zu (p95 has %zu above it)\n",
                query_ms.size(), query_ms.size() / 20);
    std::printf("freshness_lag_txns_p50 = %.1f txns over %zu samples\n",
                median(lag), lag.size());
    std::printf("failed_ratio = %.6g (%llu of %llu operations)\n",
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));

    if (!opt_.trace) {
        out.metrics = {
            {"setup_s", "s", median(setup)},
            {"txn_per_s", "1/s", median(txn_s)},
            {"query_per_s", "1/s", median(query_s)},
            {"query_ms_p50", "ms",
             latencyQuantile(query_ms, query_plan, 0.50)},
            {"query_ms_p95", "ms",
             latencyQuantile(query_ms, query_plan, 0.95)},
            {"peak_rss_mb", "MB", peakRssMb()},
        };
        return out;
    }

    auto span_ms = [&](const char *name) {
        return median(tr_.durations(name)) / 1e6;
    };
    auto span_us_q = [&](const char *name, double q) {
        return latencyQuantile(tr_.durations(name), {}, q) / 1e3;
    };
    std::map<std::string, double> v;
    for (const auto &[name, samples] : layer_)
        v[name] = median(samples);
    v["txn.schedule_ms"] = span_ms("txn.start");
    v["txn.drain_ms"] = span_ms("txn.drain");
    v["txn.payment_us_p50"] = span_us_q("txn.execute.payment", 0.50);
    v["txn.payment_us_p95"] = span_us_q("txn.execute.payment", 0.95);
    v["txn.neworder_us_p50"] = span_us_q("txn.execute.neworder", 0.50);
    v["txn.neworder_us_p95"] = span_us_q("txn.execute.neworder", 0.95);
    v["mvcc.snapshot_ms"] = span_ms("mvcc.snapshot");
    v["mvcc.defrag_ms"] = span_ms("mvcc.defrag");
    v["htap.freshness_lag_txns_p50"] = median(lag);
    const double untraced = median(workUntraced_);
    v["trace.overhead_pct"] =
        untraced > 0 ? (median(workTraced_) / untraced - 1.0) * 100.0 : 0;
    for (const auto &[name, unit] : layerMetrics())
        out.metrics.push_back({name, unit, v[name]});

    // Self time per span name, then the spans themselves.
    std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, t] : tr_.totals())
        std::printf("%-28s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(t.count),
                    t.totalNs / 1e6, t.selfNs / 1e6);
    const std::string path = opt_.outDir + "/trace-" + opt_.workload +
                             "-seed" + std::to_string(opt_.seed) +
                             ".jsonl";
    if (tr_.write(path))
        std::printf("spans: %zu written to %s\n", tr_.size(), path.c_str());
    else
        std::fprintf(stderr, "could not write %s\n", path.c_str());
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "oltp_ingest", "olap_suite", "htap_mixed"};
    return names;
}

void
printConfig(const Options &opt)
{
    const Shape s = shapeOf(opt.workload);
    const auto db = sizedConfig(opt.seed, s);
    const auto oc = olapConfigOf(opt.workload);
    std::printf(
        "config: workload=%s scale=%g db_seed=%llu txn_seed=%llu "
        "writers=%u txns=%llu batch=%llu passes=%u shards=%u "
        "workers=%u optimize=%d result_cache=%d insert_headroom=%.3f "
        "delta_fraction=%.3f trace=%d seconds=%g\n",
        opt.workload.c_str(), db.scale,
        static_cast<unsigned long long>(db.seed),
        static_cast<unsigned long long>(txnSeedOf(opt.seed)),
        kWriters, static_cast<unsigned long long>(s.txns),
        static_cast<unsigned long long>(s.batch), s.passes, oc.shards,
        oc.workers, oc.optimize ? 1 : 0, oc.resultCache ? 1 : 0,
        db.insertHeadroom, db.deltaFraction, opt.trace ? 1 : 0,
        opt.seconds);
}

Outcome
runWorkload(const Options &opt)
{
    Runner r(opt);
    return r.run();
}

} // namespace perfbench
