#pragma once

/**
 * @file
 * TPC-C transaction engine (Payment + New-Order, ~90% of the TPC-C
 * mix, section 7.1) over the single-instance database. Every
 * transaction is executed functionally (real row bytes move through
 * the MVCC machinery) while a cost model accumulates the CPU-side
 * breakdown of Fig. 11(c) (indexing / allocation / computation /
 * version-chain traversal) and the DRAM line traffic implied by the
 * instance's storage format (Fig. 9(a)). A statement's line traffic
 * and re-layout charges depend only on the format and the table
 * layouts, so each is priced once, when the engine is built, and
 * every row access replays that price.
 *
 * Execution is split into two halves so a multi-worker front end can
 * reuse it: gen*() draws a transaction's parameters into a
 * TxnDescriptor (serially, off one Rng stream), and execute() applies
 * a descriptor at its pre-assigned commit timestamp. The single-
 * threaded execute*() conveniences compose the two, consuming the
 * identical random stream the pre-split engine did. Under concurrent
 * execution an optional TxnGate orders same-row writers by timestamp.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/timing_model.hpp"
#include "format/bandwidth.hpp"
#include "txn/database.hpp"
#include "workload/ch_schema.hpp"
#include "workload/ch_gen.hpp"

namespace pushtap::txn {

/** CPU-side cost constants (ns), calibrated to Fig. 11(c). */
struct TxnCostConfig
{
    double indexNsPerProbe = 46.0;
    double allocNsPerVersion = 98.0;
    double computeNsPerVersion = 81.5;
    double traverseNsPerStep = 4.0;
    /** Byte re-layout cost per fragment moved (PUSHtap only). */
    double relayoutNsPerFragment = 0.3;
    /** Commit fence after the clflush of dirtied lines. */
    double commitBarrierNs = 30.0;
    /**
     * Read memory-level parallelism. Row-organized formats (row
     * store, PUSHtap unified) fetch a row's lines from a few
     * contiguous regions that prefetching covers well; the column
     * store gathers every column from a distinct region, which
     * serializes on TLB fills and row activations (the CS penalty of
     * Fig. 9(a)).
     */
    double rowFormatReadOverlap = 4.0;
    double columnStoreReadOverlap = 1.0;
    /** Cores sharing the memory bus (fair-share write cost). */
    std::uint32_t cores = 16;
};

struct TxnStats
{
    std::uint64_t transactions = 0;
    std::uint64_t payments = 0;
    std::uint64_t newOrders = 0;
    std::uint64_t versionsCreated = 0;

    Breakdown cpu; ///< indexing / allocation / computation / traverse
                   ///< / relayout / commit
    double memLines = 0.0;
    TimeNs memTimeNs = 0.0;

    /** Fold another worker's stats into this one. */
    void
    merge(const TxnStats &o)
    {
        transactions += o.transactions;
        payments += o.payments;
        newOrders += o.newOrders;
        versionsCreated += o.versionsCreated;
        cpu.merge(o.cpu);
        memLines += o.memLines;
        memTimeNs += o.memTimeNs;
    }

    TimeNs
    totalNs() const
    {
        return cpu.total() + memTimeNs;
    }

    TimeNs
    avgTxnNs() const
    {
        return transactions ? totalNs() /
                                  static_cast<double>(transactions)
                            : 0.0;
    }
};

/** One New-Order order line's pre-drawn parameters. */
struct TxnLine
{
    std::uint64_t item = 0;
    std::int64_t qty = 1;
};

/**
 * A fully parameterised transaction: every random draw is made up
 * front (by the gen* helpers, off one serial Rng stream) and the
 * commit timestamp is pre-assigned, so execution itself is
 * deterministic and can be partitioned across worker threads.
 */
struct TxnDescriptor
{
    enum class Kind : std::uint8_t
    {
        Payment,
        NewOrder,
    };

    Kind kind = Kind::Payment;
    Timestamp ts = 0;
    std::uint64_t warehouse = 0;
    std::uint64_t district = 0;
    std::uint64_t customer = 0;
    std::int64_t amount = 0; ///< Payment only.
    std::array<TxnLine, workload::kLinesPerOrder> lines{}; ///< NewOrder.
};

/**
 * Row-level ordering gates for concurrent execution. Before the first
 * read of a row it will modify, a transaction enters the row's gate;
 * enter() blocks until every earlier-timestamped writer of that row
 * has left. Gates are held to transaction end (2PL-style), so a
 * same-row successor never observes a partial transaction.
 */
class TxnGate
{
  public:
    virtual ~TxnGate() = default;
    virtual void enter(workload::ChTable t, RowId row,
                       Timestamp ts) = 0;
    virtual void leave(workload::ChTable t, RowId row,
                       Timestamp ts) = 0;
};

class TpccEngine
{
  public:
    TpccEngine(Database &db, InstanceFormat fmt,
               const format::BandwidthModel &bw,
               const dram::BatchTimingModel &timing,
               std::uint64_t seed = 7,
               const TxnCostConfig &cost = {});

    /** Execute one Payment transaction; returns commit timestamp. */
    Timestamp executePayment();

    /** Execute one New-Order transaction. */
    Timestamp executeNewOrder();

    /** Execute one transaction of the 50/50 mix. */
    Timestamp executeMixed();

    /**
     * Draw a transaction's parameters from @p rng without executing
     * anything (or touching timestamps). The draw order matches the
     * execute*() paths exactly, so a scheduler generating descriptors
     * serially consumes the identical random stream.
     */
    static TxnDescriptor genPayment(Rng &rng, const Database &db);
    static TxnDescriptor genNewOrder(Rng &rng, const Database &db);
    static TxnDescriptor genMixed(Rng &rng, const Database &db);

    /**
     * Execute a pre-parameterised transaction at its pre-assigned
     * timestamp. Row gates (if set) order same-row writers.
     */
    Timestamp execute(const TxnDescriptor &d);

    /** Install row-ordering gates (nullptr disables; not owned). */
    void setGate(TxnGate *gate) { gate_ = gate; }

    /** Statistics so far, with the CPU slots folded by component. */
    TxnStats stats() const;
    void resetStats();

    InstanceFormat instanceFormat() const { return fmt_; }

  private:
    /**
     * The seven row reads of Payment and New-Order. Each reads a
     * fixed column set of one table, so its modelled charge is priced
     * once per engine.
     */
    enum class Read : std::uint8_t
    {
        PaymentWarehouse,
        PaymentDistrict,
        PaymentCustomer,
        NewOrderDistrict,
        NewOrderCustomer,
        NewOrderItem,
        NewOrderStock,
        Count,
    };

    /** The CPU components of Fig. 11(c), one accumulator each. */
    enum class Cpu : std::uint8_t
    {
        Indexing,
        ChainTraverse,
        Allocation,
        Computation,
        Relayout,
        Commit,
        Count,
    };

    /** Modelled charge of one row read, priced at construction. */
    struct ReadCharge
    {
        workload::ChTable table;
        double lines = 0.0;      ///< Lines fetched.
        double memNs = 0.0;      ///< Their latency after overlap.
        double relayoutNs = 0.0; ///< Unified only: fragment loads.
    };

    /** Modelled charge of one new version of a table's row. */
    struct WriteCharge
    {
        double lines = 0.0;
        double memNs = 0.0;      ///< Fair share of the bus.
        double relayoutNs = 0.0; ///< Unified only: fragment stores.
    };

    /** Column ids the transactions read and write, by name. */
    struct Columns
    {
        explicit Columns(const Database &db);

        ColumnId w_ytd, d_ytd, d_next_o_id, c_balance, c_ytd_payment,
            c_payment_cnt, i_price, s_quantity, s_ytd, s_order_cnt;
        ColumnId h_c_id, h_c_w_id, h_d_id, h_w_id, h_date, h_amount;
        ColumnId ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id,
            ol_supply_w_id, ol_delivery_d, ol_quantity, ol_amount;
        ColumnId o_id, o_d_id, o_w_id, o_c_id, o_entry_d, o_ol_cnt,
            o_all_local;
        ColumnId no_o_id, no_d_id, no_w_id;
    };

    void applyPayment(const TxnDescriptor &d);
    void applyNewOrder(const TxnDescriptor &d);

    /** Enter @p row's gate unless this txn already holds it. */
    void gateEnter(workload::ChTable t, RowId row, Timestamp ts);

    /** Leave every gate held by the current transaction. */
    void releaseGates(Timestamp ts);

    /** Price a read of the named @p columns of one row of @p t. */
    ReadCharge priceRead(const format::BandwidthModel &bw,
                         const dram::BatchTimingModel &timing,
                         workload::ChTable t,
                         std::initializer_list<const char *> columns)
        const;

    /** Price a new version of one row of @p tbl. */
    WriteCharge priceWrite(const format::BandwidthModel &bw,
                           const dram::BatchTimingModel &timing,
                           const TableRuntime &tbl) const;

    /** Add @p ns to CPU component @p c (and mark it charged). */
    void
    charge(Cpu c, double ns)
    {
        const auto i = static_cast<std::size_t>(c);
        cpuNs_[i] += ns;
        cpuCharged_[i] = true;
    }

    /** Functional read of the newest version + cost accounting. */
    void readRow(Read r, RowId row, std::span<std::uint8_t> out);

    /** Create a new version of @p row with the bytes in @p data. */
    void updateRow(workload::ChTable t, RowId row,
                   std::span<const std::uint8_t> data, Timestamp ts);

    /** Insert a fresh row (appends to the data-region tail). */
    RowId insertRow(workload::ChTable t,
                    std::span<const std::uint8_t> data, Timestamp ts);

    RowId lookupOrDie(workload::ChTable t, std::uint64_t key);

    void commit();

    Database &db_;
    InstanceFormat fmt_;
    TxnCostConfig cost_;
    Rng rng_;
    Columns col_;
    std::array<ReadCharge, static_cast<std::size_t>(Read::Count)>
        reads_;
    std::array<WriteCharge, workload::kChTableCount> writes_;

    TxnStats stats_; ///< Everything but cpu, which lives in cpuNs_.
    std::array<double, static_cast<std::size_t>(Cpu::Count)> cpuNs_{};
    std::array<bool, static_cast<std::size_t>(Cpu::Count)>
        cpuCharged_{};

    std::vector<std::uint8_t> scratch_;
    std::vector<std::uint8_t> orderLine_;
    TxnGate *gate_ = nullptr;

    /** Gates held by the in-flight transaction (deduplicated). */
    struct HeldGate
    {
        workload::ChTable table;
        RowId row;
    };
    std::vector<HeldGate> held_;
};

} // namespace pushtap::txn
