#include "txn/tpcc_engine.hpp"

#include <cstdint>
#include <span>
#include <vector>

#include "common/log.hpp"
#include "workload/row_view.hpp"

namespace pushtap::txn {

using workload::ChTable;
using workload::RowView;

TpccEngine::Columns::Columns(const Database &db)
{
    const auto id = [&db](ChTable t, const char *name) {
        return db.table(t).schema().columnId(name);
    };
    w_ytd = id(ChTable::Warehouse, "w_ytd");
    d_ytd = id(ChTable::District, "d_ytd");
    d_next_o_id = id(ChTable::District, "d_next_o_id");
    c_balance = id(ChTable::Customer, "c_balance");
    c_ytd_payment = id(ChTable::Customer, "c_ytd_payment");
    c_payment_cnt = id(ChTable::Customer, "c_payment_cnt");
    i_price = id(ChTable::Item, "i_price");
    s_quantity = id(ChTable::Stock, "s_quantity");
    s_ytd = id(ChTable::Stock, "s_ytd");
    s_order_cnt = id(ChTable::Stock, "s_order_cnt");
    h_c_id = id(ChTable::History, "h_c_id");
    h_c_w_id = id(ChTable::History, "h_c_w_id");
    h_d_id = id(ChTable::History, "h_d_id");
    h_w_id = id(ChTable::History, "h_w_id");
    h_date = id(ChTable::History, "h_date");
    h_amount = id(ChTable::History, "h_amount");
    ol_o_id = id(ChTable::OrderLine, "ol_o_id");
    ol_d_id = id(ChTable::OrderLine, "ol_d_id");
    ol_w_id = id(ChTable::OrderLine, "ol_w_id");
    ol_number = id(ChTable::OrderLine, "ol_number");
    ol_i_id = id(ChTable::OrderLine, "ol_i_id");
    ol_supply_w_id = id(ChTable::OrderLine, "ol_supply_w_id");
    ol_delivery_d = id(ChTable::OrderLine, "ol_delivery_d");
    ol_quantity = id(ChTable::OrderLine, "ol_quantity");
    ol_amount = id(ChTable::OrderLine, "ol_amount");
    o_id = id(ChTable::Orders, "o_id");
    o_d_id = id(ChTable::Orders, "o_d_id");
    o_w_id = id(ChTable::Orders, "o_w_id");
    o_c_id = id(ChTable::Orders, "o_c_id");
    o_entry_d = id(ChTable::Orders, "o_entry_d");
    o_ol_cnt = id(ChTable::Orders, "o_ol_cnt");
    o_all_local = id(ChTable::Orders, "o_all_local");
    no_o_id = id(ChTable::NewOrder, "no_o_id");
    no_d_id = id(ChTable::NewOrder, "no_d_id");
    no_w_id = id(ChTable::NewOrder, "no_w_id");
}

TpccEngine::TpccEngine(Database &db, InstanceFormat fmt,
                       const format::BandwidthModel &bw,
                       const dram::BatchTimingModel &timing,
                       std::uint64_t seed, const TxnCostConfig &cost)
    : db_(db), fmt_(fmt), cost_(cost), rng_(seed), col_(db)
{
    const auto read = [&](Read r, ChTable t,
                          std::initializer_list<const char *> cols) {
        reads_[static_cast<std::size_t>(r)] =
            priceRead(bw, timing, t, cols);
    };
    read(Read::PaymentWarehouse, ChTable::Warehouse,
         {"w_ytd", "w_tax", "w_name"});
    read(Read::PaymentDistrict, ChTable::District,
         {"d_ytd", "d_tax", "d_name"});
    read(Read::PaymentCustomer, ChTable::Customer,
         {"c_balance", "c_ytd_payment", "c_payment_cnt", "c_credit",
          "c_last"});
    read(Read::NewOrderDistrict, ChTable::District,
         {"d_next_o_id", "d_tax"});
    read(Read::NewOrderCustomer, ChTable::Customer,
         {"c_discount", "c_last", "c_credit"});
    read(Read::NewOrderItem, ChTable::Item,
         {"i_price", "i_name", "i_data"});
    read(Read::NewOrderStock, ChTable::Stock,
         {"s_quantity", "s_ytd", "s_order_cnt", "s_dist_01"});
    for (std::size_t t = 0; t < workload::kChTableCount; ++t)
        writes_[t] = priceWrite(bw, timing,
                                db_.table(static_cast<ChTable>(t)));
    orderLine_.assign(db_.table(ChTable::OrderLine).schema().rowBytes(),
                      0);
}

TpccEngine::ReadCharge
TpccEngine::priceRead(const format::BandwidthModel &bw,
                      const dram::BatchTimingModel &timing, ChTable t,
                      std::initializer_list<const char *> columns)
    const
{
    const auto &tbl = db_.table(t);
    std::vector<ColumnId> ids;
    for (const char *name : columns)
        ids.push_back(tbl.schema().columnId(name));
    ReadCharge c;
    c.table = t;
    switch (fmt_) {
      case InstanceFormat::Unified:
        c.lines = bw.columnSetAccess(tbl.layout(), ids).avgLines;
        break;
      case InstanceFormat::RowStore:
        c.lines = bw.rowStoreColumns(tbl.schema(), ids).avgLines;
        break;
      case InstanceFormat::ColumnStore:
        c.lines = bw.columnStoreColumns(tbl.schema(), ids).avgLines;
        break;
    }
    const double overlap = fmt_ == InstanceFormat::ColumnStore
                               ? cost_.columnStoreReadOverlap
                               : cost_.rowFormatReadOverlap;
    c.memNs = c.lines * timing.randomAccessLatency() / overlap;
    // Loading re-layouts the fragments into the canonical form.
    c.relayoutNs = cost_.relayoutNsPerFragment *
                   static_cast<double>(ids.size());
    return c;
}

TpccEngine::WriteCharge
TpccEngine::priceWrite(const format::BandwidthModel &bw,
                       const dram::BatchTimingModel &timing,
                       const TableRuntime &tbl) const
{
    // New versions append densely (consecutive delta slots share
    // lines across transactions in every format), so the amortised
    // write cost is the payload bytes — including the format's
    // padding — spread over whole lines.
    const double line = static_cast<double>(bw.lineBytes());
    WriteCharge c;
    switch (fmt_) {
      case InstanceFormat::Unified:
        c.lines =
            static_cast<double>(tbl.layout().paddedRowBytes()) / line;
        break;
      case InstanceFormat::RowStore:
      case InstanceFormat::ColumnStore:
        c.lines = static_cast<double>(tbl.schema().rowBytes()) / line;
        break;
    }
    // Streamed writes cost each core its fair share of the bus.
    const double bus_share_ns =
        line / (timing.cpuPeakBandwidth().bytesPerNs() /
                static_cast<double>(cost_.cores));
    c.memNs = c.lines * bus_share_ns;
    c.relayoutNs = cost_.relayoutNsPerFragment *
                   static_cast<double>(
                       tbl.store().codec().fragmentsPerRow());
    return c;
}

TxnStats
TpccEngine::stats() const
{
    static constexpr const char *kNames[] = {
        "indexing",    "chain_traverse", "allocation",
        "computation", "relayout",       "commit",
    };
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(Cpu::Count));
    TxnStats s = stats_;
    for (std::size_t i = 0; i < cpuNs_.size(); ++i)
        if (cpuCharged_[i])
            s.cpu.add(kNames[i], cpuNs_[i]);
    return s;
}

void
TpccEngine::resetStats()
{
    stats_ = TxnStats{};
    cpuNs_ = {};
    cpuCharged_ = {};
}

RowId
TpccEngine::lookupOrDie(ChTable t, std::uint64_t key)
{
    auto &index = db_.table(t).index();
    std::uint64_t probes = 0;
    const auto row = index.lookup(key, &probes);
    charge(Cpu::Indexing,
           cost_.indexNsPerProbe * static_cast<double>(probes));
    if (!row)
        panic("missing key {} in table {}", key,
              db_.table(t).schema().name());
    return *row;
}

void
TpccEngine::gateEnter(ChTable t, RowId row, Timestamp ts)
{
    if (gate_ == nullptr)
        return;
    // One NewOrder can hit the same stock row twice (duplicate
    // items); entering its own gate again would deadlock.
    for (const auto &h : held_)
        if (h.table == t && h.row == row)
            return;
    gate_->enter(t, row, ts);
    held_.push_back({t, row});
}

void
TpccEngine::releaseGates(Timestamp ts)
{
    for (const auto &h : held_)
        gate_->leave(h.table, h.row, ts);
    held_.clear();
}

void
TpccEngine::readRow(Read r, RowId row, std::span<std::uint8_t> out)
{
    const ReadCharge &c = reads_[static_cast<std::size_t>(r)];
    const auto steps = db_.readNewest(c.table, row, out);
    charge(Cpu::ChainTraverse,
           cost_.traverseNsPerStep * static_cast<double>(steps));
    stats_.memLines += c.lines;
    stats_.memTimeNs += c.memNs;
    if (fmt_ == InstanceFormat::Unified)
        charge(Cpu::Relayout, c.relayoutNs);
}

void
TpccEngine::updateRow(ChTable t, RowId row,
                      std::span<const std::uint8_t> data,
                      Timestamp ts)
{
    auto &tbl = db_.table(t);
    const RowId slot = tbl.versions().allocDeltaSlot(row);
    tbl.store().writeRow(storage::Region::Delta, slot, data);
    tbl.versions().addVersion(row, slot, ts);
    tbl.bumpWriteEpoch();
    ++stats_.versionsCreated;

    const WriteCharge &c = writes_[static_cast<std::size_t>(t)];
    charge(Cpu::Allocation, cost_.allocNsPerVersion);
    charge(Cpu::Computation, cost_.computeNsPerVersion);
    stats_.memLines += c.lines;
    stats_.memTimeNs += c.memNs;
    if (fmt_ == InstanceFormat::Unified)
        charge(Cpu::Relayout, c.relayoutNs);
}

RowId
TpccEngine::insertRow(ChTable t, std::span<const std::uint8_t> data,
                      Timestamp ts)
{
    auto &tbl = db_.table(t);
    const RowId row = tbl.allocInsertRow();
    // The fresh row is born as a delta version of its (invisible)
    // data-region slot, so snapshots expose it consistently and
    // defragmentation lands it in place.
    updateRow(t, row, data, ts);
    return row;
}

void
TpccEngine::commit()
{
    // clflush of the dirtied lines is already accounted as write
    // traffic; the commit fence serialises them (section 6.3).
    charge(Cpu::Commit, cost_.commitBarrierNs);
}

TxnDescriptor
TpccEngine::genPayment(Rng &rng, const Database &db)
{
    const auto &counts = db.generator().rowCounts();
    const auto n_w = counts.at(ChTable::Warehouse);
    const auto n_c = counts.at(ChTable::Customer);

    TxnDescriptor d;
    d.kind = TxnDescriptor::Kind::Payment;
    d.warehouse = rng.below(n_w);
    d.district = rng.below(10);
    NuRand nurand(rng, 1023, 259);
    d.customer = static_cast<std::uint64_t>(
        nurand(0, static_cast<std::int64_t>(n_c - 1)));
    d.amount = rng.inRange(100, 500000);
    return d;
}

TxnDescriptor
TpccEngine::genNewOrder(Rng &rng, const Database &db)
{
    const auto &counts = db.generator().rowCounts();
    const auto n_w = counts.at(ChTable::Warehouse);
    const auto n_c = counts.at(ChTable::Customer);
    const auto n_i = counts.at(ChTable::Item);

    TxnDescriptor d;
    d.kind = TxnDescriptor::Kind::NewOrder;
    d.warehouse = rng.below(n_w);
    d.district = rng.below(10);
    NuRand nurand(rng, 1023, 259);
    d.customer = static_cast<std::uint64_t>(
        nurand(0, static_cast<std::int64_t>(n_c - 1)));
    NuRand item_rand(rng, 8191, 7911);
    for (auto &line : d.lines) {
        line.item = static_cast<std::uint64_t>(
            item_rand(0, static_cast<std::int64_t>(n_i - 1)));
        line.qty = rng.inRange(1, 10);
    }
    return d;
}

TxnDescriptor
TpccEngine::genMixed(Rng &rng, const Database &db)
{
    return rng.flip(0.5) ? genPayment(rng, db)
                         : genNewOrder(rng, db);
}

Timestamp
TpccEngine::execute(const TxnDescriptor &d)
{
    if (d.kind == TxnDescriptor::Kind::Payment)
        applyPayment(d);
    else
        applyNewOrder(d);
    return d.ts;
}

Timestamp
TpccEngine::executePayment()
{
    TxnDescriptor d = genPayment(rng_, db_);
    d.ts = db_.nextTimestamp();
    return execute(d);
}

Timestamp
TpccEngine::executeNewOrder()
{
    TxnDescriptor d = genNewOrder(rng_, db_);
    d.ts = db_.nextTimestamp();
    return execute(d);
}

Timestamp
TpccEngine::executeMixed()
{
    TxnDescriptor d = genMixed(rng_, db_);
    d.ts = db_.nextTimestamp();
    return execute(d);
}

void
TpccEngine::applyPayment(const TxnDescriptor &txn)
{
    const auto w = txn.warehouse;
    const auto d = txn.district;
    const auto c = txn.customer;
    const std::int64_t amount = txn.amount;
    const Timestamp ts = txn.ts;

    // Warehouse: read tax/ytd, bump ytd.
    {
        const auto &s = db_.table(ChTable::Warehouse).schema();
        const RowId row = lookupOrDie(ChTable::Warehouse, packKey(w));
        gateEnter(ChTable::Warehouse, row, ts);
        scratch_.assign(s.rowBytes(), 0);
        readRow(Read::PaymentWarehouse, row, scratch_);
        RowView v(s, scratch_);
        v.setInt(col_.w_ytd, v.getInt(col_.w_ytd) + amount);
        updateRow(ChTable::Warehouse, row, scratch_, ts);
    }
    // District: same shape.
    {
        const auto &s = db_.table(ChTable::District).schema();
        const RowId row =
            lookupOrDie(ChTable::District, packKey(w, d));
        gateEnter(ChTable::District, row, ts);
        scratch_.assign(s.rowBytes(), 0);
        readRow(Read::PaymentDistrict, row, scratch_);
        RowView v(s, scratch_);
        v.setInt(col_.d_ytd, v.getInt(col_.d_ytd) + amount);
        updateRow(ChTable::District, row, scratch_, ts);
    }
    // Customer: balance / ytd / payment count.
    {
        const auto &s = db_.table(ChTable::Customer).schema();
        const RowId row =
            lookupOrDie(ChTable::Customer, packKey(0, 0, c));
        gateEnter(ChTable::Customer, row, ts);
        scratch_.assign(s.rowBytes(), 0);
        readRow(Read::PaymentCustomer, row, scratch_);
        RowView v(s, scratch_);
        v.setInt(col_.c_balance, v.getInt(col_.c_balance) - amount);
        v.setInt(col_.c_ytd_payment,
                 v.getInt(col_.c_ytd_payment) + amount);
        v.setInt(col_.c_payment_cnt,
                 v.getInt(col_.c_payment_cnt) + 1);
        updateRow(ChTable::Customer, row, scratch_, ts);
    }
    // History insert.
    {
        const auto &s = db_.table(ChTable::History).schema();
        scratch_.assign(s.rowBytes(), 0);
        RowView v(s, scratch_);
        v.setInt(col_.h_c_id, static_cast<std::int64_t>(c));
        v.setInt(col_.h_c_w_id, static_cast<std::int64_t>(w));
        v.setInt(col_.h_d_id, static_cast<std::int64_t>(d));
        v.setInt(col_.h_w_id, static_cast<std::int64_t>(w));
        v.setInt(col_.h_date,
                 workload::kDateBase + static_cast<std::int64_t>(ts));
        v.setInt(col_.h_amount, amount);
        insertRow(ChTable::History, scratch_, ts);
    }

    commit();
    releaseGates(ts);
    ++stats_.transactions;
    ++stats_.payments;
}

void
TpccEngine::applyNewOrder(const TxnDescriptor &txn)
{
    const auto w = txn.warehouse;
    const auto d = txn.district;
    const auto c = txn.customer;
    const Timestamp ts = txn.ts;
    std::int64_t next_o_id = 0;

    // District: read and bump the order counter.
    {
        const auto &s = db_.table(ChTable::District).schema();
        const RowId row =
            lookupOrDie(ChTable::District, packKey(w, d));
        gateEnter(ChTable::District, row, ts);
        scratch_.assign(s.rowBytes(), 0);
        readRow(Read::NewOrderDistrict, row, scratch_);
        RowView v(s, scratch_);
        next_o_id = v.getInt(col_.d_next_o_id);
        v.setInt(col_.d_next_o_id, next_o_id + 1);
        updateRow(ChTable::District, row, scratch_, ts);
    }
    // Customer: discount / credit.
    {
        const auto &s = db_.table(ChTable::Customer).schema();
        const RowId row =
            lookupOrDie(ChTable::Customer, packKey(0, 0, c));
        scratch_.assign(s.rowBytes(), 0);
        readRow(Read::NewOrderCustomer, row, scratch_);
    }

    const auto &item_schema = db_.table(ChTable::Item).schema();
    const auto &stock_schema = db_.table(ChTable::Stock).schema();
    const auto &ol_schema = db_.table(ChTable::OrderLine).schema();
    for (std::uint64_t line = 0; line < workload::kLinesPerOrder;
         ++line) {
        const auto item = txn.lines[line].item;
        std::int64_t price = 0;

        // Item read.
        {
            const RowId row =
                lookupOrDie(ChTable::Item, packKey(0, 0, item));
            scratch_.assign(item_schema.rowBytes(), 0);
            readRow(Read::NewOrderItem, row, scratch_);
            price = RowView(item_schema, scratch_).getInt(col_.i_price);
        }
        // Stock read-modify-write.
        {
            const RowId row =
                lookupOrDie(ChTable::Stock, packKey(0, 0, item));
            gateEnter(ChTable::Stock, row, ts);
            scratch_.assign(stock_schema.rowBytes(), 0);
            readRow(Read::NewOrderStock, row, scratch_);
            RowView v(stock_schema, scratch_);
            const std::int64_t qty = txn.lines[line].qty;
            std::int64_t sq = v.getInt(col_.s_quantity);
            sq = sq >= qty + 10 ? sq - qty : sq - qty + 91;
            v.setInt(col_.s_quantity, sq);
            v.setInt(col_.s_ytd, v.getInt(col_.s_ytd) + qty);
            v.setInt(col_.s_order_cnt, v.getInt(col_.s_order_cnt) + 1);
            updateRow(ChTable::Stock, row, scratch_, ts);

            // Order line insert. Every line sets the same columns of
            // the zero-initialised buffer, so it needs no clearing.
            RowView lv(ol_schema, orderLine_);
            lv.setInt(col_.ol_o_id, next_o_id);
            lv.setInt(col_.ol_d_id, static_cast<std::int64_t>(d));
            lv.setInt(col_.ol_w_id, static_cast<std::int64_t>(w));
            lv.setInt(col_.ol_number,
                      static_cast<std::int64_t>(line + 1));
            lv.setInt(col_.ol_i_id, static_cast<std::int64_t>(item));
            lv.setInt(col_.ol_supply_w_id,
                      static_cast<std::int64_t>(w));
            lv.setInt(col_.ol_delivery_d,
                      workload::kDateBase +
                          static_cast<std::int64_t>(ts));
            lv.setInt(col_.ol_quantity, qty);
            lv.setInt(col_.ol_amount, qty * price);
            insertRow(ChTable::OrderLine, orderLine_, ts);
        }
    }

    // Orders + NewOrder inserts.
    {
        const auto &s = db_.table(ChTable::Orders).schema();
        scratch_.assign(s.rowBytes(), 0);
        RowView v(s, scratch_);
        v.setInt(col_.o_id, next_o_id);
        v.setInt(col_.o_d_id, static_cast<std::int64_t>(d));
        v.setInt(col_.o_w_id, static_cast<std::int64_t>(w));
        v.setInt(col_.o_c_id, static_cast<std::int64_t>(c));
        v.setInt(col_.o_entry_d,
                 workload::kDateBase + static_cast<std::int64_t>(ts));
        v.setInt(col_.o_ol_cnt, static_cast<std::int64_t>(
                                    workload::kLinesPerOrder));
        v.setInt(col_.o_all_local, 1);
        insertRow(ChTable::Orders, scratch_, ts);
    }
    {
        const auto &s = db_.table(ChTable::NewOrder).schema();
        scratch_.assign(s.rowBytes(), 0);
        RowView v(s, scratch_);
        v.setInt(col_.no_o_id, next_o_id);
        v.setInt(col_.no_d_id, static_cast<std::int64_t>(d));
        v.setInt(col_.no_w_id, static_cast<std::int64_t>(w));
        insertRow(ChTable::NewOrder, scratch_, ts);
    }

    commit();
    releaseGates(ts);
    ++stats_.transactions;
    ++stats_.newOrders;
}

} // namespace pushtap::txn
