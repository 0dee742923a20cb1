#include "olap/operators.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/worker_pool.hpp"
#include "olap/batch.hpp"
#include "olap/simd_kernels.hpp"
#include "storage/shard_map.hpp"

namespace pushtap::olap {

using storage::Region;

namespace {

/** Two's-complement wrapping sum: expression aggregates can reach
 *  any int64, so Sum folds share the IR's defined wrap semantics
 *  (identical in every executor, no UB at the extremes). */
inline std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

// ==================================================================
// Morsel-driven batch executor.
// ==================================================================

static_assert(InlineKey::kMaxKeys >= kMaxKeyColumns,
              "validated key sets must fit the inline key");

/**
 * Leaf resolution over one morsel's current selection: columns
 * gather lazily through per-column BatchColumnReaders (cached per
 * (morsel, selection) epoch, so one expression referencing a column
 * twice decodes it once), and SubqueryRef nodes resolve their
 * probe-side key columns the same way before probing the
 * materialized lookup.
 */
class MorselExprContext final : public BatchExprContext
{
  public:
    MorselExprContext(const storage::TableStore &store,
                      const QueryPlan *plan,
                      const std::vector<SubqueryResult> *subs)
        : store_(&store), plan_(plan), subs_(subs)
    {
    }

    /** Point the context at a (morsel, selection) pair. Must be
     *  called again after the selection is compacted. */
    void
    begin(const Morsel &m, const SelectionVector &sel)
    {
        morsel_ = &m;
        sel_ = &sel;
        ++epoch_;
    }

    std::size_t
    entries() const override
    {
        return sel_->size();
    }

    std::span<const std::int64_t>
    ints(const ColRef &ref) override
    {
        auto &slot = columnSlot(ref.column);
        if (slot.epoch != epoch_) {
            slot.rd.gatherInts(*morsel_, sel_->span(), slot.batch);
            slot.epoch = epoch_;
        }
        return slot.batch.ints;
    }

    std::span<const std::uint8_t>
    chars(const ColRef &ref, std::uint32_t &width) override
    {
        auto &slot = columnSlot(ref.column);
        if (slot.epoch != epoch_) {
            slot.rd.gatherChars(*morsel_, sel_->span(), slot.batch);
            slot.epoch = epoch_;
        }
        width = slot.rd.column().width;
        return slot.batch.chars;
    }

    /** Dictionary route for LIKE: data-region morsels over a fully
     *  coded column hand back the gathered codes plus a per-pattern
     *  truth table evaluated once against the dictionary. */
    std::optional<DictFilterView>
    dictLike(const ColRef &ref, const std::string &pattern) override
    {
        auto &slot = columnSlot(ref.column);
        if (!slot.rd.dictUsable(*morsel_))
            return std::nullopt;
        if (slot.codeEpoch != epoch_) {
            slot.rd.gatherCodes(*morsel_, sel_->span(), slot.batch);
            slot.codeEpoch = epoch_;
        }
        for (const auto &[pat, lut] : slot.luts)
            if (pat == pattern)
                return DictFilterView{slot.batch.codes, lut};
        const auto *d = slot.rd.dict();
        slot.luts.emplace_back(
            pattern,
            d->matchTable([&](std::span<const std::uint8_t> v) {
                return likeMatch(v, pattern);
            }));
        return DictFilterView{slot.batch.codes,
                              slot.luts.back().second};
    }

    std::span<const std::int64_t>
    likeValues(const Expr &e) override
    {
        const auto dv = dictLike(e.col, e.pattern);
        if (!dv)
            return BatchExprContext::likeValues(e);
        likeScratch_.resize(dv->codes.size());
        for (std::size_t i = 0; i < dv->codes.size(); ++i)
            likeScratch_[i] = dv->lut[dv->codes[i]] != 0 ? 1 : 0;
        return likeScratch_;
    }

    std::span<const std::int64_t>
    subqueryValues(const Expr &ref) override
    {
        if (!plan_ || !subs_)
            fatal("batch expression: subquery reference outside the "
                  "probe filter context");
        const auto &spec = plan_->subqueries[ref.subquery];
        const auto &sub = (*subs_)[ref.subquery];
        // Gather every key column first (each lives in its own
        // slot, so earlier spans stay valid).
        keySpans_.clear();
        for (const auto &key : spec.keys)
            keySpans_.push_back(ints(key));
        const std::size_t n = entries();
        subVals_.resize(n);
        InlineKey k;
        k.n = static_cast<std::uint32_t>(keySpans_.size());
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t c = 0; c < keySpans_.size(); ++c)
                k.v[c] = keySpans_[c][i];
            subVals_[i] = sub.value(k, ref.aggIndex);
        }
        return subVals_;
    }

  private:
    struct Slot
    {
        explicit Slot(BatchColumnReader r) : rd(std::move(r)) {}

        BatchColumnReader rd;
        ColumnBatch batch;
        std::uint64_t epoch = 0;
        std::uint64_t codeEpoch = 0;
        /** LIKE truth tables over the dictionary, per pattern. */
        std::vector<
            std::pair<std::string, std::vector<std::uint32_t>>>
            luts;
    };

    Slot &
    columnSlot(const std::string &column)
    {
        for (auto &s : slots_)
            if (s.first == column)
                return s.second;
        slots_.emplace_back(
            column, Slot(BatchColumnReader(*store_, column)));
        return slots_.back().second;
    }

    const storage::TableStore *store_;
    const QueryPlan *plan_;
    const std::vector<SubqueryResult> *subs_;
    const Morsel *morsel_ = nullptr;
    const SelectionVector *sel_ = nullptr;
    std::uint64_t epoch_ = 0;
    std::vector<std::pair<std::string, Slot>> slots_;
    std::vector<std::span<const std::int64_t>> keySpans_;
    std::vector<std::int64_t> subVals_;
};

/**
 * Pushed-down predicates of one table input as fused selection-
 * vector kernels: each apply() is one pass over the morsel. The
 * closed int-range and char-prefix forms run their specialized
 * kernels first; expression predicates follow as a short-circuit
 * conjunction whose order adapts to the observed per-conjunct
 * selectivity (cheapest-rejection-first; re-sorted every
 * kReorderInterval morsels). Reordering is sound because conjuncts
 * are side-effect free — the surviving selection is order-invariant.
 */
class BatchPredicates
{
  public:
    BatchPredicates(const storage::TableStore &store,
                    const TableInput &input,
                    const QueryPlan *plan = nullptr,
                    const std::vector<SubqueryResult> *subs =
                        nullptr)
        : ctx_(store, plan, subs)
    {
        for (const auto &p : input.intPredicates)
            ints_.push_back(
                {BatchColumnReader(store, p.column), p.lo, p.hi});
        for (const auto &p : input.charPredicates)
            chars_.push_back({BatchColumnReader(store, p.column),
                              p.prefix, p.negate, {}, false});
        for (const auto &e : input.exprPredicates) {
            exprs_.push_back({foldConstants(e), 0, 0});
            order_.push_back(order_.size());
        }
    }

    void
    apply(const Morsel &m, SelectionVector &sel)
    {
        for (const auto &p : ints_) {
            if (sel.empty())
                return;
            p.rd.gatherInts(m, sel.span(), scratch_);
            filterIntRange(scratch_.ints, sel, p.lo, p.hi);
        }
        for (auto &p : chars_) {
            if (sel.empty())
                return;
            // Dictionary route: evaluate the prefix once per
            // distinct value, then filter the (narrower) codes.
            if (p.rd.dictUsable(m)) {
                if (!p.lutBuilt) {
                    p.lut = p.rd.dict()->matchTable(
                        [&p](std::span<const std::uint8_t> v) {
                            return p.prefix.size() <= v.size() &&
                                   std::memcmp(v.data(),
                                               p.prefix.data(),
                                               p.prefix.size()) == 0;
                        });
                    p.lutBuilt = true;
                }
                p.rd.gatherCodes(m, sel.span(), scratch_);
                simd::filterDictCodes(scratch_.codes, sel, p.lut,
                                      p.negate);
                continue;
            }
            p.rd.gatherChars(m, sel.span(), scratch_);
            filterCharPrefix(scratch_.chars, p.rd.column().width,
                             sel, p.prefix, p.negate);
        }
        if (exprs_.empty())
            return;
        maybeReorder();
        ++applies_;
        for (const auto idx : order_) {
            if (sel.empty())
                return;
            auto &c = exprs_[idx];
            // Each conjunct re-gathers over the current (compacted)
            // selection: begin() bumps the context epoch.
            ctx_.begin(m, sel);
            c.seen += sel.size();
            filterExprBatch(*c.expr, ctx_, sel);
            c.kept += sel.size();
        }
    }

    /** Observed (seen, kept) counts per expression conjunct, in the
     *  input's original predicate order — the measured selectivities
     *  the optimizer's per-plan stats cache feeds on. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    conjunctStats() const
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        out.reserve(exprs_.size());
        for (const auto &c : exprs_)
            out.emplace_back(c.seen, c.kept);
        return out;
    }

  private:
    static constexpr std::uint64_t kReorderInterval = 32;

    struct IntPred
    {
        BatchColumnReader rd;
        std::int64_t lo, hi;
    };
    struct CharPred
    {
        BatchColumnReader rd;
        std::string prefix;
        bool negate;
        std::vector<std::uint32_t> lut; ///< Dict truth table.
        bool lutBuilt = false;
    };
    struct ExprConjunct
    {
        ExprPtr expr; ///< Constant-folded.
        std::uint64_t seen, kept;

        double
        passRate() const
        {
            return seen == 0
                       ? 1.0
                       : static_cast<double>(kept) /
                             static_cast<double>(seen);
        }
    };

    void
    maybeReorder()
    {
        if (exprs_.size() < 2 ||
            applies_ % kReorderInterval != 0)
            return;
        std::stable_sort(order_.begin(), order_.end(),
                         [this](std::size_t a, std::size_t b) {
                             return exprs_[a].passRate() <
                                    exprs_[b].passRate();
                         });
    }

    std::vector<IntPred> ints_;
    std::vector<CharPred> chars_;
    std::vector<ExprConjunct> exprs_;
    std::vector<std::size_t> order_;
    std::uint64_t applies_ = 0;
    ColumnBatch scratch_;
    MorselExprContext ctx_;
};

/** Aggregate kinds of a spec list (top-level AggSpec or
 *  SubqueryAgg), in slot order. */
template <typename SpecT>
std::vector<AggKind>
aggKinds(const std::vector<SpecT> &specs)
{
    std::vector<AggKind> kinds;
    kinds.reserve(specs.size());
    for (const auto &a : specs)
        kinds.push_back(a.kind);
    return kinds;
}

/** Accumulator slot a group starts from: the identity of its fold
 *  (Sum 0, Min +inf, Max -inf), so updates and merges need no
 *  first-value check. Only count > 0 groups are ever read back. */
inline std::int64_t
idleValue(AggKind kind)
{
    switch (kind) {
      case AggKind::Min:
        return std::numeric_limits<std::int64_t>::max();
      case AggKind::Max:
        return std::numeric_limits<std::int64_t>::min();
      case AggKind::Sum:
        break;
    }
    return 0;
}

/** Fold one value (or another partial) into an accumulator slot. */
inline void
foldSlot(AggKind kind, std::int64_t &slot, std::int64_t v)
{
    switch (kind) {
      case AggKind::Sum:
        slot = wrapAdd(slot, v);
        break;
      case AggKind::Min:
        slot = std::min(slot, v);
        break;
      case AggKind::Max:
        slot = std::max(slot, v);
        break;
    }
}

/** Empty group table over @p key_width-int keys, one idle slot per
 *  aggregate kind. */
FlatTable
makeGroupTable(std::size_t key_width, const std::vector<AggKind> &kinds)
{
    std::vector<std::int64_t> init;
    init.reserve(kinds.size());
    for (const auto k : kinds)
        init.push_back(idleValue(k));
    return FlatTable(static_cast<std::uint32_t>(key_width),
                     std::move(init));
}

/** Entries below which a merge stays on the calling thread: waking
 *  the pool costs more than folding a few thousand groups. */
constexpr std::size_t kParallelMergeEntries = 4096;

/**
 * The one cross-worker merge: fold every table of @p from into
 * @p into, partition by partition. Partitions are disjoint key
 * ranges, so each is one independent task on @p pool. Every fold
 * step is commutative and associative (wrapping sum, min, max,
 * count), so neither the worker split nor the merge order can show
 * in the folded values.
 */
void
mergeTables(const std::vector<AggKind> &kinds, FlatTable &into,
            const std::vector<const FlatTable *> &from,
            WorkerPool *pool)
{
    const std::uint32_t kw = into.keyWidth();
    auto mergePart = [&](std::size_t p) {
        auto &dst = into.part(p);
        std::size_t bound = dst.size();
        for (const auto *t : from)
            bound += t->part(p).size();
        dst.reserve(bound);
        for (const auto *t : from) {
            const auto &src = t->part(p);
            for (std::uint32_t e = 0; e < src.size(); ++e) {
                const std::int64_t *key = src.key(e);
                const auto d = dst.findOrInsert(key, hashKey(key, kw));
                std::int64_t *slots = dst.slots(d);
                const std::int64_t *add = src.slots(e);
                for (std::size_t a = 0; a < kinds.size(); ++a)
                    foldSlot(kinds[a], slots[a], add[a]);
                dst.count(d) += src.count(e);
            }
        }
    };
    std::size_t entries = 0;
    for (const auto *t : from)
        entries += t->size();
    if (pool && pool->workers() > 1 &&
        entries >= kParallelMergeEntries) {
        pool->parallelFor(kTablePartitions,
                          [&](std::uint32_t, std::size_t p) {
                              mergePart(p);
                          });
    } else {
        for (std::size_t p = 0; p < kTablePartitions; ++p)
            mergePart(p);
    }
}

/** Add one row to @p key's group in @p t: slot a folds val(a). */
template <typename ValFn>
inline void
accumulateGroup(FlatTable &t, const InlineKey &key,
                const std::vector<AggKind> &kinds, ValFn &&val)
{
    const std::uint64_t h = hashKey(key.v.data(), key.n);
    auto &part = t.part(partitionOf(h));
    const auto e = part.findOrInsert(key.v.data(), h);
    std::int64_t *slots = part.slots(e);
    for (std::size_t a = 0; a < kinds.size(); ++a)
        foldSlot(kinds[a], slots[a], val(a));
    ++part.count(e);
}

/**
 * The one materialization tail (executeBatchImpl, materializeGroups):
 * the ungrouped zero placeholder when an ungrouped plan produced no
 * group; otherwise an index permutation sorted over flat sort keys —
 * the ORDER BY values, then the group key ascending, so ORDER BY ties
 * keep ascending key order — cut to plan.limit by partial_sort, with
 * ResultRows built only for the rows kept. Keys are unique, so this
 * is a strict total order and the rows are byte-identical to
 * ascending-key materialization followed by a stable ORDER BY sort
 * and the LIMIT cut.
 */
QueryResult
materializeTable(const QueryPlan &plan, const FlatTable &groups)
{
    QueryResult res;
    const std::size_t n = groups.size();
    const std::size_t na = plan.aggregates.size();
    if (n == 0) {
        if (plan.groupBy.empty())
            res.rows.push_back(
                ResultRow{{}, std::vector<std::int64_t>(na, 0), 0});
        return res;
    }
    const std::uint32_t kw = groups.keyWidth();
    const std::size_t nsk = plan.orderBy.size();
    const std::size_t stride = nsk + kw;
    struct Group
    {
        const std::int64_t *key;
        const std::int64_t *slots;
        std::uint64_t count;
    };
    std::vector<Group> ents;
    ents.reserve(n);
    std::vector<std::int64_t> sk(n * stride);
    for (std::size_t p = 0; p < kTablePartitions; ++p) {
        const auto &part = groups.part(p);
        for (std::uint32_t e = 0; e < part.size(); ++e) {
            const Group g{part.key(e), part.slots(e), part.count(e)};
            std::int64_t *row = sk.data() + ents.size() * stride;
            for (std::size_t j = 0; j < nsk; ++j) {
                const auto &o = plan.orderBy[j];
                switch (o.target) {
                  case SortKey::Target::GroupKey:
                    row[j] = g.key[o.index];
                    break;
                  case SortKey::Target::Aggregate:
                    row[j] = g.slots[o.index];
                    break;
                  case SortKey::Target::Count:
                    row[j] = static_cast<std::int64_t>(g.count);
                    break;
                }
            }
            std::copy(g.key, g.key + kw, row + nsk);
            ents.push_back(g);
        }
    }
    std::vector<char> desc(stride, 0);
    for (std::size_t j = 0; j < nsk; ++j)
        desc[j] = plan.orderBy[j].descending ? 1 : 0;
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; ++i)
        perm[i] = i;
    const auto less = [&](std::uint32_t a, std::uint32_t b) {
        const std::int64_t *x = sk.data() + a * stride;
        const std::int64_t *y = sk.data() + b * stride;
        for (std::size_t j = 0; j < stride; ++j)
            if (x[j] != y[j])
                return desc[j] ? x[j] > y[j] : x[j] < y[j];
        return false;
    };
    const std::size_t keep =
        plan.limit == 0 ? n : std::min<std::size_t>(n, plan.limit);
    if (keep < n)
        std::partial_sort(perm.begin(),
                          perm.begin() +
                              static_cast<std::ptrdiff_t>(keep),
                          perm.end(), less);
    else
        std::sort(perm.begin(), perm.end(), less);
    res.rows.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
        const Group &g = ents[perm[i]];
        res.rows.push_back(
            ResultRow{std::vector<std::int64_t>(g.key, g.key + kw),
                      std::vector<std::int64_t>(g.slots, g.slots + na),
                      g.count});
    }
    return res;
}

/**
 * Walk one scan task of a sharded table pass: a shard map of S
 * shards yields 2S tasks — tasks [0, S) are the shards' data-region
 * ranges, tasks [S, 2S) their delta-region ranges. Consuming
 * per-task output in task order therefore reproduces
 * forEachMorsel's serial row order (all data rows ascending, then
 * all delta rows ascending) regardless of which worker ran which
 * task.
 */
template <typename Fn>
void
forEachMorselInScanTask(const storage::ShardMap &smap,
                        std::size_t task, std::uint32_t morsel_rows,
                        Fn &&fn)
{
    const bool data = task < smap.shards();
    const auto &r = smap.range(static_cast<std::uint32_t>(
        data ? task : task - smap.shards()));
    if (data)
        forEachMorselInRange(Region::Data, r.dataBegin, r.dataEnd,
                             morsel_rows, fn);
    else
        forEachMorselInRange(Region::Delta, r.deltaBegin, r.deltaEnd,
                             morsel_rows, fn);
}

/**
 * Scalar-subquery pre-pass, morsel-driven mechanisation: the source
 * table streams through the same selection-vector kernels as any
 * probe, group keys decode once per morsel, and aggregate-input
 * expressions evaluate column-at-a-time. Sharded over the worker
 * pool like a probe pipeline: each worker drains whole scan tasks
 * (shard x region ranges of the source table) into a private partial
 * group table, and the partials fold partition by partition
 * (mergeTables) straight into the SubqueryResult the probes read.
 * Exact integer folds, commutative and associative, so the result is
 * identical for every workers x shards split.
 */
std::vector<SubqueryResult>
materializeSubqueriesBatch(const txn::Database &db,
                           const QueryPlan &plan,
                           const ExecOptions &opts, WorkerPool *pool)
{
    std::vector<SubqueryResult> out(plan.subqueries.size());
    for (std::size_t s = 0; s < plan.subqueries.size(); ++s) {
        const auto &spec = plan.subqueries[s];
        const auto &tbl = db.table(spec.source.table);
        const auto &store = tbl.store();

        /** Per-worker scan state: private readers, predicate chain
         *  and partial group accumulators (built lazily on the
         *  worker's first claimed task). */
        const auto kinds = aggKinds(spec.aggs);
        struct SubWorker
        {
            SubWorker(const storage::TableStore &st,
                      const SubquerySpec &sp,
                      const std::vector<AggKind> &kinds)
                : preds(st, sp.source), ctx(st, nullptr, nullptr),
                  groups(makeGroupTable(sp.groupBy.size(), kinds))
            {
                for (const auto &col : sp.groupBy)
                    keyRd.emplace_back(st, col);
                for (const auto &agg : sp.aggs)
                    inputs.push_back(foldConstants(agg.value));
                keys.resize(keyRd.size());
                vals.resize(inputs.size());
            }
            BatchPredicates preds;
            std::vector<BatchColumnReader> keyRd;
            std::vector<ExprPtr> inputs;
            MorselExprContext ctx;
            SelectionVector sel;
            std::vector<ColumnBatch> keys;
            std::vector<std::vector<std::int64_t>> vals;
            FlatTable groups;
        };

        const storage::ShardMap smap = tbl.shardMap(opts.shards);
        const std::size_t tasks = 2 * smap.shards();
        const std::uint32_t nworkers = pool ? pool->workers() : 1;
        std::vector<std::optional<SubWorker>> states(nworkers);
        auto stateFor = [&](std::uint32_t w) -> SubWorker & {
            if (!states[w])
                states[w].emplace(store, spec, kinds);
            return *states[w];
        };

        auto processMorsel = [&](SubWorker &st, const Morsel &m) {
            visibleRows(store, m, st.sel);
            st.preds.apply(m, st.sel);
            if (st.sel.empty())
                return;
            for (std::size_t c = 0; c < st.keyRd.size(); ++c)
                st.keyRd[c].gatherInts(m, st.sel.span(),
                                       st.keys[c]);
            st.ctx.begin(m, st.sel);
            for (std::size_t a = 0; a < st.inputs.size(); ++a)
                evalExprBatch(*st.inputs[a], st.ctx, st.vals[a]);
            InlineKey key;
            key.n = static_cast<std::uint32_t>(st.keyRd.size());
            for (std::size_t i = 0; i < st.sel.size(); ++i) {
                for (std::size_t c = 0; c < st.keyRd.size(); ++c)
                    key.v[c] = st.keys[c].ints[i];
                accumulateGroup(st.groups, key, kinds,
                                [&](std::size_t a) {
                                    return st.vals[a][i];
                                });
            }
        };

        if (pool && nworkers > 1) {
            pool->parallelFor(
                tasks, [&](std::uint32_t w, std::size_t t) {
                    forEachMorselInScanTask(
                        smap, t, opts.morselRows,
                        [&](const Morsel &m) {
                            processMorsel(stateFor(w), m);
                        });
                });
        } else {
            for (std::size_t t = 0; t < tasks; ++t)
                forEachMorselInScanTask(
                    smap, t, opts.morselRows, [&](const Morsel &m) {
                        processMorsel(stateFor(0), m);
                    });
        }

        auto &merged = stateFor(0).groups;
        std::vector<const FlatTable *> partials;
        for (std::size_t w = 1; w < states.size(); ++w)
            if (states[w])
                partials.push_back(&states[w]->groups);
        mergeTables(kinds, merged, partials, pool);
        out[s].groups = std::move(merged);
    }
    return out;
}

/**
 * Leaf resolution over pre-gathered value vectors (the post-join
 * expanded entries, or the fused pass's probe batches): aggregate
 * expressions are integer-only and subquery-free by validation, so
 * only ints() resolves.
 */
class RefVecExprContext final : public BatchExprContext
{
  public:
    void
    reset(std::size_t n)
    {
        n_ = n;
        refs_.clear();
        likes_.clear();
    }

    void
    add(const ColRef &ref, std::span<const std::int64_t> vals)
    {
        refs_.emplace_back(ref, vals);
    }

    /** Register the pre-evaluated 0/1 vector of one LIKE node. */
    void
    addLike(const Expr *node, std::span<const std::int64_t> vals)
    {
        likes_.emplace_back(node, vals);
    }

    std::size_t
    entries() const override
    {
        return n_;
    }

    std::span<const std::int64_t>
    ints(const ColRef &ref) override
    {
        for (const auto &[r, vals] : refs_)
            if (r == ref)
                return vals;
        fatal("batch aggregate expression: unresolved column {}",
              ref.column);
    }

    std::span<const std::uint8_t>
    chars(const ColRef &ref, std::uint32_t &) override
    {
        fatal("batch aggregate expression: no char payload for {} "
              "(LIKE resolves through pre-evaluated vectors)",
              ref.column);
    }

    /** LIKE nodes resolve to vectors evaluated over the probe
     *  morsel (dictionary-accelerated when possible) and mapped
     *  through the join expansion, keyed by node identity. */
    std::span<const std::int64_t>
    likeValues(const Expr &e) override
    {
        for (const auto &[node, vals] : likes_)
            if (node == &e)
                return vals;
        fatal("batch aggregate expression: unresolved LIKE over {}",
              e.col.column);
    }

    std::span<const std::int64_t>
    subqueryValues(const Expr &) override
    {
        fatal("batch aggregate expression: subquery references are "
              "predicate-only");
    }

  private:
    std::size_t n_ = 0;
    std::vector<std::pair<ColRef, std::span<const std::int64_t>>>
        refs_;
    std::vector<
        std::pair<const Expr *, std::span<const std::int64_t>>>
        likes_;
};

/**
 * One inner join's built hash table: a FlatTable whose slot 0 holds
 * each key's first tuple in its partition's contiguous payload array
 * (payw ints per tuple) and whose count holds the key's tuple count.
 * A key's tuples sit in the serial scan's row order. Built once by
 * the partitioned parallel build, then probed strictly read-only by
 * every worker.
 */
struct BatchBuildSide
{
    FlatTable table;
    std::array<std::vector<std::int64_t>, kTablePartitions> payload;
    std::size_t payw = 0;

    /** First matching tuple and the match count ({nullptr, 0} when
     *  @p k has no match). */
    std::pair<const std::int64_t *, std::uint64_t>
    find(const InlineKey &k) const
    {
        const std::uint64_t h = hashKey(k.v.data(), k.n);
        const std::size_t p = partitionOf(h);
        const auto &part = table.part(p);
        const auto e = part.find(k.v.data(), h);
        if (e == FlatTable::kNone)
            return {nullptr, 0};
        return {payload[p].data() +
                    static_cast<std::size_t>(part.slots(e)[0]) * payw,
                part.count(e)};
    }
};

/** ColRef resolved for the batch probe: an index into the morsel's
 *  gathered probe columns, or a payload slot of an earlier join. */
struct BatchRef
{
    int side = ColRef::kProbe;
    std::size_t idx = 0;
};

/**
 * Dense aggregation for fused plans with one Int group key whose
 * value domain stays small (Q1's ol_number, Q9-style warehouse ids):
 * accumulators are flat arrays indexed by (key - lo), updated
 * column-at-a-time with no per-row hashing. Falls back (spills to
 * the group table) when the observed domain exceeds kMaxDomain.
 */
class DenseGroupAggregator
{
  public:
    static constexpr std::int64_t kMaxDomain = 4096;

    explicit DenseGroupAggregator(const std::vector<AggSpec> &specs)
        : kinds_(aggKinds(specs))
    {
        aggs_.resize(kinds_.size());
    }

    /**
     * Fold one morsel's group keys and aggregate columns (all
     * parallel to the surviving selection) into the dense arrays.
     * Returns false — leaving this morsel unconsumed — when the key
     * domain would exceed kMaxDomain.
     */
    bool
    accumulate(std::span<const std::int64_t> gvals,
               const std::vector<std::span<const std::int64_t>>
                   &avals)
    {
        if (gvals.empty())
            return true;
        std::int64_t mlo = gvals[0], mhi = gvals[0];
        for (const auto v : gvals) {
            mlo = std::min(mlo, v);
            mhi = std::max(mhi, v);
        }
        if (!ensureRange(mlo, mhi))
            return false;
        const std::int64_t lo = lo_;
        for (std::size_t a = 0; a < kinds_.size(); ++a) {
            auto *slots = aggs_[a].data();
            const auto vals = avals[a];
            switch (kinds_[a]) {
              case AggKind::Sum:
                for (std::size_t i = 0; i < gvals.size(); ++i) {
                    auto &s = slots[gvals[i] - lo];
                    s = wrapAdd(s, vals[i]);
                }
                break;
              case AggKind::Min:
                for (std::size_t i = 0; i < gvals.size(); ++i) {
                    auto &s = slots[gvals[i] - lo];
                    s = std::min(s, vals[i]);
                }
                break;
              case AggKind::Max:
                for (std::size_t i = 0; i < gvals.size(); ++i) {
                    auto &s = slots[gvals[i] - lo];
                    s = std::max(s, vals[i]);
                }
                break;
            }
        }
        auto *counts = count_.data();
        for (const auto v : gvals)
            ++counts[v - lo];
        return true;
    }

    /** Fold the non-empty groups into the generic group table. */
    void
    spill(FlatTable &groups) const
    {
        for (std::size_t i = 0; i < count_.size(); ++i) {
            if (count_[i] == 0)
                continue;
            const std::int64_t key = lo_ + static_cast<std::int64_t>(i);
            const std::uint64_t h = hashKey(&key, 1);
            auto &part = groups.part(partitionOf(h));
            const auto e = part.findOrInsert(&key, h);
            std::int64_t *slots = part.slots(e);
            for (std::size_t a = 0; a < kinds_.size(); ++a)
                foldSlot(kinds_[a], slots[a], aggs_[a][i]);
            part.count(e) += count_[i];
        }
    }

  private:
    /** Grow (and re-base) the arrays to cover [lo, hi]. */
    bool
    ensureRange(std::int64_t lo, std::int64_t hi)
    {
        if (count_.empty()) {
            if (hi - lo + 1 > kMaxDomain)
                return false;
            lo_ = lo;
            resizeTo(static_cast<std::size_t>(hi - lo + 1), 0);
            return true;
        }
        const std::int64_t new_lo = std::min(lo, lo_);
        const std::int64_t new_hi = std::max(
            hi, lo_ + static_cast<std::int64_t>(count_.size()) - 1);
        if (new_hi - new_lo + 1 > kMaxDomain)
            return false;
        if (new_lo == lo_ &&
            new_hi < lo_ + static_cast<std::int64_t>(count_.size()))
            return true;
        const auto front =
            static_cast<std::size_t>(lo_ - new_lo);
        resizeTo(static_cast<std::size_t>(new_hi - new_lo + 1),
                 front);
        lo_ = new_lo;
        return true;
    }

    void
    resizeTo(std::size_t n, std::size_t front)
    {
        std::vector<std::uint64_t> counts(n, 0);
        std::copy(count_.begin(), count_.end(),
                  counts.begin() + static_cast<std::ptrdiff_t>(front));
        count_ = std::move(counts);
        for (std::size_t a = 0; a < aggs_.size(); ++a) {
            // Idle slots (idleValue): updates need no count
            // check, and only count>0 slots are ever read back.
            std::vector<std::int64_t> slots(n,
                                            idleValue(kinds_[a]));
            std::copy(aggs_[a].begin(), aggs_[a].end(),
                      slots.begin() +
                          static_cast<std::ptrdiff_t>(front));
            aggs_[a] = std::move(slots);
        }
    }

    std::int64_t lo_ = 0;
    std::vector<AggKind> kinds_;
    std::vector<std::uint64_t> count_;
    std::vector<std::vector<std::int64_t>> aggs_; ///< [agg][group].
};

PlanExecution
executeBatchImpl(const txn::Database &db, const QueryPlan &plan,
                 const ExecOptions &opts, WorkerPool *pool)
{
    const auto &probe_tbl = db.table(plan.probe.table);
    const auto &probe_store = probe_tbl.store();

    using Clock = std::chrono::steady_clock;
    const auto phaseNs = [](Clock::time_point a,
                            Clock::time_point b) {
        return std::chrono::duration<double, std::nano>(b - a)
            .count();
    };
    const auto t_start = Clock::now();

    // Scalar-subquery pre-pass: materialized through the sharded
    // morsel pipeline before the fan-out, then probed strictly
    // read-only by every worker's predicate chain.
    const auto subqueries =
        materializeSubqueriesBatch(db, plan, opts, pool);
    const auto t_subq = Clock::now();

    // Build phase: partitioned parallel build of each join's hash
    // table. Workers scan whole scan tasks (shard x region ranges
    // of the build input) through the normal morsel pipeline into
    // per-task partial partitions keyed by the top bits of the key
    // hash; the stitch then walks each partition's chunks in task
    // order — exactly the serial scan's row order — so every key's
    // tuples (and therefore inner-join match expansion) stay
    // byte-identical to the serial build. Built once here, then
    // probed strictly read-only by every worker.
    std::vector<BatchBuildSide> builds(plan.joins.size());
    std::vector<simd::FlatKeySet> exist_sets(plan.joins.size());
    for (std::size_t k = 0; k < plan.joins.size(); ++k) {
        const auto &join = plan.joins[k];
        const auto &btbl = db.table(join.build.table);
        const auto &store = btbl.store();
        const bool inner = join.kind == JoinKind::Inner;
        const std::size_t keyw = join.keys.size();
        const std::size_t payw = inner ? join.payload.size() : 0;

        /** Per-worker build-scan state: private readers and
         *  predicate chain, built lazily on the worker's first
         *  claimed task. */
        struct BuildWorker
        {
            BuildWorker(const storage::TableStore &st,
                        const JoinSpec &jn)
                : preds(st, jn.build)
            {
                for (const auto &[build_col, ref] : jn.keys) {
                    (void)ref;
                    keyRd.emplace_back(st, build_col);
                }
                if (jn.kind == JoinKind::Inner)
                    for (const auto &col : jn.payload)
                        payRd.emplace_back(st, col);
                keys.resize(keyRd.size());
                pays.resize(payRd.size());
            }
            BatchPredicates preds;
            std::vector<BatchColumnReader> keyRd, payRd;
            SelectionVector sel;
            std::vector<ColumnBatch> keys, pays;
        };

        /** One (task, partition) cell: surviving build keys (keyw
         *  ints each) and their hashes in scan order, payload values
         *  flattened payw-at-a-time alongside. */
        struct BuildChunk
        {
            std::vector<std::int64_t> keys;
            std::vector<std::uint64_t> hashes;
            std::vector<std::int64_t> vals;
        };

        const storage::ShardMap bmap = btbl.shardMap(opts.shards);
        const std::size_t tasks = 2 * bmap.shards();
        const std::uint32_t nworkers = pool ? pool->workers() : 1;
        std::vector<std::optional<BuildWorker>> bstates(nworkers);
        auto bstateFor = [&](std::uint32_t w) -> BuildWorker & {
            if (!bstates[w])
                bstates[w].emplace(store, join);
            return *bstates[w];
        };
        std::vector<std::array<BuildChunk, kTablePartitions>> cells(
            tasks);

        auto scanTask = [&](std::uint32_t w, std::size_t t) {
            auto &bw = bstateFor(w);
            auto &out_cells = cells[t];
            forEachMorselInScanTask(
                bmap, t, opts.morselRows, [&](const Morsel &m) {
                    visibleRows(store, m, bw.sel);
                    bw.preds.apply(m, bw.sel);
                    if (bw.sel.empty())
                        return;
                    for (std::size_t c = 0; c < bw.keyRd.size();
                         ++c)
                        bw.keyRd[c].gatherInts(m, bw.sel.span(),
                                               bw.keys[c]);
                    for (std::size_t c = 0; c < bw.payRd.size();
                         ++c)
                        bw.payRd[c].gatherInts(m, bw.sel.span(),
                                               bw.pays[c]);
                    std::int64_t hk[InlineKey::kMaxKeys] = {};
                    for (std::size_t i = 0; i < bw.sel.size();
                         ++i) {
                        for (std::size_t c = 0; c < keyw; ++c)
                            hk[c] = bw.keys[c].ints[i];
                        const std::uint64_t h = hashKey(
                            hk, static_cast<std::uint32_t>(keyw));
                        auto &cell = out_cells[partitionOf(h)];
                        cell.keys.insert(cell.keys.end(), hk,
                                         hk + keyw);
                        cell.hashes.push_back(h);
                        for (std::size_t c = 0; c < payw; ++c)
                            cell.vals.push_back(bw.pays[c].ints[i]);
                    }
                });
        };
        auto perPartition = [&](auto &&fn) {
            if (pool && nworkers > 1) {
                pool->parallelFor(kTablePartitions,
                                  [&](std::uint32_t, std::size_t p) {
                                      fn(p);
                                  });
            } else {
                for (std::size_t p = 0; p < kTablePartitions; ++p)
                    fn(p);
            }
        };
        if (pool && nworkers > 1) {
            pool->parallelFor(tasks, scanTask);
        } else {
            for (std::size_t t = 0; t < tasks; ++t)
                scanTask(0, t);
        }

        // Stitch: each partition (owned by exactly one task, so the
        // tables build race-free) walks its chunks in task order.
        // Semi/anti joins only insert the keys — the existence set
        // dedupes. Inner joins count tuples per key, lay the keys'
        // tuple ranges out in entry order, then scatter the tuples
        // into their ranges in the same task order.
        if (!inner) {
            exist_sets[k] =
                simd::FlatKeySet(static_cast<std::uint32_t>(keyw));
            perPartition([&](std::size_t p) {
                auto &part = exist_sets[k].part(p);
                for (std::size_t t = 0; t < tasks; ++t) {
                    const auto &cell = cells[t][p];
                    for (std::size_t i = 0; i < cell.hashes.size();
                         ++i)
                        part.findOrInsert(cell.keys.data() + i * keyw,
                                          cell.hashes[i]);
                }
            });
            continue;
        }
        auto &side = builds[k];
        side.table = FlatTable(static_cast<std::uint32_t>(keyw), {0});
        side.payw = payw;
        perPartition([&](std::size_t p) {
            auto &part = side.table.part(p);
            std::vector<std::uint32_t> entry_of;
            for (std::size_t t = 0; t < tasks; ++t) {
                const auto &cell = cells[t][p];
                for (std::size_t i = 0; i < cell.hashes.size(); ++i) {
                    const auto e = part.findOrInsert(
                        cell.keys.data() + i * keyw, cell.hashes[i]);
                    ++part.count(e);
                    entry_of.push_back(e);
                }
            }
            std::vector<std::uint64_t> cursor(part.size());
            std::uint64_t next = 0;
            for (std::uint32_t e = 0; e < part.size(); ++e) {
                part.slots(e)[0] = static_cast<std::int64_t>(next);
                cursor[e] = next;
                next += part.count(e);
            }
            if (payw == 0)
                return;
            auto &pay = side.payload[p];
            pay.resize(next * payw);
            std::size_t row = 0;
            for (std::size_t t = 0; t < tasks; ++t) {
                const auto &vals = cells[t][p].vals;
                for (std::size_t i = 0; i * payw < vals.size(); ++i)
                    std::copy_n(vals.data() + i * payw, payw,
                                pay.data() +
                                    cursor[entry_of[row++]]++ * payw);
            }
        });
    }
    const auto t_build = Clock::now();

    // Probe-side references: every referenced probe column is
    // gathered exactly once per morsel (per worker), shared across
    // join keys, group keys and aggregates. Only the slot -> column
    // assignment is shared; each worker owns its readers and
    // batches.
    std::vector<std::string> probe_cols;
    std::unordered_map<std::string, std::size_t> probe_slot;
    auto probeColumn = [&](const std::string &col) {
        const auto [it, fresh] =
            probe_slot.try_emplace(col, probe_cols.size());
        if (fresh)
            probe_cols.push_back(col);
        return it->second;
    };
    auto makeRef = [&](const ColRef &ref) {
        if (ref.side == ColRef::kProbe)
            return BatchRef{ColRef::kProbe,
                            probeColumn(ref.column)};
        const auto &payload =
            plan.joins[static_cast<std::size_t>(ref.side)].payload;
        return BatchRef{
            ref.side,
            static_cast<std::size_t>(
                std::find(payload.begin(), payload.end(),
                          ref.column) -
                payload.begin())};
    };
    std::vector<std::vector<BatchRef>> join_key_refs(
        plan.joins.size());
    for (std::size_t k = 0; k < plan.joins.size(); ++k)
        for (const auto &[build_col, ref] : plan.joins[k].keys) {
            (void)build_col;
            join_key_refs[k].push_back(makeRef(ref));
        }
    std::vector<BatchRef> group_refs;
    for (const auto &key : plan.groupBy)
        group_refs.push_back(makeRef(key));
    // Aggregate inputs: a plain column slot, or a constant-folded
    // expression with every referenced column resolved to its slot
    // (probe) or payload index (earlier inner joins).
    struct BatchAggInput
    {
        ExprPtr expr; ///< Null for the plain-column form.
        BatchRef ref; ///< Plain column (expr == nullptr).
        std::vector<std::pair<ColRef, BatchRef>> exprRefs;
        /** Probe-side LIKE leaves (by node identity) and their
         *  slots in the per-worker pre-evaluated vectors. */
        std::vector<const Expr *> likes;
        std::vector<std::size_t> likeSlots;
    };
    auto collectLikes = [](const Expr &e, auto &&self,
                           std::vector<const Expr *> &out) -> void {
        if (e.op == ExprOp::Like) {
            out.push_back(&e);
            return;
        }
        for (const auto &k : e.kids)
            self(*k, self, out);
    };
    std::vector<BatchAggInput> agg_inputs;
    std::vector<const Expr *> agg_like_nodes;
    for (const auto &agg : plan.aggregates) {
        BatchAggInput in;
        if (agg.expr) {
            in.expr = foldConstants(agg.expr);
            // Char LIKE targets resolve through pre-evaluated
            // vectors, not the gathered Int batches.
            forEachColumnRef(
                *in.expr,
                [&in, &makeRef](const ColRef &ref, bool is_char) {
                    if (is_char)
                        return;
                    for (const auto &[seen, slot] : in.exprRefs)
                        if (seen == ref)
                            return;
                    in.exprRefs.emplace_back(ref, makeRef(ref));
                });
            collectLikes(*in.expr, collectLikes, in.likes);
            for (const auto *l : in.likes) {
                in.likeSlots.push_back(agg_like_nodes.size());
                agg_like_nodes.push_back(l);
            }
        } else {
            in.ref = makeRef(agg.value);
        }
        agg_inputs.push_back(std::move(in));
    }

    // Join classification. Semi/anti joins keyed purely on probe
    // columns are *selection kernels*: each probes the morsel's keys
    // in bulk and compacts the selection like any other predicate,
    // so a plan whose joins are all of that shape still runs its
    // aggregation fused. Inner joins and payload-keyed joins go
    // through the batched match expansion.
    std::vector<char> probe_keyed(plan.joins.size(), 1);
    for (std::size_t k = 0; k < plan.joins.size(); ++k)
        for (const auto &ref : join_key_refs[k])
            if (ref.side != ColRef::kProbe)
                probe_keyed[k] = 0;
    std::vector<std::size_t> filter_joins, descend_joins;
    for (std::size_t k = 0; k < plan.joins.size(); ++k) {
        if (plan.joins[k].kind != JoinKind::Inner && probe_keyed[k])
            filter_joins.push_back(k);
        else
            descend_joins.push_back(k);
    }

    // Columns still needed after the filter-join stage (descend join
    // keys, group keys, aggregate inputs): gathered over the final
    // selection only.
    std::vector<char> late(probe_cols.size(), 0);
    auto markLate = [&](const BatchRef &r) {
        if (r.side == ColRef::kProbe)
            late[r.idx] = 1;
    };
    for (const auto k : descend_joins)
        for (const auto &ref : join_key_refs[k])
            markLate(ref);
    for (const auto &ref : group_refs)
        markLate(ref);
    for (const auto &in : agg_inputs) {
        if (in.expr)
            for (const auto &[cref, bref] : in.exprRefs)
                markLate(bref);
        else
            markLate(in.ref);
    }
    std::vector<std::size_t> late_cols;
    for (std::size_t c = 0; c < probe_cols.size(); ++c)
        if (late[c])
            late_cols.push_back(c);

    const bool no_descend = descend_joins.empty();
    const bool fused_ungrouped = no_descend && group_refs.empty();
    // Single-key grouping goes through the dense aggregator (flat
    // arrays, no per-row hashing) until its key domain spills — in
    // the fused pass and after a join expansion alike.
    const bool dense_grouped = group_refs.size() == 1;
    const auto kinds = aggKinds(plan.aggregates);

    /**
     * Everything one worker touches while draining shards: its own
     * readers, batches, selection, accumulators and join-expansion
     * scratch. Workers never share mutable state; the build tables
     * and the plan context above are read-only during the fan-out.
     */
    struct WorkerState
    {
        WorkerState(const storage::TableStore &store,
                    const QueryPlan &plan,
                    const std::vector<SubqueryResult> *subs,
                    const std::vector<std::string> &cols,
                    const std::vector<AggKind> &kinds,
                    bool dense_grouped)
            : preds(store, plan.probe, &plan, subs),
              aggLikeCtx(store, nullptr, nullptr),
              groups(makeGroupTable(plan.groupBy.size(), kinds)),
              dense(plan.aggregates), denseActive(dense_grouped)
        {
            rd.reserve(cols.size());
            for (const auto &name : cols)
                rd.emplace_back(store, name);
            batches.resize(cols.size());
            bulkKeys.resize(plan.joins.size());
            joinStats.resize(plan.joins.size());
            etup.resize(plan.joins.size());
            etupNext.resize(plan.joins.size());
            gvals.resize(plan.groupBy.size());
            avals.resize(plan.aggregates.size());
            aggExprVals.resize(plan.aggregates.size());
            aggPtrs.resize(plan.aggregates.size());
            for (const auto k : kinds)
                fusedTotal.push_back(idleValue(k));
        }

        BatchPredicates preds;
        std::vector<BatchColumnReader> rd; ///< By probe slot.
        std::vector<ColumnBatch> batches;  ///< By probe slot.
        SelectionVector sel;
        std::vector<std::vector<InlineKey>> bulkKeys;
        // Join match expansion: entry e is (selection index erow[e],
        // payload tuple etup[k][e] per expanded inner join k).
        std::vector<std::uint32_t> erow, erowNext;
        std::vector<std::vector<const std::int64_t *>> etup, etupNext;
        std::vector<std::size_t> activeTup; ///< Expanded inner joins.
        // Group-key / aggregate columns over the expanded entries.
        std::vector<std::vector<std::int64_t>> gvals, avals;
        /** Evaluated aggregate-expression vectors (fused pass). */
        std::vector<std::vector<std::int64_t>> aggExprVals;
        /** Per-ref gathers feeding a post-join expression eval. */
        std::vector<std::vector<std::int64_t>> refScratch;
        /** Aggregate-LIKE machinery: the context evaluating each
         *  LIKE node over the morsel's final selection (dictionary-
         *  accelerated), the per-node 0/1 vectors (parallel to the
         *  selection), and the join-expansion remap scratch. */
        MorselExprContext aggLikeCtx;
        std::vector<std::vector<std::int64_t>> likeVals;
        std::vector<std::vector<std::int64_t>> likeExpand;
        RefVecExprContext exprCtx;
        std::vector<std::span<const std::int64_t>> aggPtrs;
        FlatTable groups;
        /** Ungrouped fused pass: one running accumulator per
         *  aggregate (idle-initialized) and its row count. */
        std::vector<std::int64_t> fusedTotal;
        std::uint64_t fusedCount = 0;
        DenseGroupAggregator dense;
        bool denseActive;
        std::uint64_t visible = 0;
        /** Rows surviving the predicate chain (ExecStats). */
        std::uint64_t filtered = 0;
        /** Per-join observed in/out row flow (ExecStats). */
        std::vector<JoinExecStats> joinStats;
        InlineKey fk; ///< Join probe key, reused across rows.
    };

    /** Group-table accumulation of entries [0, n) via
     *  group_val(g, e) / agg_val(a, e). */
    auto hashAccumulate = [&](WorkerState &st, std::size_t n,
                              auto &&group_val, auto &&agg_val) {
        InlineKey gk;
        gk.n = static_cast<std::uint32_t>(group_refs.size());
        for (std::size_t e = 0; e < n; ++e) {
            for (std::size_t g = 0; g < group_refs.size(); ++g)
                gk.v[g] = group_val(g, e);
            accumulateGroup(st.groups, gk, kinds, [&](std::size_t a) {
                return agg_val(a, e);
            });
        }
    };

    /**
     * Resolve every aggregate input to a value vector parallel to
     * the fused pass's surviving selection: plain columns alias
     * their gathered batch; expressions evaluate column-at-a-time
     * over the probe batches into per-worker scratch.
     */
    /**
     * Evaluate every aggregate LIKE node once over the morsel's
     * final selection (dictionary codes when the column is encoded,
     * raw bytes otherwise) into per-worker 0/1 vectors. The fused
     * pass uses them directly; the join-expansion path remaps them
     * through erow.
     */
    auto computeAggLikes = [&](WorkerState &st, const Morsel &m) {
        if (agg_like_nodes.empty())
            return;
        st.likeVals.resize(agg_like_nodes.size());
        st.aggLikeCtx.begin(m, st.sel);
        for (std::size_t j = 0; j < agg_like_nodes.size(); ++j) {
            const auto vals =
                st.aggLikeCtx.likeValues(*agg_like_nodes[j]);
            st.likeVals[j].assign(vals.begin(), vals.end());
        }
    };

    auto computeFusedAggPtrs = [&](WorkerState &st) {
        for (std::size_t a = 0; a < agg_inputs.size(); ++a) {
            const auto &in = agg_inputs[a];
            if (!in.expr) {
                st.aggPtrs[a] = st.batches[in.ref.idx].ints;
                continue;
            }
            st.exprCtx.reset(st.sel.size());
            for (const auto &[cref, bref] : in.exprRefs)
                st.exprCtx.add(cref, st.batches[bref.idx].ints);
            for (std::size_t j = 0; j < in.likes.size(); ++j)
                st.exprCtx.addLike(in.likes[j],
                                   st.likeVals[in.likeSlots[j]]);
            evalExprBatch(*in.expr, st.exprCtx,
                          st.aggExprVals[a]);
            st.aggPtrs[a] = st.aggExprVals[a];
        }
    };

    auto processMorsel = [&](WorkerState &st, const Morsel &m) {
        if (opts.probeBaselineData != nullptr) {
            // Delta-incremental scan: only rows visible now but not
            // in the caller's baseline bitmaps (the rows appended
            // since the cached frontier) enter the pipeline, and
            // `visible` counts exactly those.
            st.sel.clear();
            const Bitmap &vis = m.reg == Region::Data
                                    ? probe_store.dataVisible()
                                    : probe_store.deltaVisible();
            const Bitmap &base = m.reg == Region::Data
                                     ? *opts.probeBaselineData
                                     : *opts.probeBaselineDelta;
            vis.collectSetBitsExcluding(m.base, m.base + m.count,
                                        base, st.sel.idx);
        } else {
            visibleRows(probe_store, m, st.sel);
        }
        st.visible += st.sel.size();
        st.preds.apply(m, st.sel);
        st.filtered += st.sel.size();

        // Filter joins: bulk-probe the built existence tables and
        // compact the selection in place.
        for (const auto k : filter_joins) {
            if (st.sel.empty())
                break;
            auto &js = st.joinStats[k];
            js.in += st.sel.size();
            const auto &refs = join_key_refs[k];
            for (const auto &ref : refs)
                st.rd[ref.idx].gatherInts(m, st.sel.span(),
                                          st.batches[ref.idx]);
            const auto &exists = exist_sets[k];
            const bool anti =
                plan.joins[k].kind == JoinKind::Anti;
            if (refs.size() == 1) {
                // Bulk probe: vectorized key hashing + compaction.
                exists.filterContains1(
                    st.batches[refs[0].idx].ints, st.sel, anti);
                js.out += st.sel.size();
                continue;
            }
            st.fk.n = static_cast<std::uint32_t>(refs.size());
            std::size_t n = 0;
            for (std::size_t i = 0; i < st.sel.size(); ++i) {
                for (std::size_t c = 0; c < refs.size(); ++c)
                    st.fk.v[c] =
                        st.batches[refs[c].idx].ints[i];
                const bool found = exists.contains(st.fk);
                st.sel.idx[n] = st.sel.idx[i];
                n += static_cast<std::size_t>(found != anti);
            }
            st.sel.idx.resize(n);
            js.out += st.sel.size();
        }
        if (st.sel.empty())
            return;
        for (const auto c : late_cols)
            st.rd[c].gatherInts(m, st.sel.span(), st.batches[c]);
        computeAggLikes(st, m);

        if (fused_ungrouped) {
            // Fused filter+aggregate: column-at-a-time accumulator
            // updates over the surviving selection.
            computeFusedAggPtrs(st);
            for (std::size_t a = 0; a < agg_inputs.size(); ++a) {
                auto &acc = st.fusedTotal[a];
                switch (kinds[a]) {
                  case AggKind::Sum:
                    for (const auto v : st.aggPtrs[a])
                        acc = wrapAdd(acc, v);
                    break;
                  case AggKind::Min:
                    for (const auto v : st.aggPtrs[a])
                        acc = std::min(acc, v);
                    break;
                  case AggKind::Max:
                    for (const auto v : st.aggPtrs[a])
                        acc = std::max(acc, v);
                    break;
                }
            }
            st.fusedCount += st.sel.size();
            return;
        }

        if (no_descend) {
            // Fused grouped pass: every reference is probe-side.
            computeFusedAggPtrs(st);
            if (st.denseActive) {
                if (st.dense.accumulate(
                        st.batches[group_refs[0].idx].ints,
                        st.aggPtrs))
                    return;
                // Key domain outgrew the dense arrays: spill to
                // the group table and continue generically (this
                // morsel included, below).
                st.denseActive = false;
                st.dense.spill(st.groups);
            }
            hashAccumulate(
                st, st.sel.size(),
                [&](std::size_t g, std::size_t e) {
                    return st.batches[group_refs[g].idx].ints[e];
                },
                [&](std::size_t a, std::size_t e) {
                    return st.aggPtrs[a][e];
                });
            return;
        }

        // Bulk-hash the pure-probe descend-join keys for the morsel.
        for (const auto k : descend_joins) {
            if (!probe_keyed[k])
                continue;
            auto &keys = st.bulkKeys[k];
            keys.resize(st.sel.size());
            const auto &refs = join_key_refs[k];
            for (std::size_t i = 0; i < st.sel.size(); ++i) {
                keys[i].n = static_cast<std::uint32_t>(refs.size());
                for (std::size_t c = 0; c < refs.size(); ++c)
                    keys[i].v[c] =
                        st.batches[refs[c].idx].ints[i];
            }
        }

        // Batched match expansion: entries start as the surviving
        // selection; each join either compacts them (semi/anti) or
        // expands every entry into its matching payload tuples
        // (inner), in (row, tuple) order.
        auto &erow = st.erow;
        erow.resize(st.sel.size());
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(st.sel.size()); ++i)
            erow[i] = i;
        st.activeTup.clear();

        for (const auto k : descend_joins) {
            st.joinStats[k].in += erow.size();
            const auto &refs = join_key_refs[k];
            auto keyAt = [&](std::size_t e) -> const InlineKey & {
                if (probe_keyed[k])
                    return st.bulkKeys[k][erow[e]];
                InlineKey &hk = st.fk;
                hk.n = static_cast<std::uint32_t>(refs.size());
                for (std::size_t c = 0; c < refs.size(); ++c) {
                    const auto &r = refs[c];
                    hk.v[c] =
                        r.side == ColRef::kProbe
                            ? st.batches[r.idx].ints[erow[e]]
                            : st.etup[static_cast<std::size_t>(
                                  r.side)][e][r.idx];
                }
                return hk;
            };
            if (plan.joins[k].kind != JoinKind::Inner) {
                const bool anti =
                    plan.joins[k].kind == JoinKind::Anti;
                const auto &exists = exist_sets[k];
                std::size_t n = 0;
                for (std::size_t e = 0; e < erow.size(); ++e) {
                    if (exists.contains(keyAt(e)) == anti)
                        continue;
                    erow[n] = erow[e];
                    for (const auto l : st.activeTup)
                        st.etup[l][n] = st.etup[l][e];
                    ++n;
                }
                erow.resize(n);
                for (const auto l : st.activeTup)
                    st.etup[l].resize(n);
            } else {
                st.erowNext.clear();
                for (const auto l : st.activeTup)
                    st.etupNext[l].clear();
                st.etupNext[k].clear();
                const std::size_t payw = builds[k].payw;
                for (std::size_t e = 0; e < erow.size(); ++e) {
                    const auto [tup, matches] =
                        builds[k].find(keyAt(e));
                    for (std::uint64_t j = 0; j < matches; ++j) {
                        st.erowNext.push_back(erow[e]);
                        for (const auto l : st.activeTup)
                            st.etupNext[l].push_back(st.etup[l][e]);
                        st.etupNext[k].push_back(tup + j * payw);
                    }
                }
                std::swap(erow, st.erowNext);
                for (const auto l : st.activeTup)
                    std::swap(st.etup[l], st.etupNext[l]);
                std::swap(st.etup[k], st.etupNext[k]);
                st.activeTup.push_back(k);
            }
            st.joinStats[k].out += erow.size();
            if (erow.empty())
                return;
        }

        // Gather the group-key and aggregate columns over the
        // expanded entries (column-at-a-time), then accumulate.
        const std::size_t ne = erow.size();
        auto gatherRef = [&](const BatchRef &r,
                             std::vector<std::int64_t> &out) {
            out.resize(ne);
            if (r.side == ColRef::kProbe) {
                const auto &src = st.batches[r.idx].ints;
                for (std::size_t e = 0; e < ne; ++e)
                    out[e] = src[erow[e]];
            } else {
                const auto &tup =
                    st.etup[static_cast<std::size_t>(r.side)];
                for (std::size_t e = 0; e < ne; ++e)
                    out[e] = tup[e][r.idx];
            }
        };
        for (std::size_t g = 0; g < group_refs.size(); ++g)
            gatherRef(group_refs[g], st.gvals[g]);
        for (std::size_t a = 0; a < agg_inputs.size(); ++a) {
            const auto &in = agg_inputs[a];
            if (!in.expr) {
                gatherRef(in.ref, st.avals[a]);
                continue;
            }
            // Gather every column the expression touches over the
            // expanded entries, then evaluate column-at-a-time.
            if (st.refScratch.size() < in.exprRefs.size())
                st.refScratch.resize(in.exprRefs.size());
            st.exprCtx.reset(ne);
            for (std::size_t c = 0; c < in.exprRefs.size(); ++c) {
                gatherRef(in.exprRefs[c].second, st.refScratch[c]);
                st.exprCtx.add(in.exprRefs[c].first,
                               st.refScratch[c]);
            }
            // LIKE vectors were evaluated over the selection; remap
            // them through the expanded entries' source rows.
            if (st.likeExpand.size() < in.likes.size())
                st.likeExpand.resize(in.likes.size());
            for (std::size_t j = 0; j < in.likes.size(); ++j) {
                const auto &src = st.likeVals[in.likeSlots[j]];
                auto &dst = st.likeExpand[j];
                dst.resize(ne);
                for (std::size_t e = 0; e < ne; ++e)
                    dst[e] = src[erow[e]];
                st.exprCtx.addLike(in.likes[j], dst);
            }
            evalExprBatch(*in.expr, st.exprCtx, st.avals[a]);
        }

        if (st.denseActive && dense_grouped) {
            for (std::size_t a = 0; a < agg_inputs.size(); ++a)
                st.aggPtrs[a] = st.avals[a];
            if (st.dense.accumulate(st.gvals[0], st.aggPtrs))
                return;
            st.denseActive = false;
            st.dense.spill(st.groups);
        }
        hashAccumulate(
            st, ne,
            [&](std::size_t g, std::size_t e) {
                return st.gvals[g][e];
            },
            [&](std::size_t a, std::size_t e) {
                return st.avals[a][e];
            });
    };

    // Shard fan-out: the probe table's block-aligned shard ranges
    // are the unit of work; each worker drains whole shards through
    // its private state. Shards are claimed in order, and nothing
    // below depends on which worker ran which shard. States are
    // built lazily on a worker's first claimed shard — a pool sized
    // to the hardware but given fewer shards constructs no more
    // reader sets than shards actually run.
    const storage::ShardMap smap = probe_tbl.shardMap(opts.shards);
    const std::uint32_t nworkers = pool ? pool->workers() : 1;
    std::vector<std::optional<WorkerState>> states(nworkers);
    auto stateFor = [&](std::uint32_t w) -> WorkerState & {
        if (!states[w])
            states[w].emplace(probe_store, plan, &subqueries,
                              probe_cols, kinds, dense_grouped);
        return *states[w];
    };

    auto processShard = [&](WorkerState &st,
                            const storage::ShardRange &r) {
        forEachMorselInRange(
            Region::Data, r.dataBegin, r.dataEnd, opts.morselRows,
            [&](const Morsel &m) { processMorsel(st, m); });
        forEachMorselInRange(
            Region::Delta, r.deltaBegin, r.deltaEnd, opts.morselRows,
            [&](const Morsel &m) { processMorsel(st, m); });
    };
    if (pool && nworkers > 1 && smap.shards() > 1) {
        pool->parallelFor(smap.shards(),
                          [&](std::uint32_t w, std::size_t s) {
                              processShard(
                                  stateFor(w),
                                  smap.range(
                                      static_cast<std::uint32_t>(s)));
                          });
    } else {
        for (std::uint32_t s = 0; s < smap.shards(); ++s)
            processShard(stateFor(0), smap.range(s));
    }
    const auto t_probe = Clock::now();

    // CPU-side merge: fold the per-worker partial tables partition
    // by partition (mergeTables). Every fold is commutative
    // (sum/min/max/count), and the materialization below orders by
    // group key, so the result is byte-identical for any workers x
    // shards split. Workers that never claimed a shard have no state
    // to fold.
    std::vector<WorkerState *> engaged;
    for (auto &st : states)
        if (st)
            engaged.push_back(&*st);
    PlanExecution out;
    out.subqueryNs = phaseNs(t_start, t_subq);
    out.buildNs = phaseNs(t_subq, t_build);
    out.probeNs = phaseNs(t_build, t_probe);
    for (const auto *st : engaged)
        out.rowsVisible += st->visible;
    if (no_descend) {
        // The whole probe pass ran fused (predicates + filter joins
        // + grouping + aggregation in one morsel loop): report how
        // many probe Int columns that single serial pass streamed —
        // probe-keyed semi/anti joins are selection kernels inside
        // the same loop, so they fuse like any other predicate.
        out.fusedScanColumns = static_cast<std::uint32_t>(
            fusedProbeColumns(plan).size());
    }

    // Observed selectivities for the optimizer's stats cache: all
    // deterministic integer sums over the per-worker partials.
    out.stats.probeVisible = out.rowsVisible;
    out.stats.joins.resize(plan.joins.size());
    out.stats.conjuncts.assign(plan.probe.exprPredicates.size(),
                               {0, 0});
    for (const auto *st : engaged) {
        out.stats.probeFiltered += st->filtered;
        for (std::size_t k = 0; k < plan.joins.size(); ++k) {
            out.stats.joins[k].in += st->joinStats[k].in;
            out.stats.joins[k].out += st->joinStats[k].out;
        }
        const auto cs = st->preds.conjunctStats();
        for (std::size_t i = 0; i < cs.size(); ++i) {
            out.stats.conjuncts[i].first += cs[i].first;
            out.stats.conjuncts[i].second += cs[i].second;
        }
    }

    // Bring every worker's partial into its group table — the
    // ungrouped fused total as the empty key's group, a still-dense
    // aggregator by spilling — then fold the tables into the first
    // engaged worker's.
    for (auto *st : engaged) {
        if (fused_ungrouped && st->fusedCount > 0) {
            const std::uint64_t h = hashKey(nullptr, 0);
            auto &part = st->groups.part(partitionOf(h));
            const auto e = part.findOrInsert(nullptr, h);
            std::copy(st->fusedTotal.begin(), st->fusedTotal.end(),
                      part.slots(e));
            part.count(e) = st->fusedCount;
        }
        if (st->denseActive)
            st->dense.spill(st->groups);
    }
    auto &groups = engaged.front()->groups;
    std::vector<const FlatTable *> partials;
    for (std::size_t w = 1; w < engaged.size(); ++w)
        partials.push_back(&engaged[w]->groups);
    mergeTables(kinds, groups, partials, pool);

    out.result = materializeTable(plan, groups);
    // Capture the merged accumulators: the partials a later
    // delta-incremental run folds new rows into.
    if (opts.captureGroups)
        out.groups = std::move(groups);
    out.mergeNs = phaseNs(t_probe, Clock::now());
    return out;
}

} // namespace

void
foldGroups(const QueryPlan &plan, FlatTable &into,
           const FlatTable &from, WorkerPool *pool)
{
    mergeTables(aggKinds(plan.aggregates), into, {&from}, pool);
}

QueryResult
materializeGroups(const QueryPlan &plan, const FlatTable &groups)
{
    return materializeTable(plan, groups);
}

bool
planFusesProbePass(const QueryPlan &plan)
{
    // Mirrors executeBatchImpl's classification exactly: the fused
    // probe pass runs when no join descends — every join is a
    // non-inner join keyed purely on probe columns.
    for (const auto &join : plan.joins) {
        if (join.kind == JoinKind::Inner)
            return false;
        for (const auto &[build_col, ref] : join.keys) {
            (void)build_col;
            if (ref.side != ColRef::kProbe)
                return false;
        }
    }
    return true;
}

PlanExecution
executePlan(const txn::Database &db, const QueryPlan &plan,
            const ExecOptions &opts)
{
    validatePlan(plan);
    if (opts.morselRows == 0 ||
        (opts.morselRows & (opts.morselRows - 1)) != 0)
        fatal("executePlan: morselRows must be a power of two "
              "(got {})",
              opts.morselRows);
    if (opts.shards == 0)
        fatal("executePlan: shard count must be >= 1");
    WorkerPool *pool = opts.pool;
    std::optional<WorkerPool> local;
    // Even a single probe shard profits from a pool now: join
    // builds and subquery pre-passes fan their data/delta scan
    // tasks (and the build stitch) out over it.
    if (!pool) {
        const std::uint32_t w = opts.workers == 0
                                    ? WorkerPool::hardwareWorkers()
                                    : opts.workers;
        if (w > 1)
            pool = &local.emplace(w);
    }
    return executeBatchImpl(db, plan, opts, pool);
}

} // namespace pushtap::olap
