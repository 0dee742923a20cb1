#pragma once

/**
 * @file
 * The batch engine's one hash-table family: an open-addressing table
 * over inline int-tuple keys, radix-partitioned on the key hash's top
 * bits.
 *
 * Every hashed structure of the batch engine is a FlatTable:
 *  - group-by accumulators and scalar-subquery results: `slots`
 *    fixed-width int64 accumulators plus a row count per key;
 *  - inner-join builds: one slot holding the key's offset into a
 *    contiguous payload array, the count holding its tuple count;
 *  - semi/anti existence sets (simd::FlatKeySet): zero slots.
 *
 * Keys, slots and counts live in dense per-partition arrays behind a
 * uint32 entry index; the open-addressing index holds (hash tag,
 * entry + 1) words, so most probe misses never touch the key array.
 * Entries are numbered in insertion order and never move. Partitions
 * are independent tables, which is what lets per-worker partials
 * merge partition by partition in parallel.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace pushtap::olap {

/**
 * Inline composite key: join, group and subquery keys hashed as
 * whole int tuples (no per-row byte-string building). Capacity
 * bounds the batch engine; wider plans fall back to the scalar
 * executor.
 */
struct InlineKey
{
    static constexpr std::size_t kMaxKeys = 8;

    std::array<std::int64_t, kMaxKeys> v{};
    std::uint32_t n = 0;

    bool
    operator==(const InlineKey &o) const
    {
        if (n != o.n)
            return false;
        for (std::uint32_t i = 0; i < n; ++i)
            if (v[i] != o.v[i])
                return false;
        return true;
    }

    /** Lexicographic over the used slots (== std::map<vector> order
     *  of the reference executor when every key has the same
     *  arity). */
    bool
    operator<(const InlineKey &o) const
    {
        for (std::uint32_t i = 0; i < n && i < o.n; ++i)
            if (v[i] != o.v[i])
                return v[i] < o.v[i];
        return n < o.n;
    }
};

/** Hash of an @p n-int key tuple: SplitMix64-style mixing per
 *  component, FNV-style fold. */
inline std::uint64_t
hashKey(const std::int64_t *v, std::uint32_t n)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull + n;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t x = static_cast<std::uint64_t>(v[i]);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        h = (h ^ x) * 0x100000001b3ull;
    }
    return h;
}

struct InlineKeyHash
{
    std::size_t
    operator()(const InlineKey &k) const
    {
        return static_cast<std::size_t>(hashKey(k.v.data(), k.n));
    }
};

/** Radix partitions per table (power of two). */
inline constexpr std::size_t kTablePartitions = 16;

/** Partition of a key hash: its top bits, so partitioning never
 *  correlates with the in-partition slot (the low bits). */
inline std::size_t
partitionOf(std::uint64_t h)
{
    return static_cast<std::size_t>(h >> 60) & (kTablePartitions - 1);
}

class FlatTable
{
  public:
    static constexpr std::uint32_t kNone =
        std::numeric_limits<std::uint32_t>::max();

    /** One radix partition: an independent open-addressing table. */
    class Part
    {
      public:
        std::uint32_t size() const { return n_; }

        /** Entry of @p key (hash @p h), or kNone. */
        std::uint32_t
        find(const std::int64_t *key, std::uint64_t h) const
        {
            if (n_ == 0)
                return kNone;
            const std::uint64_t tag = h & kTagMask;
            for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
                const std::uint64_t s = index_[i];
                if (s == 0)
                    return kNone;
                const auto e = static_cast<std::uint32_t>(s) - 1;
                if ((s & kTagMask) == tag && keyEquals(e, key))
                    return e;
            }
        }

        /** Entry of @p key (hash @p h), appended with the table's
         *  initial slot values and a zero count when absent. */
        std::uint32_t
        findOrInsert(const std::int64_t *key, std::uint64_t h)
        {
            if ((std::size_t{n_} + 1) * 2 > index_.size())
                rehash(std::max<std::size_t>(16, index_.size() * 2));
            const std::uint64_t tag = h & kTagMask;
            std::size_t i = h & mask_;
            for (;; i = (i + 1) & mask_) {
                const std::uint64_t s = index_[i];
                if (s == 0)
                    break;
                const auto e = static_cast<std::uint32_t>(s) - 1;
                if ((s & kTagMask) == tag && keyEquals(e, key))
                    return e;
            }
            const std::uint32_t e = n_++;
            index_[i] = tag | (std::uint64_t{e} + 1);
            keys_.insert(keys_.end(), key, key + kw_);
            slots_.insert(slots_.end(), init_.begin(), init_.end());
            counts_.push_back(0);
            return e;
        }

        const std::int64_t *
        key(std::uint32_t e) const
        {
            return keys_.data() + std::size_t{e} * kw_;
        }
        std::int64_t *
        slots(std::uint32_t e)
        {
            return slots_.data() + std::size_t{e} * init_.size();
        }
        const std::int64_t *
        slots(std::uint32_t e) const
        {
            return slots_.data() + std::size_t{e} * init_.size();
        }
        std::uint64_t &count(std::uint32_t e) { return counts_[e]; }
        std::uint64_t count(std::uint32_t e) const { return counts_[e]; }

        /** Size the index (and arrays) for @p entries entries. */
        void reserve(std::size_t entries);

      private:
        friend class FlatTable;
        static constexpr std::uint64_t kTagMask = 0xffffffff00000000ull;

        bool
        keyEquals(std::uint32_t e, const std::int64_t *key) const
        {
            const std::int64_t *k = keys_.data() + std::size_t{e} * kw_;
            for (std::uint32_t c = 0; c < kw_; ++c)
                if (k[c] != key[c])
                    return false;
            return true;
        }

        void rehash(std::size_t capacity);

        std::vector<std::uint64_t> index_; ///< 0 = empty.
        std::vector<std::int64_t> keys_;   ///< kw_ per entry.
        std::vector<std::int64_t> slots_;  ///< init_.size() per entry.
        std::vector<std::uint64_t> counts_;
        std::vector<std::int64_t> init_; ///< New entries' slots.
        std::size_t mask_ = 0;
        std::uint32_t n_ = 0;
        std::uint32_t kw_ = 0;
    };

    FlatTable() : FlatTable(0, {}) {}

    /** Table over @p key_width-int keys whose entries carry
     *  init.size() slots, each starting at its init value. */
    FlatTable(std::uint32_t key_width, std::vector<std::int64_t> init);

    std::uint32_t keyWidth() const { return parts_[0].kw_; }
    std::size_t slotCount() const { return parts_[0].init_.size(); }

    /** Entries over all partitions. */
    std::size_t size() const;

    Part &part(std::size_t p) { return parts_[p]; }
    const Part &part(std::size_t p) const { return parts_[p]; }

    /** Where one key lives: its partition and entry (kNone when
     *  absent). */
    struct Ref
    {
        const Part *part;
        std::uint32_t entry;
    };

    /** Locate @p key (absent when of another arity). */
    Ref
    locate(const InlineKey &key) const
    {
        const std::uint64_t h = hashKey(key.v.data(), key.n);
        const Part &p = parts_[partitionOf(h)];
        if (key.n != keyWidth())
            return {&p, kNone};
        return {&p, p.find(key.v.data(), h)};
    }

    bool
    contains(const InlineKey &key) const
    {
        return locate(key).entry != kNone;
    }

    /** Slots of @p key, or nullptr when absent. */
    const std::int64_t *
    findSlots(const InlineKey &key) const
    {
        const Ref r = locate(key);
        return r.entry == kNone ? nullptr : r.part->slots(r.entry);
    }

  private:
    std::array<Part, kTablePartitions> parts_;
};

} // namespace pushtap::olap
