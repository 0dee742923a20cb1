#pragma once

/**
 * @file
 * Shard partitioning of one table's row space: the data and delta
 * regions are each split into S contiguous ranges modelling
 * independent bank stripes, so per-shard operator pipelines can scan
 * disjoint row ranges and a CPU-side merge consolidates their
 * partial results (the cross-shard execution step of the scale-out
 * plan; Polynesia-style partitioned analytics).
 *
 * Shard boundaries are aligned up to the block-circulant block size,
 * so a shard always owns whole rotation blocks — the unit a bank
 * stripe stores contiguously — and the morsel walk inside a shard
 * sees the same per-block stride segments as the unsharded walk.
 *
 * The same ShardMap drives both the functional executors (which rows
 * each worker scans) and the pricing walk (how many scanned rows
 * each per-shard ScanCost schedule charges), via
 * txn::TableRuntime::shardMap — the two cannot drift.
 */

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace pushtap::storage {

/** Contiguous row ranges of one shard, per region. */
struct ShardRange
{
    RowId dataBegin = 0, dataEnd = 0;
    RowId deltaBegin = 0, deltaEnd = 0;
};

class ShardMap
{
  public:
    /**
     * Partition [0, data_rows) and [0, delta_rows) into @p shards
     * contiguous ranges whose boundaries are multiples of @p align
     * (ends clamped to the region size). shards must be >= 1
     * (fatal otherwise); align 0 behaves like 1.
     */
    ShardMap(std::uint64_t data_rows, std::uint64_t delta_rows,
             std::uint32_t shards, std::uint64_t align = 1);

    std::uint32_t
    shards() const
    {
        return static_cast<std::uint32_t>(ranges_.size());
    }

    const ShardRange &
    range(std::uint32_t s) const
    {
        return ranges_[s];
    }

    /**
     * Shard @p s's share of @p scanned modelled data-region rows,
     * attributed proportionally to the shard's range length (floor;
     * the last shard takes the remainder), so the per-shard counts
     * always sum to @p scanned exactly — including when the pricing
     * walks round delta rows up to whole blocks per rotation class
     * and @p scanned exceeds the partitioned row space. With one
     * shard this is @p scanned itself, bit-for-bit.
     */
    std::uint64_t dataRowsIn(std::uint32_t s,
                             std::uint64_t scanned) const;

    /** Delta-region counterpart of dataRowsIn(). */
    std::uint64_t deltaRowsIn(std::uint32_t s,
                              std::uint64_t scanned) const;

  private:
    template <RowId ShardRange::*Begin, RowId ShardRange::*End>
    std::uint64_t share(std::uint32_t s, std::uint64_t region_rows,
                        std::uint64_t scanned) const;

    std::vector<ShardRange> ranges_;
    std::uint64_t dataRows_;
    std::uint64_t deltaRows_;
};

} // namespace pushtap::storage
