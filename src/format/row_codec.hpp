#pragma once

/**
 * @file
 * Byte-level data re-layout (section 6.3): converts between a row's
 * canonical packed representation (what the CPU operates on in cache)
 * and its scattered placement across parts/devices in the unified
 * format. Invoked only when loading a row from DRAM and when pushing
 * a modified row back at commit.
 */

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "format/block_circulant.hpp"
#include "format/layout.hpp"

namespace pushtap::format {

/**
 * Batch-decode entry points. Both stream one column for a whole
 * selection of rows laid out with a fixed byte stride — the CPU-side
 * analog of a PIM unit's serial column read, and the primitive the
 * morsel executor builds on. `base` points at the selection's first
 * row's column bytes; row offsets[i]'s value lives at
 * base + offsets[i] * stride.
 */

/** Decode (sign-extending Int columns) into out[0..offsets.size()). */
void decodeIntStride(const Column &col, const std::uint8_t *base,
                     std::size_t stride,
                     std::span<const std::uint32_t> offsets,
                     std::int64_t *out);

/** Copy col.width raw bytes per row into out (offsets.size()*width). */
void gatherCharsStride(const Column &col, const std::uint8_t *base,
                       std::size_t stride,
                       std::span<const std::uint32_t> offsets,
                       std::uint8_t *out);

/**
 * Converts rows between their canonical bytes and the unified
 * placement. The layout is walked once, at construction, into a flat
 * list of byte moves; scatter/gather replay that list for any row,
 * calling the sink/source inline once per move with (part, device,
 * device-local byte offset within the part's region, bytes).
 */
class RowCodec
{
  public:
    RowCodec(const TableLayout &layout, const BlockCirculant &circulant);

    const TableLayout &layout() const { return *layout_; }
    const BlockCirculant &circulant() const { return circulant_; }

    /**
     * Scatter canonical @p row bytes of row @p r to the format:
     * write(part, device, offset, std::span<const std::uint8_t>).
     */
    template <typename Write>
    void
    scatter(RowId r, std::span<const std::uint8_t> row,
            Write &&write) const
    {
        checkRowBuffer("scatter", row.size());
        const std::uint32_t rot = rotation(r);
        for (const Move &m : moves_)
            write(m.part, device(m.slot, rot),
                  static_cast<std::uint64_t>(r) * m.rowWidth +
                      m.slotOffset,
                  row.subspan(m.canonical, m.bytes));
    }

    /**
     * Gather row @p r back into canonical @p row bytes:
     * read(part, device, offset, std::span<std::uint8_t>) fills the
     * span.
     */
    template <typename Read>
    void
    gather(RowId r, Read &&read, std::span<std::uint8_t> row) const
    {
        checkRowBuffer("gather", row.size());
        const std::uint32_t rot = rotation(r);
        for (const Move &m : moves_)
            read(m.part, device(m.slot, rot),
                 static_cast<std::uint64_t>(r) * m.rowWidth +
                     m.slotOffset,
                 row.subspan(m.canonical, m.bytes));
    }

    /**
     * Number of distinct byte moves one row re-layout performs (the
     * CPU-side cost driver of the +3.5% OLTP overhead, Fig. 9(a)).
     */
    std::uint32_t
    fragmentsPerRow() const
    {
        return static_cast<std::uint32_t>(moves_.size());
    }

  private:
    /** One contiguous byte move of a row re-layout. */
    struct Move
    {
        std::uint32_t part;
        std::uint32_t slot;
        std::uint32_t rowWidth;   ///< The part's device-local row stride.
        std::uint32_t canonical;  ///< Offset in the canonical row.
        std::uint32_t slotOffset; ///< Offset inside the row's slot.
        std::uint32_t bytes;
    };

    /** Block-circulant rotation of row @p r, in [0, devices). */
    std::uint32_t
    rotation(RowId r) const
    {
        return static_cast<std::uint32_t>(circulant_.blockOf(r) %
                                          circulant_.devices());
    }

    /** BlockCirculant::deviceFor with the row's rotation hoisted. */
    std::uint32_t
    device(std::uint32_t slot, std::uint32_t rot) const
    {
        const std::uint32_t d = slot + rot;
        return d >= circulant_.devices() ? d - circulant_.devices()
                                         : d;
    }

    void checkRowBuffer(const char *op, std::size_t bytes) const;

    const TableLayout *layout_;
    BlockCirculant circulant_;
    std::vector<Move> moves_;
};

} // namespace pushtap::format
