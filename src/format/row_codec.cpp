#include "format/row_codec.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/log.hpp"

namespace pushtap::format {

namespace {

/** Fixed-width little-endian loads the compiler can vectorize. */
template <typename T>
void
decodeFixedStride(const std::uint8_t *base, std::size_t stride,
                  std::span<const std::uint32_t> offsets,
                  std::int64_t *out)
{
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        T v;
        std::memcpy(&v, base + offsets[i] * stride, sizeof(T));
        out[i] = static_cast<std::int64_t>(v);
    }
}

} // namespace

void
decodeIntStride(const Column &col, const std::uint8_t *base,
                std::size_t stride,
                std::span<const std::uint32_t> offsets,
                std::int64_t *out)
{
    if constexpr (std::endian::native == std::endian::little) {
        if (col.type == ColType::Int) {
            switch (col.width) {
              case 1:
                decodeFixedStride<std::int8_t>(base, stride, offsets,
                                               out);
                return;
              case 2:
                decodeFixedStride<std::int16_t>(base, stride, offsets,
                                                out);
                return;
              case 4:
                decodeFixedStride<std::int32_t>(base, stride, offsets,
                                                out);
                return;
              case 8:
                decodeFixedStride<std::int64_t>(base, stride, offsets,
                                                out);
                return;
              default:
                break;
            }
        }
    }
    for (std::size_t i = 0; i < offsets.size(); ++i)
        out[i] = decodeValue(
            col, std::span<const std::uint8_t>(
                     base + offsets[i] * stride, col.width));
}

void
gatherCharsStride(const Column &col, const std::uint8_t *base,
                  std::size_t stride,
                  std::span<const std::uint32_t> offsets,
                  std::uint8_t *out)
{
    for (std::size_t i = 0; i < offsets.size(); ++i)
        std::memcpy(out + i * col.width, base + offsets[i] * stride,
                    col.width);
}

RowCodec::RowCodec(const TableLayout &layout,
                   const BlockCirculant &circulant)
    : layout_(&layout), circulant_(circulant)
{
    const auto &schema = layout.schema();
    const auto &parts = layout.parts();
    for (std::uint32_t p = 0; p < parts.size(); ++p) {
        const Part &part = parts[p];
        if (part.slots.size() > circulant.devices())
            panic("RowCodec: part {} has {} slots for {} devices", p,
                  part.slots.size(), circulant.devices());
        for (std::uint32_t s = 0; s < part.slots.size(); ++s) {
            std::uint32_t off = 0;
            for (const auto &f : part.slots[s].fragments) {
                moves_.push_back(
                    {p, s, part.rowWidth,
                     schema.canonicalOffset(f.column) + f.byteOffset,
                     off, f.byteCount});
                off += f.byteCount;
            }
        }
    }
}

void
RowCodec::checkRowBuffer(const char *op, std::size_t bytes) const
{
    const auto need = layout_->schema().rowBytes();
    if (bytes < need)
        panic("{}: row buffer {} < row bytes {}", op, bytes, need);
}

} // namespace pushtap::format
