#include "olap/flat_table.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace pushtap::olap {

void
FlatTable::Part::rehash(std::size_t capacity)
{
    if (capacity > (std::size_t{1} << 32))
        fatal("FlatTable: partition outgrew 2^31 entries");
    index_.assign(capacity, 0);
    mask_ = capacity - 1;
    for (std::uint32_t e = 0; e < n_; ++e) {
        const std::uint64_t h = hashKey(key(e), kw_);
        std::size_t i = h & mask_;
        while (index_[i] != 0)
            i = (i + 1) & mask_;
        index_[i] = (h & kTagMask) | (std::uint64_t{e} + 1);
    }
}

void
FlatTable::Part::reserve(std::size_t entries)
{
    const std::size_t cap =
        std::bit_ceil(std::max<std::size_t>(16, entries * 2));
    keys_.reserve(entries * kw_);
    slots_.reserve(entries * init_.size());
    counts_.reserve(entries);
    if (cap > index_.size())
        rehash(cap);
}

FlatTable::FlatTable(std::uint32_t key_width,
                     std::vector<std::int64_t> init)
{
    for (auto &p : parts_) {
        p.kw_ = key_width;
        p.init_ = init;
    }
}

std::size_t
FlatTable::size() const
{
    std::size_t n = 0;
    for (const auto &p : parts_)
        n += p.size();
    return n;
}

} // namespace pushtap::olap
