// KeyIndex: an open-addressing Key16 -> position index for records kept
// in a caller's flat vector.
//
// Linear probing over a power-of-two table of uint32 positions, at most
// half full. Cells hold positions only: every lookup reads the probed
// positions' keys back through the caller's `key_of(pos)`, so the index
// stores no second copy of a key. Erase is backward-shift deletion (no
// tombstones), so a table that sees steady insert/erase churn never
// degrades or needs a rebuild.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/contracts.hpp"
#include "common/fixed_key.hpp"
#include "common/hash.hpp"

namespace daiet {

class KeyIndex {
public:
    static constexpr std::uint32_t kNone = 0xffffffffU;

    /// Forget every key, with room for `n` before growing.
    void reset(std::size_t n) {
        std::size_t cap = 16;
        while (cap < 2 * n) cap *= 2;
        cells_.assign(cap, kNone);
        size_ = 0;
    }

    std::size_t size() const noexcept { return size_; }

    /// `key`'s position, or kNone.
    template <typename KeyOf>
    std::uint32_t find(const Key16& key, const KeyOf& key_of) const {
        if (cells_.empty()) return kNone;
        const std::size_t mask = cells_.size() - 1;
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            if (cells_[i] == kNone || key_of(cells_[i]) == key) return cells_[i];
        }
    }

    /// `key`'s position; records `pos` for it first when absent (the
    /// caller then stores the record at `pos`).
    template <typename KeyOf>
    std::uint32_t emplace(const Key16& key, std::uint32_t pos, const KeyOf& key_of) {
        if (2 * (size_ + 1) > cells_.size()) {
            const std::vector<std::uint32_t> old = std::move(cells_);
            reset(size_ + 1);
            for (const std::uint32_t p : old) {
                if (p != kNone) emplace(key_of(p), p, key_of);
            }
        }
        const std::size_t mask = cells_.size() - 1;
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            if (cells_[i] == kNone) {
                cells_[i] = pos;
                ++size_;
                return pos;
            }
            if (key_of(cells_[i]) == key) return cells_[i];
        }
    }

    /// Forget `key`, which must be present.
    template <typename KeyOf>
    void erase(const Key16& key, const KeyOf& key_of) {
        const std::size_t mask = cells_.size() - 1;
        std::size_t hole = home(key);
        for (;; hole = (hole + 1) & mask) {
            DAIET_EXPECTS(cells_[hole] != kNone);
            if (key_of(cells_[hole]) == key) break;
        }
        // Pull each later member of the probe run whose home does not
        // lie cyclically in (hole, j] back into the hole, so every
        // remaining key stays reachable from its home.
        for (std::size_t j = (hole + 1) & mask; cells_[j] != kNone; j = (j + 1) & mask) {
            if (((j - home(key_of(cells_[j]))) & mask) >= ((j - hole) & mask)) {
                cells_[hole] = cells_[j];
                hole = j;
            }
        }
        cells_[hole] = kNone;
        --size_;
    }

private:
    std::size_t home(const Key16& key) const noexcept {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        std::memcpy(&lo, key.bytes().data(), sizeof lo);
        std::memcpy(&hi, key.bytes().data() + sizeof lo, sizeof hi);
        return static_cast<std::size_t>(mix64(lo ^ mix64(hi))) & (cells_.size() - 1);
    }

    std::vector<std::uint32_t> cells_;
    std::size_t size_{0};
};

}  // namespace daiet
