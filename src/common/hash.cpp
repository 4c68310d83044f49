#include "common/hash.hpp"

#include <bit>
#include <cstring>

namespace daiet {

namespace {

// Generated at compile time: namespace-scope constexpr tables have no
// function-local static init guard, which matters because the dataplane
// hash unit runs once per frame per ECMP hop. Table 0 is the classic
// byte-at-a-time CRC-32 table; tables 1..3 are the slicing-by-4
// extension (T_k[i] = one more zero byte folded through), which lets
// the fast path consume four input bytes per step with the exact same
// polynomial arithmetic — the resulting CRC is bit-identical.
constexpr std::array<std::array<std::uint32_t, 256>, 4> kCrc32Tables = [] {
    std::array<std::array<std::uint32_t, 256>, 4> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : (c >> 1);
        }
        out[0][i] = c;
    }
    for (std::size_t t = 1; t < 4; ++t) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = out[t - 1][i];
            out[t][i] = (prev >> 8) ^ out[0][prev & 0xffU];
        }
    }
    return out;
}();

}  // namespace

const std::array<std::uint32_t, 256>& Crc32::table() noexcept {
    return kCrc32Tables[0];
}

std::uint32_t Crc32::compute(std::span<const std::byte> data) noexcept {
    std::uint32_t c = 0xffffffffU;
    const std::byte* p = data.data();
    std::size_t n = data.size();
    // Slicing-by-4. The word load is little-endian math, so big-endian
    // targets fall through to the byte loop — same CRC either way.
    if constexpr (std::endian::native == std::endian::little) {
        for (; n >= 4; n -= 4, p += 4) {
            std::uint32_t w;
            std::memcpy(&w, p, sizeof w);
            w ^= c;
            c = kCrc32Tables[3][w & 0xffU] ^
                kCrc32Tables[2][(w >> 8) & 0xffU] ^
                kCrc32Tables[1][(w >> 16) & 0xffU] ^
                kCrc32Tables[0][w >> 24];
        }
    }
    for (; n != 0; --n, ++p) {
        c = kCrc32Tables[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xffU] ^
            (c >> 8);
    }
    return c ^ 0xffffffffU;
}

std::uint32_t Crc32::compute(std::string_view s) noexcept {
    return compute(std::as_bytes(std::span{s.data(), s.size()}));
}

}  // namespace daiet
