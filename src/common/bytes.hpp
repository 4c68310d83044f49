// Bounded, endian-explicit byte-buffer reader/writer.
//
// All wire formats in this repository (DAIET preamble, key-value pairs,
// simulated UDP/TCP headers) are serialized through these two classes so
// that byte-level framing is testable in one place. Network byte order
// (big-endian) is used throughout, as on a real wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"

namespace daiet {

/// Error thrown when a reader runs past the end of its buffer or a
/// writer exceeds a configured capacity. Indicates malformed input
/// (a data error), hence an exception rather than a contract violation.
class BufferError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Appends big-endian scalars and raw bytes to a growable buffer.
class ByteWriter {
public:
    ByteWriter() = default;

    /// Construct with a hard capacity; exceeding it throws BufferError.
    /// capacity == 0 means unbounded.
    explicit ByteWriter(std::size_t capacity) : capacity_{capacity} {}

    /// Serialize directly into caller-owned storage (e.g. a FrameBuf
    /// slab) instead of a growable vector — the zero-allocation path for
    /// frame builders. Writing past the span throws BufferError; take()
    /// is unavailable in this mode.
    explicit ByteWriter(std::span<std::byte> fixed)
        : fixed_{fixed}, fixed_mode_{true}, capacity_{fixed.size()} {}

    void put_u8(std::uint8_t v) { append(&v, 1); }

    void put_u16(std::uint16_t v) {
        const std::uint8_t raw[2] = {static_cast<std::uint8_t>(v >> 8),
                                     static_cast<std::uint8_t>(v)};
        append(raw, sizeof raw);
    }

    void put_u32(std::uint32_t v) {
        const std::uint8_t raw[4] = {
            static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
            static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
        append(raw, sizeof raw);
    }

    void put_u64(std::uint64_t v) {
        put_u32(static_cast<std::uint32_t>(v >> 32));
        put_u32(static_cast<std::uint32_t>(v));
    }

    void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
    void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

    /// IEEE-754 single-precision, big-endian bit pattern.
    void put_f32(float v) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        put_u32(bits);
    }

    void put_bytes(std::span<const std::byte> data) {
        append(data.data(), data.size());
    }

    void put_string(std::string_view s) {
        append(s.data(), s.size());
    }

    /// Pad with `count` zero bytes.
    void put_zeros(std::size_t count) {
        ensure_room(count);
        if (fixed_mode_) {
            std::memset(fixed_.data() + fixed_size_, 0, count);
            fixed_size_ += count;
        } else {
            buf_.insert(buf_.end(), count, std::byte{0});
        }
    }

    std::size_t size() const noexcept {
        return fixed_mode_ ? fixed_size_ : buf_.size();
    }
    bool empty() const noexcept { return size() == 0; }
    std::span<const std::byte> bytes() const noexcept {
        return fixed_mode_ ? fixed_.first(fixed_size_)
                           : std::span<const std::byte>{buf_};
    }

    /// Growable mode only: a fixed-span writer does not own its bytes.
    std::vector<std::byte> take() noexcept {
        DAIET_EXPECTS(!fixed_mode_);
        return std::move(buf_);
    }

private:
    void ensure_room(std::size_t extra) const {
        // Fixed mode is always bounded (even by an empty span); growable
        // mode treats capacity 0 as unbounded.
        const std::size_t cap = fixed_mode_ ? fixed_.size() : capacity_;
        if ((fixed_mode_ || cap != 0) && size() + extra > cap) {
            throw BufferError{"ByteWriter capacity exceeded"};
        }
    }

    void append(const void* data, std::size_t n) {
        ensure_room(n);
        const auto* p = static_cast<const std::byte*>(data);
        if (fixed_mode_) {
            // An empty span may carry a null data pointer, and memcpy
            // from null is undefined even for zero bytes.
            if (n != 0) std::memcpy(fixed_.data() + fixed_size_, p, n);
            fixed_size_ += n;
        } else {
            buf_.insert(buf_.end(), p, p + n);
        }
    }

    std::vector<std::byte> buf_;
    std::span<std::byte> fixed_;
    std::size_t fixed_size_{0};
    bool fixed_mode_{false};
    std::size_t capacity_{0};
};

/// Consumes big-endian scalars from a non-owning view of bytes.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::byte> data) noexcept : data_{data} {}

    std::uint8_t get_u8() {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint16_t get_u16() {
        need(2);
        const auto hi = static_cast<std::uint16_t>(data_[pos_]);
        const auto lo = static_cast<std::uint16_t>(data_[pos_ + 1]);
        pos_ += 2;
        return static_cast<std::uint16_t>(hi << 8 | lo);
    }

    std::uint32_t get_u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v = v << 8 | static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t get_u64() {
        const std::uint64_t hi = get_u32();
        const std::uint64_t lo = get_u32();
        return hi << 32 | lo;
    }

    std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
    std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

    float get_f32() {
        const std::uint32_t bits = get_u32();
        float v = 0.0F;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::span<const std::byte> get_bytes(std::size_t n) {
        need(n);
        const auto out = data_.subspan(pos_, n);
        pos_ += n;
        return out;
    }

    std::string get_string(std::size_t n) {
        const auto raw = get_bytes(n);
        return std::string{reinterpret_cast<const char*>(raw.data()), raw.size()};
    }

    void skip(std::size_t n) {
        need(n);
        pos_ += n;
    }

    std::size_t remaining() const noexcept { return data_.size() - pos_; }
    std::size_t position() const noexcept { return pos_; }
    bool exhausted() const noexcept { return pos_ == data_.size(); }

private:
    void need(std::size_t n) const {
        if (pos_ + n > data_.size()) {
            throw BufferError{"ByteReader past end of buffer"};
        }
    }

    std::span<const std::byte> data_;
    std::size_t pos_{0};
};

/// Convenience: view a string as bytes.
inline std::span<const std::byte> as_bytes(std::string_view s) noexcept {
    return std::as_bytes(std::span{s.data(), s.size()});
}

}  // namespace daiet
