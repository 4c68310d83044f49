// Pooled, ref-counted network frame buffers.
//
// Every hop of the simulated fabric used to copy frames through
// std::vector<std::byte>, which put one or more heap round-trips on the
// per-frame fast path (build, per-hop closure capture, switch fan-out).
// FrameBuf replaces that with fixed-capacity slabs recycled through a
// per-thread free list: steady-state traffic allocates nothing, and
// copying a FrameBuf is a refcount bump with copy-on-write on the first
// mutation, so sharing is never observable.
//
// Thread model: the simulator is single-threaded; the pool and the
// refcounts are deliberately non-atomic and per-thread (each thread gets
// its own free list, so parallel test shards never contend or race).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace daiet {

/// Allocation counters for the per-thread slab pool (monotonic, never
/// reset): the observability behind the "zero steady-state heap
/// allocations per delivered frame" gate in bench_sim_throughput.
struct FramePoolStats {
    std::uint64_t slab_allocs{0};     ///< standard-capacity slabs heap-allocated
    std::uint64_t oversize_allocs{0}; ///< > kSlabCapacity slabs (never pooled)
    std::uint64_t reuses{0};          ///< allocations served from the free list
    std::uint64_t cow_copies{0};      ///< copy-on-write clones of shared buffers
    std::uint64_t free_slabs{0};      ///< slabs currently parked in the free list
};

class FrameBuf {
public:
    /// Every pooled slab holds this many payload bytes — comfortably
    /// above the fabric's largest frame (MTU-sized DAIET data packets
    /// plus headers). Larger requests fall back to exact-size heap
    /// blocks that are freed, not pooled.
    static constexpr std::size_t kSlabCapacity = 2048;

    FrameBuf() noexcept = default;

    /// Bridge for callers that still assemble bytes in a vector
    /// (tests, hand-built probe frames). Copies into a slab.
    FrameBuf(const std::vector<std::byte>& bytes);  // NOLINT(google-explicit-constructor)

    /// An uninitialized buffer of exactly `size` bytes; the caller must
    /// write every byte (frame builders serialize the full wire image).
    static FrameBuf allocate(std::size_t size);

    /// Copy of `bytes` in a pooled slab.
    static FrameBuf copy_of(std::span<const std::byte> bytes);

    /// Copies are a refcount bump. Inline because the fabric copies a
    /// frame several times per hop (closure capture, fan-out, parse).
    FrameBuf(const FrameBuf& other) noexcept : slab_{other.slab_} {
        if (slab_ != nullptr) ++slab_->refs;
    }
    FrameBuf& operator=(const FrameBuf& other) noexcept;
    FrameBuf(FrameBuf&& other) noexcept : slab_{other.slab_} { other.slab_ = nullptr; }
    FrameBuf& operator=(FrameBuf&& other) noexcept {
        if (this != &other) {
            release();
            slab_ = other.slab_;
            other.slab_ = nullptr;
        }
        return *this;
    }
    ~FrameBuf() { release(); }

    std::size_t size() const noexcept { return slab_ ? slab_->size : 0; }
    bool empty() const noexcept { return size() == 0; }
    const std::byte* data() const noexcept {
        return slab_ ? payload(slab_) : nullptr;
    }
    const std::byte* begin() const noexcept { return data(); }
    const std::byte* end() const noexcept { return data() + size(); }

    std::span<const std::byte> bytes() const noexcept { return {data(), size()}; }
    operator std::span<const std::byte>() const noexcept {  // NOLINT
        return bytes();
    }

    /// Writable view. If the buffer is shared, this clones it first
    /// (copy-on-write), so mutation through one handle can never be
    /// observed through another — a switch marking ECN on one egress
    /// copy of a broadcast frame leaves the other copies clean.
    std::span<std::byte> mutable_bytes();

    /// True when no other FrameBuf shares the underlying slab.
    bool unique() const noexcept { return slab_ == nullptr || slab_->refs == 1; }

    /// Causal trace id (trace/trace.hpp) riding in the slab header's
    /// spare bytes: every handle sharing the slab sees the same id, so
    /// propagation across link queues, fan-out copies and closure
    /// captures is the refcount bump itself. 0 = untraced. allocate()
    /// zeroes it (slab reuse must not leak ids across frames); the CoW
    /// clone preserves it.
    std::uint64_t trace_id() const noexcept { return slab_ ? slab_->trace_id : 0; }
    void set_trace_id(std::uint64_t id) noexcept {
        if (slab_ != nullptr) slab_->trace_id = id;
    }

    /// Pool counters for this thread.
    static FramePoolStats pool_stats() noexcept;
    /// Release every slab parked in this thread's free list (tests).
    static void trim_pool() noexcept;

private:
    struct Slab {
        std::uint32_t refs{1};
        std::uint32_t size{0};
        std::uint32_t capacity{0};
        bool pooled{false};  ///< recycle through the free list on release
        Slab* next_free{nullptr};
        std::uint64_t trace_id{0};  ///< shared causal id, see trace_id()
        // payload bytes trail the header
    };

    /// Slab header + payload live in one block; the payload starts at a
    /// fixed 32-byte offset so it stays max_align_t-aligned.
    static constexpr std::size_t kHeaderSize = 32;

    static std::byte* payload(Slab* slab) noexcept {
        return reinterpret_cast<std::byte*>(slab) + kHeaderSize;
    }

    explicit FrameBuf(Slab* slab) noexcept : slab_{slab} {}

    /// Drop this handle's reference; the slab's last owner recycles or
    /// frees it out of line. Inline because releases outnumber frame
    /// deliveries roughly tenfold (every temporary copy ends in one).
    void release() noexcept {
        if (slab_ == nullptr) return;
        Slab* slab = slab_;
        slab_ = nullptr;
        if (--slab->refs == 0) release_slab(slab);
    }
    static void release_slab(Slab* slab) noexcept;

    Slab* slab_{nullptr};
};

}  // namespace daiet
