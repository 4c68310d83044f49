#include "common/framebuf.hpp"

#include <cstring>
#include <new>

namespace daiet {

namespace {

/// Per-thread slab free list. The destructor releases parked slabs at
/// thread exit so leak checkers see a clean heap.
struct FramePool {
    void* free_head{nullptr};
    FramePoolStats stats;

    ~FramePool();
};

thread_local FramePool g_pool;

FramePool::~FramePool() { FrameBuf::trim_pool(); }

}  // namespace

FrameBuf FrameBuf::allocate(std::size_t size) {
    static_assert(sizeof(Slab) <= kHeaderSize);
    Slab* slab = nullptr;
    if (size <= kSlabCapacity && g_pool.free_head != nullptr) {
        slab = static_cast<Slab*>(g_pool.free_head);
        g_pool.free_head = slab->next_free;
        slab->refs = 1;
        slab->next_free = nullptr;
        slab->trace_id = 0;  // reused slab must not leak the old frame's id
        ++g_pool.stats.reuses;
        --g_pool.stats.free_slabs;
    } else {
        const bool pooled = size <= kSlabCapacity;
        const std::size_t capacity = pooled ? kSlabCapacity : size;
        void* raw = ::operator new(kHeaderSize + capacity);
        slab = new (raw) Slab{};
        slab->capacity = static_cast<std::uint32_t>(capacity);
        slab->pooled = pooled;
        if (pooled) {
            ++g_pool.stats.slab_allocs;
        } else {
            ++g_pool.stats.oversize_allocs;
        }
    }
    slab->size = static_cast<std::uint32_t>(size);
    return FrameBuf{slab};
}

FrameBuf FrameBuf::copy_of(std::span<const std::byte> bytes) {
    FrameBuf buf = allocate(bytes.size());
    if (!bytes.empty()) {
        std::memcpy(payload(buf.slab_), bytes.data(), bytes.size());
    }
    return buf;
}

FrameBuf::FrameBuf(const std::vector<std::byte>& bytes)
    : FrameBuf{copy_of(std::span<const std::byte>{bytes})} {}

FrameBuf& FrameBuf::operator=(const FrameBuf& other) noexcept {
    if (this == &other) return *this;
    FrameBuf copy{other};
    release();
    slab_ = copy.slab_;
    copy.slab_ = nullptr;
    return *this;
}

std::span<std::byte> FrameBuf::mutable_bytes() {
    if (slab_ == nullptr) return {};
    if (slab_->refs > 1) {
        FrameBuf clone = copy_of(bytes());
        clone.slab_->trace_id = slab_->trace_id;
        ++g_pool.stats.cow_copies;
        release();
        slab_ = clone.slab_;
        clone.slab_ = nullptr;
    }
    return {payload(slab_), slab_->size};
}

void FrameBuf::release_slab(Slab* slab) noexcept {
    if (slab->pooled) {
        slab->next_free = static_cast<Slab*>(g_pool.free_head);
        g_pool.free_head = slab;
        ++g_pool.stats.free_slabs;
        return;
    }
    slab->~Slab();
    ::operator delete(slab);
}

FramePoolStats FrameBuf::pool_stats() noexcept { return g_pool.stats; }

void FrameBuf::trim_pool() noexcept {
    while (g_pool.free_head != nullptr) {
        auto* slab = static_cast<Slab*>(g_pool.free_head);
        g_pool.free_head = slab->next_free;
        slab->~Slab();
        ::operator delete(slab);
        --g_pool.stats.free_slabs;
    }
}

}  // namespace daiet
