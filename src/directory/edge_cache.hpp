// The edge reply cache: lease-based caching at the *client's* ToR.
//
// The rack cache (src/kvcache/) sits where every request must go; the
// edge cache sits where the clients are, so a hit saves the whole
// fabric round trip. The price is that writes do NOT cross this switch
// — a PUT from a client behind another edge is invisible here — so the
// inline invalidate-on-PUT protocol cannot work alone. Three
// mechanisms replace it, and each handles a failure the others cannot:
//
//   * lease INVALIDATE frames from the directory. Every PUT to the
//     service crosses the directory switch, which broadcasts an
//     invalidation (tagged with the PUT's (client, seq) identity) to
//     every edge. Replays are recognized by tag and skipped — not for
//     safety (invalidating twice is harmless) but so a late replay
//     cannot wipe an entry a newer reply has refreshed.
//   * a per-slot epoch + a cache-wide generation, checked between
//     forwarding a GET and caching its reply. A reply whose GET left
//     before an invalidation (or a lease revocation) arrived may carry
//     a value from before the write — the epoch mismatch refuses it.
//     Freshness argument: if the GET was forwarded *after* the
//     invalidation arrived here, then it crossed the directory after
//     the PUT did (the invalidation had already covered the
//     directory->edge stretch when the GET started its edge->directory
//     stretch), and the single directory->rack path is FIFO, so the
//     server answered it post-write.
//   * a per-slot last-forwarded tag: only the reply answering the most
//     recently forwarded GET for a slot may cache. Two clients' replies
//     for one key can return over different spines and reorder; GETs
//     forwarded later are served later by the (serializing) server, so
//     keeping only the newest reply keeps slot values monotone in
//     server order.
//
// The lease TTL bounds the damage of the one failure no message can
// fix — an edge the invalidation cannot reach — and leases are granted
// per key range by the DirectoryController, which revokes a range
// before migrating it (no stale read across a live migration) and
// re-grants it after the flip.
//
// The cache is direct-mapped and reactive: replies passing toward this
// edge's clients install themselves, no controller involvement per
// key. Collisions never evict a live lease (stability beats recency at
// the edge; the rack cache already absorbs the fat head of the
// distribution).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/tenancy.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "dataplane/register_array.hpp"
#include "directory/config.hpp"
#include "directory/protocol.hpp"
#include "kvcache/protocol.hpp"

namespace daiet::dir {

struct EdgeCacheStats {
    std::uint64_t gets_seen{0};
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t expired{0};        ///< lease ran out (counted in misses)
    std::uint64_t replies_seen{0};
    std::uint64_t cached{0};         ///< replies installed
    std::uint64_t stale_refused{0};  ///< replies refused by epoch/tag guard
    std::uint64_t invalidations{0};  ///< entries cleared (frames or inline PUT)
    std::uint64_t duplicate_invalidations{0};  ///< replayed frames skipped
    std::uint64_t revocations{0};    ///< control-plane range revokes applied

    EdgeCacheStats& operator+=(const EdgeCacheStats& o) noexcept {
        gets_seen += o.gets_seen;
        hits += o.hits;
        misses += o.misses;
        expired += o.expired;
        replies_seen += o.replies_seen;
        cached += o.cached;
        stale_refused += o.stale_refused;
        invalidations += o.invalidations;
        duplicate_invalidations += o.duplicate_invalidations;
        revocations += o.revocations;
        return *this;
    }

    double hit_rate() const noexcept {
        return gets_seen == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(gets_seen);
    }
};

class EdgeCacheSwitchProgram : public TenantProgram {
public:
    /// Reserves every register from the chip's SRAM book (throws
    /// dp::ResourceError when the chip is full). `node` is the switch
    /// this chip sits in: the tenant consumes invalidations addressed
    /// to edge_vaddr(node.id()) and reads the chip's clock for lease
    /// expiry. `service` is the service vaddr whose traffic this edge
    /// fronts.
    EdgeCacheSwitchProgram(EdgeCacheConfig config, sim::HostAddr service,
                           std::uint16_t server_udp_port, sim::Node& node,
                           dp::PipelineSwitch& chip,
                           std::shared_ptr<FabricRouter> router);

    // --- data plane ---------------------------------------------------------
    bool claims(const sim::ParsedFrame& frame,
                std::span<const std::byte> payload) const override;
    bool on_claimed(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                    std::span<const std::byte> payload) override;
    /// Invalidations arrive on the directory port, client requests on
    /// the service's server port.
    std::vector<std::uint16_t> claim_ports() const override {
        return {kDirectoryUdpPort, server_udp_port_};
    }
    std::string name() const override {
        return "edgecache@" + std::to_string(node_->id());
    }
    std::size_t sram_bytes() const override {
        return keys_.footprint_bytes() + values_.footprint_bytes() +
               valid_.footprint_bytes() + expiry_.footprint_bytes() +
               epoch_.footprint_bytes() + fwd_tag_.footprint_bytes() +
               fwd_epoch_.footprint_bytes() + fwd_gen_.footprint_bytes() +
               granted_.footprint_bytes() + inval_seen_.footprint_bytes();
    }

    // --- control plane (deployment + DirectoryController) -------------------
    sim::HostAddr vaddr() const noexcept { return edge_vaddr(node_->id()); }

    /// Register a client host this edge fronts (claims are scoped to
    /// this set, so several edges can share a fabric).
    void add_client(sim::HostAddr client) { clients_.insert(client); }
    bool fronts(sim::HostAddr client) const { return clients_.contains(client); }

    /// Lease administration, per key range. revoke() also bumps the
    /// cache-wide generation, which refuses every in-flight reply —
    /// nothing sampled before the revocation can install after it.
    void grant(std::size_t range);
    void revoke(std::size_t range);
    bool granted(std::size_t range) const { return granted_.peek(range) != 0; }

    /// The resident entry for `key`, if any and still valid (tests).
    bool holds(const Key16& key) const;

    const EdgeCacheStats& stats() const noexcept { return stats_; }
    const EdgeCacheConfig& config() const noexcept { return config_; }

private:
    std::size_t slot_of(dp::PacketContext& ctx, const Key16& key) const;
    void serve_hit(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                   const kv::KvMessage& msg, std::size_t slot);
    void apply_invalidate(dp::PacketContext& ctx, const Key16& key);
    sim::SimTime now() const noexcept;

    EdgeCacheConfig config_;
    sim::HostAddr service_;
    std::uint16_t server_udp_port_;
    sim::Node* node_;
    std::unordered_set<sim::HostAddr> clients_;

    // Direct-mapped reply cache (slot = scrambled hash of the key).
    dp::RegisterArray<Key16> keys_;
    dp::RegisterArray<WireValue> values_;
    dp::RegisterArray<std::uint32_t> valid_;
    dp::RegisterArray<sim::SimTime> expiry_;     ///< lease deadline per slot
    dp::RegisterArray<std::uint32_t> epoch_;     ///< bumped per invalidation
    // Forwarded-GET bookkeeping: who may install the next reply.
    dp::RegisterArray<std::uint64_t> fwd_tag_;   ///< (client, seq) of last GET
    dp::RegisterArray<std::uint32_t> fwd_epoch_; ///< slot epoch at forward time
    dp::RegisterArray<std::uint32_t> fwd_gen_;   ///< generation at forward time
    dp::RegisterArray<std::uint32_t> granted_;   ///< lease grant per range
    dp::RegisterArray<std::uint64_t> inval_seen_; ///< replayed-INVALIDATE filter
    std::uint32_t generation_{1};
    EdgeCacheStats stats_;
    std::uint32_t trace_name_id_{0};  ///< lazily interned name()
};

}  // namespace daiet::dir
