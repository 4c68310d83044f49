// ShardedKvService: the kv service scaled out across N storage racks,
// deployed on a ClusterRuntime fabric.
//
// Where KvService wires one server + one ToR cache, this layer wires
// the full fourth-family stack:
//
//   * one KvStoreServer per storage rack, each fronted by its own
//     KvCacheSwitchProgram tenant at the rack ToR (the same rack cache
//     as the unsharded service — sharding multiplies it);
//   * one DirectorySwitchProgram tenant on a spine chip that every
//     client->storage path crosses, owning the key-range -> rack map;
//     clients address the *service* vaddr and never learn server
//     addresses;
//   * one EdgeCacheSwitchProgram tenant per client-side ToR, holding
//     lease-based reply caches the directory invalidates on writes;
//   * a DirectoryController that installs the mapping, migrates ranges
//     (two-phase, NACK-gated) and rebalances skew off telemetry
//     rankings.
//
// The clients are the unsharded service's kv::KvClientFleet, addressed
// to the service vaddr: both replay the same per-client op streams,
// which makes "sharded == unsharded reference" a value-parity check.
//
// Sequential simulation only: the rack rebalances and the directory
// controller run on rt.simulator(), which is shard 0 under parallel
// simulation, yet touch switches and servers on every shard.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "directory/config.hpp"
#include "directory/controller.hpp"
#include "directory/edge_cache.hpp"
#include "directory/switch_program.hpp"
#include "kvcache/controller.hpp"
#include "kvcache/service.hpp"
#include "kvcache/store.hpp"
#include "kvcache/switch_program.hpp"
#include "runtime/cluster.hpp"

namespace daiet::dir {

struct ShardedKvOptions {
    kv::KvConfig config{};
    DirectoryConfig directory{};
    EdgeCacheConfig edge{};
    /// Indices (into ClusterRuntime::hosts()) of the storage servers,
    /// one per rack. Place them on distinct leaves for real sharding.
    std::vector<std::size_t> server_hosts{0};
    /// Client host indices; empty = every host that is not a server.
    std::vector<std::size_t> client_hosts;
    /// Switch hosting the directory tenant; kAutoSwitch picks the
    /// first programmable switch that is no host's edge (a spine) —
    /// the directory must sit above the edges, both so edge misses can
    /// still reach it (a mux tenant that declines ends the claim pass)
    /// and so rewritten requests can still cross the rack ToR cache.
    static constexpr sim::NodeId kAutoSwitch =
        std::numeric_limits<sim::NodeId>::max();
    sim::NodeId directory_switch{kAutoSwitch};
    /// false: no per-rack ToR caches (the sharding-only ablation).
    bool rack_caches{true};
    /// false: no client-side edge caches (the lease ablation).
    bool edge_caches{true};
};

/// Fabric-wide results of one sharded workload run: the fleet's client
/// totals (switch_hits counts rack and edge hits) plus the server side.
struct ShardedKvRunStats : kv::KvClientTotals {
    std::uint64_t server_gets{0};  ///< summed over racks
    std::uint64_t server_puts{0};
    DirectoryStats directory;
    EdgeCacheStats edges;  ///< summed over edge caches
    DirectoryController::Stats control;
};

class ShardedKvService {
public:
    ShardedKvService(rt::ClusterRuntime& rt, ShardedKvOptions options);

    ShardedKvService(const ShardedKvService&) = delete;
    ShardedKvService& operator=(const ShardedKvService&) = delete;

    std::size_t num_shards() const noexcept { return servers_.size(); }
    kv::KvStoreServer& server(std::size_t shard);
    std::size_t num_clients() const noexcept { return fleet_->num_clients(); }
    kv::KvClient& client(std::size_t i) { return fleet_->client(i); }
    kv::KvClientFleet& fleet() noexcept { return *fleet_; }
    DirectorySwitchProgram& directory() noexcept { return *directory_; }
    DirectoryController& controller() noexcept { return *controller_; }
    sim::NodeId directory_node() const noexcept { return directory_node_; }
    /// The rack cache tenant of `shard`; nullptr when disabled.
    kv::KvCacheSwitchProgram* rack_cache(std::size_t shard);
    /// The rack cache's controller of `shard`; nullptr when disabled.
    kv::KvCacheController* rack_controller(std::size_t shard);
    std::size_t num_edges() const noexcept { return edges_.size(); }
    EdgeCacheSwitchProgram& edge(std::size_t i);

    /// Control-plane preload of keys 0..n-1 into their owning racks
    /// (same key/value universe as KvService — the parity reference).
    void preload(std::size_t num_keys);

    /// Schedule the workload's request streams (identical to an
    /// unsharded run's) plus per-rack cache rebalances.
    void schedule(const kv::KvWorkload& workload);

    /// Schedule periodic directory skew-rebalances off `source` (e.g.
    /// TelemetryCollector::hot_key_source_for(directory_node())).
    void schedule_rebalances(sim::SimTime interval, sim::SimTime horizon,
                             DirectoryController::HotKeySource source);

    /// One promotion pass over every rack's cache controller — what
    /// schedule() runs periodically; exposed for custom (closed-loop)
    /// workload drivers.
    void rebalance_racks();

    ShardedKvRunStats collect() const;
    ShardedKvRunStats run(const kv::KvWorkload& workload);

    /// SLO objectives (kv::KvClientFleet::set_slo); default "shardedkv".
    void set_slo(trace::SloSpec spec) { fleet_->set_slo(std::move(spec)); }
    const trace::SloMonitor* slo() const noexcept { return fleet_->slo(); }

    /// Register continuous service signals (per-shard rack-cache hits,
    /// edge-cache hits, client retransmits and abandons) on a sampler.
    void install_probes(rt::FabricSampler& sampler) const;

private:
    struct Rack {
        std::shared_ptr<kv::KvCacheSwitchProgram> cache;
        std::unique_ptr<kv::KvCacheController> controller;
    };

    rt::ClusterRuntime* rt_;
    ShardedKvOptions options_;
    std::vector<std::unique_ptr<kv::KvStoreServer>> servers_;
    std::vector<Rack> racks_;
    std::optional<kv::KvClientFleet> fleet_;
    std::vector<std::shared_ptr<EdgeCacheSwitchProgram>> edges_;
    std::shared_ptr<DirectorySwitchProgram> directory_;
    std::unique_ptr<DirectoryController> controller_;
    sim::NodeId directory_node_{0};
};

}  // namespace daiet::dir
