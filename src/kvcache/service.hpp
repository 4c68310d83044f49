// KvService: one kv workload deployed on a ClusterRuntime fabric.
//
// Wires the pieces together the way JobDriver does for aggregation
// jobs: one KvStoreServer host, a KvClient on every other (chosen)
// host, and — when caching is enabled — a KvCacheSwitchProgram
// attached through the runtime's switch-program registry to the
// server's edge switch (the one switch every request crosses, which is
// what makes invalidate-on-PUT coherent; NetCache places its cache at
// the storage rack's ToR for the same reason). The cache tenant shares
// the chip's SramBook and FabricRouter with the resident DAIET
// program, so a kv workload and an aggregation job are co-tenants of
// one fabric.
//
// The clients are a KvClientFleet (kvcache/fleet.hpp) issuing Zipf
// GET/PUT streams; the service adds periodic controller rebalances and
// the server and cache counters.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "kvcache/controller.hpp"
#include "kvcache/fleet.hpp"
#include "kvcache/store.hpp"
#include "kvcache/switch_program.hpp"
#include "runtime/cluster.hpp"
#include "trace/slo.hpp"

namespace daiet::kv {

struct KvServiceOptions {
    KvConfig config{};
    /// Index (into ClusterRuntime::hosts()) of the storage server.
    std::size_t server_host{0};
    /// Client host indices; empty = every host except the server.
    std::vector<std::size_t> client_hosts;
    /// false: no switch program, no controller — the baseline where
    /// every request is served by the server.
    bool cache_enabled{true};
};

/// Fabric-wide results of one workload run: the fleet's client totals
/// plus the server, cache and controller counters.
struct KvRunStats : KvClientTotals {
    std::uint64_t server_gets{0};
    std::uint64_t server_puts{0};
    /// Server-side replay answers (at-most-once execution under loss).
    std::uint64_t server_duplicates{0};
    KvCacheStats cache;  ///< zeroes when the cache is disabled
    std::uint64_t promotions{0};
    std::uint64_t evictions{0};
    std::uint64_t rebalances{0};
};

class KvService {
public:
    KvService(rt::ClusterRuntime& rt, KvServiceOptions options = {});

    KvService(const KvService&) = delete;
    KvService& operator=(const KvService&) = delete;

    KvStoreServer& server() noexcept { return *server_; }
    std::size_t num_clients() const noexcept { return fleet_->num_clients(); }
    KvClient& client(std::size_t i) { return fleet_->client(i); }
    KvClientFleet& fleet() noexcept { return *fleet_; }
    /// nullptr when the cache is disabled.
    KvCacheSwitchProgram* cache() noexcept { return cache_.get(); }
    KvCacheController* controller() noexcept { return controller_.get(); }
    /// The switch hosting the cache tenant (the server's edge switch).
    sim::NodeId cache_node() const noexcept { return cache_node_; }

    /// The deterministic key/value universe the workload draws from.
    static Key16 key_of(std::size_t i) { return Key16::from_u64(i + 1); }
    static WireValue preload_value_of(std::size_t i) {
        return static_cast<WireValue>(0x9000u + i);
    }

    /// Control-plane preload of keys 0..n-1 (no traffic).
    void preload(std::size_t num_keys);

    /// Schedule the workload's request streams and rebalances on the
    /// cluster's simulator (run with rt.run(), possibly interleaved
    /// with other jobs' traffic).
    void schedule(const KvWorkload& workload);

    /// Aggregate client/server/switch stats after a run.
    KvRunStats collect() const;

    /// schedule + run + collect, for the simple single-job case.
    KvRunStats run(const KvWorkload& workload);

    /// SLO objectives (KvClientFleet::set_slo); the default service is "kv".
    void set_slo(trace::SloSpec spec) { fleet_->set_slo(std::move(spec)); }
    const trace::SloMonitor* slo() const noexcept { return fleet_->slo(); }

    /// Register continuous service signals (cache hits/misses, summed
    /// client retransmits and abandons) on a FabricSampler.
    void install_probes(rt::FabricSampler& sampler) const;

private:
    rt::ClusterRuntime* rt_;
    KvServiceOptions options_;
    std::unique_ptr<KvStoreServer> server_;
    std::optional<KvClientFleet> fleet_;
    std::shared_ptr<KvCacheSwitchProgram> cache_;
    std::unique_ptr<KvCacheController> controller_;
    sim::NodeId cache_node_{0};
};

}  // namespace daiet::kv
