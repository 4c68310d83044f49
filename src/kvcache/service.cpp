#include "kvcache/service.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "netsim/link.hpp"
#include "runtime/sampler.hpp"
#include "trace/metrics.hpp"

namespace daiet::kv {

KvService::KvService(rt::ClusterRuntime& rt, KvServiceOptions options)
    : rt_{&rt}, options_{std::move(options)} {
    DAIET_EXPECTS(options_.server_host < rt.hosts().size());
    sim::Host& server_host = rt.host(options_.server_host);
    server_ = std::make_unique<KvStoreServer>(server_host, options_.config);
    fleet_.emplace(rt, options_.config, server_host.addr(), options_.client_hosts,
                   std::span{&options_.server_host, 1}, "kv");

    if (options_.cache_enabled) {
        // Lossy fabrics are fine: the retry transport retransmits at
        // the clients, the server deduplicates via its reply cache, and
        // the switch drains its coherence counters on distinct ACKs
        // only — a dropped PUT_ACK no longer wedges the
        // write_flight_/pending_ registers (a replay drains in its
        // place), and the rare residue a dedup-filter collision or an
        // abandoned write can still leave is healed by the controller's
        // stuck-window flight reset.
        sim::Node* edge = rt.network().edge_switch_of(server_host);
        auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(edge);
        if (sw == nullptr) {
            throw std::runtime_error{
                "KvService: the server's edge switch is not programmable "
                "(build the cluster with daiet=true or disable the cache)"};
        }
        cache_node_ = sw->id();
        cache_ = std::make_shared<KvCacheSwitchProgram>(
            options_.config, server_host.addr(), rt.chip_at(cache_node_),
            rt.router_at(cache_node_));
        rt.add_tenant(cache_node_, cache_);
        controller_ = std::make_unique<KvCacheController>(*cache_, *server_);
    }
}

void KvService::preload(std::size_t num_keys) {
    // Idempotent: never roll an already-present value (e.g. an
    // acknowledged PUT from an earlier workload on this service) back
    // to its preload default — a later promotion would re-serve it.
    for (std::size_t i = 0; i < num_keys; ++i) {
        const Key16 key = key_of(i);
        if (!server_->store().contains(key)) {
            server_->preload(key, preload_value_of(i));
        }
    }
}

void KvService::schedule(const KvWorkload& workload) {
    fleet_->schedule(workload);
    preload(workload.num_keys);

    if (controller_ != nullptr && workload.rebalance_interval > 0) {
        const sim::SimTime horizon =
            workload.start + num_clients() * workload.client_stagger +
            workload.requests_per_client * workload.request_interval;
        // The rebalancer reads the server's store and pokes the cache
        // program on the server's edge switch — both live on the server
        // host's shard (a rack and its ToR always share one).
        sim::Simulator& server_sim = rt_->host(options_.server_host).simulator();
        for (sim::SimTime at = workload.start + workload.rebalance_interval;
             at <= horizon; at += workload.rebalance_interval) {
            server_sim.schedule_at(at, [this] { controller_->rebalance(); });
        }
    }
}

KvRunStats KvService::collect() const {
    KvRunStats out;
    fleet_->collect(out);
    out.server_gets = server_->stats().gets;
    out.server_puts = server_->stats().puts;
    out.server_duplicates = server_->stats().duplicates;
    if (cache_ != nullptr) out.cache = cache_->stats();
    if (controller_ != nullptr) {
        out.promotions = controller_->stats().promotions;
        out.evictions = controller_->stats().evictions;
        out.rebalances = controller_->stats().rebalances;
    }
    trace::metrics().counter("kv.server_gets", "kv", "server").set(out.server_gets);
    return out;
}

void KvService::install_probes(rt::FabricSampler& sampler) const {
    if (cache_ != nullptr) {
        const KvCacheSwitchProgram* cache = cache_.get();
        std::string node = "cache-switch";
        for (const auto& n : rt_->network().nodes()) {
            if (n->id() == cache_node_) {
                node = n->name();
                break;
            }
        }
        sampler.add_probe("kv.cache_hits", node,
                          [cache] { return static_cast<double>(cache->stats().hits); });
        sampler.add_probe("kv.cache_misses", node, [cache] {
            return static_cast<double>(cache->stats().misses);
        });
    }
    fleet_->install_probes(sampler);
}

KvRunStats KvService::run(const KvWorkload& workload) {
    schedule(workload);
    rt_->run();
    return collect();
}

}  // namespace daiet::kv
