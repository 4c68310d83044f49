#include "directory/sharded_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/contracts.hpp"
#include "runtime/sampler.hpp"
#include "trace/metrics.hpp"

namespace daiet::dir {

ShardedKvService::ShardedKvService(rt::ClusterRuntime& rt,
                                   ShardedKvOptions options)
    : rt_{&rt}, options_{std::move(options)} {
    DAIET_EXPECTS(!options_.server_hosts.empty());
    if (!rt.daiet_enabled()) {
        throw std::runtime_error{
            "ShardedKvService: the directory tenant needs programmable "
            "switches (build the cluster with daiet=true)"};
    }
    options_.edge.num_ranges = options_.directory.num_ranges;
    sim::Network& net = rt.network();

    // --- storage racks ------------------------------------------------------
    for (const std::size_t s : options_.server_hosts) {
        DAIET_EXPECTS(s < rt.hosts().size());
        DAIET_EXPECTS(std::ranges::count(options_.server_hosts, s) == 1);
        sim::Host& host = rt.host(s);
        servers_.push_back(
            std::make_unique<kv::KvStoreServer>(host, options_.config));
        Rack rack;
        if (options_.rack_caches) {
            sim::Node* edge = net.edge_switch_of(host);
            auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(edge);
            if (sw == nullptr) {
                throw std::runtime_error{
                    "ShardedKvService: a storage rack's ToR is not programmable"};
            }
            rack.cache = std::make_shared<kv::KvCacheSwitchProgram>(
                options_.config, host.addr(), rt.chip_at(sw->id()),
                rt.router_at(sw->id()));
            rt.add_tenant(sw->id(), rack.cache);
            rack.controller = std::make_unique<kv::KvCacheController>(
                *rack.cache, *servers_.back());
        }
        racks_.push_back(std::move(rack));
    }

    // --- clients ------------------------------------------------------------
    const sim::HostAddr service = service_vaddr(options_.directory.service_id);
    fleet_.emplace(rt, options_.config, service, options_.client_hosts,
                   options_.server_hosts, "shardedkv");

    // --- the directory switch -----------------------------------------------
    directory_node_ = options_.directory_switch;
    if (directory_node_ == ShardedKvOptions::kAutoSwitch) {
        std::unordered_set<sim::NodeId> edge_nodes;
        for (sim::Host* host : rt.hosts()) {
            if (sim::Node* e = net.edge_switch_of(*host)) edge_nodes.insert(e->id());
        }
        const auto& switches = rt.daiet_switches();
        const auto it = std::find_if(
            switches.begin(), switches.end(),
            [&](const auto* sw) { return !edge_nodes.contains(sw->id()); });
        if (it == switches.end()) {
            throw std::runtime_error{
                "ShardedKvService: no programmable switch above the edges — "
                "the directory needs a multi-tier fabric (leaf-spine or "
                "fat-tree)"};
        }
        directory_node_ = (*it)->id();
    }
    directory_ = std::make_shared<DirectorySwitchProgram>(
        options_.directory, rt.chip_at(directory_node_),
        rt.router_at(directory_node_));
    rt.add_tenant(directory_node_, directory_);

    const sim::PipelineSwitchNode* dir_node = nullptr;
    for (const auto* sw : rt.daiet_switches()) {
        if (sw->id() == directory_node_) dir_node = sw;
    }
    DAIET_ASSERT(dir_node != nullptr);
    net.install_switch_address(*dir_node, service);

    // --- edge reply caches --------------------------------------------------
    std::vector<std::pair<const sim::Node*, sim::HostAddr>> edge_vaddrs;
    if (options_.edge_caches) {
        std::unordered_map<sim::NodeId, EdgeCacheSwitchProgram*> by_node;
        for (const std::size_t i : fleet_->hosts()) {
            sim::Host& host = rt.host(i);
            sim::Node* edge = net.edge_switch_of(host);
            auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(edge);
            if (sw == nullptr || sw->id() == directory_node_) {
                // No cache below this client: an unprogrammable ToR, or
                // one that IS the directory (a declined claim would end
                // the pass before steering).
                continue;
            }
            auto it = by_node.find(sw->id());
            if (it == by_node.end()) {
                auto program = std::make_shared<EdgeCacheSwitchProgram>(
                    options_.edge, service, options_.config.server_udp_port,
                    *sw, rt.chip_at(sw->id()), rt.router_at(sw->id()));
                rt.add_tenant(sw->id(), program);
                it = by_node.emplace(sw->id(), program.get()).first;
                edges_.push_back(std::move(program));
                edge_vaddrs.emplace_back(sw, edge_vaddr(sw->id()));
            }
            it->second->add_client(host.addr());
        }
    }
    if (!edge_vaddrs.empty()) {
        net.install_switch_addresses(edge_vaddrs);
        // Hand the directory a preresolved egress port per edge (read
        // off the shared router out of band): broadcasting then costs
        // no second routing-table application in the dataplane.
        const auto router = rt.router_at(directory_node_);
        for (const auto& edge : edges_) {
            const RoutePorts* route = router->peek(edge->vaddr());
            DAIET_ASSERT(route != nullptr && route->count > 0);
            directory_->add_edge(edge->vaddr(), route->ports[0]);
        }
    }

    // --- the control plane --------------------------------------------------
    std::vector<DirectoryController::Shard> shards;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
        shards.push_back({servers_[s]->addr(), servers_[s].get()});
    }
    std::vector<EdgeCacheSwitchProgram*> edge_ptrs;
    for (const auto& e : edges_) edge_ptrs.push_back(e.get());
    controller_ = std::make_unique<DirectoryController>(
        rt.simulator(), *directory_, std::move(shards), std::move(edge_ptrs));
    controller_->assign_all();
}

kv::KvStoreServer& ShardedKvService::server(std::size_t shard) {
    DAIET_EXPECTS(shard < servers_.size());
    return *servers_[shard];
}

kv::KvCacheSwitchProgram* ShardedKvService::rack_cache(std::size_t shard) {
    DAIET_EXPECTS(shard < racks_.size());
    return racks_[shard].cache.get();
}

kv::KvCacheController* ShardedKvService::rack_controller(std::size_t shard) {
    DAIET_EXPECTS(shard < racks_.size());
    return racks_[shard].controller.get();
}

EdgeCacheSwitchProgram& ShardedKvService::edge(std::size_t i) {
    DAIET_EXPECTS(i < edges_.size());
    return *edges_[i];
}

void ShardedKvService::preload(std::size_t num_keys) {
    for (std::size_t i = 0; i < num_keys; ++i) {
        const Key16 key = kv::KvService::key_of(i);
        const std::size_t range = range_of_key(key, directory_->num_ranges());
        const int shard = controller_->shard_of(range);
        DAIET_EXPECTS(shard >= 0);  // never preload mid-migration
        kv::KvStoreServer& server = *servers_[static_cast<std::size_t>(shard)];
        if (!server.store().contains(key)) {
            server.preload(key, kv::KvService::preload_value_of(i));
        }
    }
}

void ShardedKvService::schedule(const kv::KvWorkload& workload) {
    fleet_->schedule(workload);
    preload(workload.num_keys);

    if (options_.rack_caches && workload.rebalance_interval > 0) {
        const sim::SimTime horizon =
            workload.start + num_clients() * workload.client_stagger +
            workload.requests_per_client * workload.request_interval;
        for (sim::SimTime at = workload.start + workload.rebalance_interval;
             at <= horizon; at += workload.rebalance_interval) {
            rt_->simulator().schedule_at(at, [this] { rebalance_racks(); });
        }
    }
}

void ShardedKvService::rebalance_racks() {
    for (Rack& rack : racks_) {
        if (rack.controller) rack.controller->rebalance();
    }
}

void ShardedKvService::schedule_rebalances(
    sim::SimTime interval, sim::SimTime horizon,
    DirectoryController::HotKeySource source) {
    DAIET_EXPECTS(interval > 0);
    sim::Simulator& sim = rt_->simulator();
    for (sim::SimTime at = interval; at <= horizon; at += interval) {
        sim.schedule_at(at, [this, source] { controller_->rebalance(source); });
    }
}

ShardedKvRunStats ShardedKvService::collect() const {
    ShardedKvRunStats out;
    fleet_->collect(out);
    for (const auto& server : servers_) {
        out.server_gets += server->stats().gets;
        out.server_puts += server->stats().puts;
    }
    out.directory = directory_->stats();
    for (const auto& edge : edges_) out.edges += edge->stats();
    out.control = controller_->stats();

    // Publish into the process-wide metrics registry (picked up by
    // BenchJson::write and any trace/metrics dump).
    auto& reg = trace::metrics();
    reg.counter("shardedkv.edge_hits", "shardedkv").set(out.edge_hits);
    reg.counter("shardedkv.nacks", "shardedkv").set(out.nacks);
    reg.counter("shardedkv.gets_steered", "shardedkv", "directory")
        .set(out.directory.gets_steered);
    reg.counter("shardedkv.puts_steered", "shardedkv", "directory")
        .set(out.directory.puts_steered);
    reg.counter("shardedkv.invalidations_sent", "shardedkv", "directory")
        .set(out.directory.invalidations_sent);
    for (std::size_t s = 0; s < servers_.size(); ++s) {
        reg.counter("shardedkv.server_gets", "shardedkv",
                    "shard" + std::to_string(s))
            .set(servers_[s]->stats().gets);
    }
    return out;
}

void ShardedKvService::install_probes(rt::FabricSampler& sampler) const {
    for (std::size_t s = 0; s < racks_.size(); ++s) {
        const kv::KvCacheSwitchProgram* cache = racks_[s].cache.get();
        if (cache == nullptr) continue;
        sampler.add_probe("shardedkv.rack_hits", "shard" + std::to_string(s),
                          [cache] { return static_cast<double>(cache->stats().hits); });
    }
    const auto* edges = &edges_;
    sampler.add_probe("shardedkv.edge_hits", "edges", [edges] {
        std::uint64_t n = 0;
        for (const auto& e : *edges) n += e->stats().hits;
        return static_cast<double>(n);
    });
    fleet_->install_probes(sampler);
}

ShardedKvRunStats ShardedKvService::run(const kv::KvWorkload& workload) {
    schedule(workload);
    rt_->run();
    return collect();
}

}  // namespace daiet::dir
