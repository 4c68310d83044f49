// Tests for the in-network key-value cache subsystem: wire protocol,
// hit-rate behaviour under skew, write-through invalidation coherence,
// the cache-disabled baseline, coexistence with DAIET aggregation on one
// fabric, and the client fleet's closed-loop driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "kvcache/service.hpp"
#include "runtime/job_driver.hpp"

namespace daiet::kv {
namespace {

// ------------------------------------------------------------- protocol

TEST(KvProtocol, RoundTripsAllOps) {
    for (const KvOp op :
         {KvOp::kGet, KvOp::kGetReply, KvOp::kPut, KvOp::kPutAck}) {
        KvMessage msg;
        msg.op = op;
        msg.flags = kKvFlagFound | kKvFlagFromSwitch;
        msg.req_id = 0xdeadbeef;
        msg.seq = 0xfeedf00d;
        msg.key = Key16{"user:42"};
        msg.value = 0x01020304;
        const auto wire = serialize_kv(msg);
        ASSERT_EQ(wire.size(), kKvMessageSize);
        EXPECT_TRUE(looks_like_kv(wire));
        EXPECT_EQ(parse_kv(wire), msg);
    }
}

TEST(KvProtocol, RejectsForeignTraffic) {
    const auto daiet_end = serialize_end(3);
    EXPECT_FALSE(looks_like_kv(daiet_end));
    EXPECT_THROW(parse_kv(daiet_end), BufferError);
    std::vector<std::byte> truncated{8, std::byte{0}};
    EXPECT_FALSE(looks_like_kv(truncated));
}

// -------------------------------------------------------------- helpers

rt::ClusterOptions leaf_spine_options(std::size_t hosts) {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.num_hosts = hosts;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    return opts;
}

rt::ClusterOptions star_options(std::size_t hosts) {
    rt::ClusterOptions opts;
    opts.num_hosts = hosts;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    return opts;
}

KvServiceOptions cache_options(std::size_t slots) {
    KvServiceOptions opts;
    opts.cache_enabled = slots > 0;
    if (slots > 0) opts.config.cache_slots = slots;
    return opts;
}

// ------------------------------------------------------------- hit rate

TEST(KvCache, ZipfHitRateClearsBarAndBeatsUniform) {
    KvWorkload workload;
    workload.num_keys = 512;
    workload.requests_per_client = 400;
    workload.rebalance_interval = 50 * sim::kMicrosecond;

    workload.zipf_s = 0.99;
    rt::ClusterRuntime skewed_rt{leaf_spine_options(5)};
    KvService skewed{skewed_rt, cache_options(64)};
    const KvRunStats skewed_stats = skewed.run(workload);

    workload.zipf_s = 0.0;  // uniform popularity
    rt::ClusterRuntime uniform_rt{leaf_spine_options(5)};
    KvService uniform{uniform_rt, cache_options(64)};
    const KvRunStats uniform_stats = uniform.run(workload);

    // Every request got exactly one reply.
    EXPECT_EQ(skewed_stats.get_replies, skewed_stats.gets_sent);
    EXPECT_EQ(uniform_stats.get_replies, uniform_stats.gets_sent);
    // A cache holding 64 of 512 keys absorbs most of a Zipf(0.99)
    // stream but only ~1/8th of a uniform one.
    EXPECT_GT(skewed_stats.hit_rate(), 0.5);
    EXPECT_LT(uniform_stats.hit_rate(), 0.3);
    EXPECT_GT(skewed_stats.hit_rate(), uniform_stats.hit_rate() + 0.2);
    // Every GET was served by the switch or the server. Equality would
    // need a quiet fabric: this workload saturates the server so hard
    // that the retry transport spuriously retransmits queued GETs, and
    // a retried GET can legally be served twice — by the server (the
    // original copy, still queued) and by the switch (the retry, after
    // a promotion). Dedup keeps the *client-visible* accounting exact.
    EXPECT_GE(skewed_stats.server_gets + skewed_stats.switch_hits,
              skewed_stats.gets_sent);
}

TEST(KvCache, CacheCutsMeanLatencyAndServerLoad) {
    KvWorkload workload;
    workload.num_keys = 512;
    workload.zipf_s = 0.99;
    workload.requests_per_client = 300;
    workload.rebalance_interval = 50 * sim::kMicrosecond;

    rt::ClusterRuntime cached_rt{leaf_spine_options(5)};
    KvService cached{cached_rt, cache_options(64)};
    const KvRunStats with_cache = cached.run(workload);

    rt::ClusterRuntime baseline_rt{leaf_spine_options(5)};
    KvService baseline{baseline_rt, cache_options(0)};
    const KvRunStats without = baseline.run(workload);

    EXPECT_EQ(without.switch_hits, 0U);
    EXPECT_GT(with_cache.switch_hits, 0U);
    // Cached GETs skip the server's queue and service time entirely.
    EXPECT_LT(with_cache.mean_get_ns, without.mean_get_ns);
    EXPECT_LT(with_cache.server_gets, without.server_gets);
}

// ------------------------------------------------------------ coherence

TEST(KvCache, PutInvalidationPreventsStaleReads) {
    rt::ClusterRuntime rt{star_options(3)};
    KvService svc{rt, cache_options(8)};
    svc.preload(4);
    const Key16 k = KvService::key_of(0);

    // Miss, then controller promotion, then a switch-served hit.
    svc.client(0).get(k);
    rt.run();
    ASSERT_EQ(svc.client(0).log().size(), 1U);
    EXPECT_FALSE(svc.client(0).log()[0].from_switch);
    EXPECT_EQ(svc.client(0).log()[0].value, KvService::preload_value_of(0));

    svc.controller()->rebalance();
    ASSERT_TRUE(svc.cache()->contains(k));

    svc.client(0).get(k);
    rt.run();
    ASSERT_EQ(svc.client(0).log().size(), 2U);
    EXPECT_TRUE(svc.client(0).log()[1].from_switch);
    EXPECT_EQ(svc.client(0).log()[1].value, KvService::preload_value_of(0));

    // A write from the *other* client invalidates in-line; the ack
    // refreshes the cached copy with the server-serialized value.
    svc.client(1).put(k, 0xAA);
    rt.run();
    EXPECT_EQ(svc.cache()->stats().invalidations, 1U);
    EXPECT_EQ(svc.cache()->stats().refreshes, 1U);

    svc.client(0).get(k);
    rt.run();
    ASSERT_EQ(svc.client(0).log().size(), 3U);
    EXPECT_EQ(svc.client(0).log()[2].value, 0xAAU);  // never the stale preload
    EXPECT_TRUE(svc.client(0).log()[2].from_switch);

    // In-flight window: a GET that reaches the switch after the PUT
    // invalidated the slot but before the ack re-armed it must fall
    // through to the server and read the new value.
    sim::Simulator& sim = rt.simulator();
    const sim::SimTime t0 = sim.now();
    sim.schedule_at(t0 + 1, [&svc] { svc.client(1).put(svc.key_of(0), 0xBB); });
    // The PUT passes the ToR at ~t0+1us; its ack returns after the 10us
    // service time. A GET two microseconds behind lands in the gap.
    sim.schedule_at(t0 + 2 * sim::kMicrosecond,
                    [&svc] { svc.client(0).get(svc.key_of(0)); });
    rt.run();
    const auto& gap_read = svc.client(0).log().back();
    EXPECT_EQ(gap_read.value, 0xBBU);
    EXPECT_FALSE(gap_read.from_switch);  // served by the server, not stale SRAM
}

TEST(KvCache, CacheIsScopedToItsServerAddress) {
    // Two kv servers on the same UDP port behind one ToR. The cache
    // tenant belongs to h0's service; h1's traffic crosses the same
    // switch and must pass through untouched — even for a key the
    // cache holds (with a different value).
    rt::ClusterRuntime rt{star_options(4)};
    KvServiceOptions opts = cache_options(8);
    opts.server_host = 0;
    opts.client_hosts = {2};
    KvService svc{rt, opts};
    svc.preload(4);
    const Key16 k = KvService::key_of(0);

    svc.client(0).get(k);
    rt.run();
    svc.controller()->rebalance();
    ASSERT_TRUE(svc.cache()->contains(k));

    KvStoreServer foreign_server{rt.host(1), opts.config};
    foreign_server.preload(k, 0x5555);
    KvClient foreign_client{rt.host(3), opts.config, rt.host(1).addr()};
    foreign_client.get(k);
    rt.run();

    ASSERT_EQ(foreign_client.log().size(), 1U);
    EXPECT_EQ(foreign_client.log()[0].value, 0x5555U);  // h1's value, not h0's
    EXPECT_FALSE(foreign_client.log()[0].from_switch);
    // The cache never even classified the foreign service's GET.
    EXPECT_EQ(svc.cache()->stats().gets_seen, 1U);
}

// ---------------------------------------------------- baseline parity

TEST(KvCache, DisabledBaselineReturnsIdenticalValues) {
    KvWorkload workload;
    workload.num_keys = 256;
    workload.zipf_s = 0.99;
    workload.requests_per_client = 200;
    workload.get_fraction = 0.8;
    workload.partition_keys = true;  // single writer per key
    workload.rebalance_interval = 40 * sim::kMicrosecond;

    rt::ClusterRuntime cached_rt{leaf_spine_options(5)};
    KvService cached{cached_rt, cache_options(32)};
    cached.run(workload);

    rt::ClusterRuntime plain_rt{leaf_spine_options(5)};
    KvService plain{plain_rt, cache_options(0)};
    const KvRunStats plain_stats = plain.run(workload);

    EXPECT_EQ(plain_stats.switch_hits, 0U);
    EXPECT_GT(cached.collect().switch_hits, 0U);
    ASSERT_EQ(cached.num_clients(), plain.num_clients());
    for (std::size_t c = 0; c < cached.num_clients(); ++c) {
        // Same ops, same keys, byte-identical reply values — caching
        // changes *where* a reply comes from, never *what* it says.
        EXPECT_EQ(cached.client(c).history(), plain.client(c).history());
    }
}

// ---------------------------------------------------------- coexistence

void produce_pairs(std::size_t mapper, MapperSender& tx) {
    for (int i = 0; i < 60; ++i) {
        tx.send(KvPair{Key16{"agg_k" + std::to_string(i % 12)},
                       wire_from_i32(static_cast<std::int32_t>(mapper + 1))});
    }
}

std::map<std::string, std::int64_t> as_map(const ReducerReceiver& rx) {
    std::map<std::string, std::int64_t> out;
    for (const auto& [key, value] : rx.aggregated()) {
        out[key.to_string()] = i32_from_wire(value);
    }
    return out;
}

TEST(KvCoexistence, KvWorkloadAndAggregationJobShareOneFabric) {
    // Six hosts behind one programmable ToR: h0 serves kv to h1/h2
    // while h3/h4 feed an aggregation tree rooted at h5.
    KvWorkload workload;
    workload.num_keys = 128;
    workload.zipf_s = 0.99;
    workload.requests_per_client = 150;
    workload.get_fraction = 0.8;
    workload.partition_keys = true;
    workload.rebalance_interval = 40 * sim::kMicrosecond;

    KvServiceOptions kv_opts = cache_options(16);
    kv_opts.server_host = 0;
    kv_opts.client_hosts = {1, 2};

    rt::JobSpec agg_spec;
    agg_spec.name = "coexist";

    // --- serial reference runs -------------------------------------------
    KvClient::History serial_kv[2];
    std::size_t serial_sram_used = 0;
    {
        rt::ClusterRuntime rt{star_options(6)};
        KvService svc{rt, kv_opts};
        svc.run(workload);
        serial_kv[0] = svc.client(0).history();
        serial_kv[1] = svc.client(1).history();
    }
    std::map<std::string, std::int64_t> serial_agg;
    {
        rt::ClusterRuntime rt{star_options(6)};
        rt::JobSpec spec = agg_spec;
        rt::JobGroup group;
        group.reducer = &rt.host(5);
        group.mappers = {&rt.host(3), &rt.host(4)};
        spec.groups.push_back(group);
        rt::JobDriver driver{rt, spec};
        driver.run_round(
            [](std::size_t, std::size_t mapper, MapperSender& tx) {
                produce_pairs(mapper, tx);
            },
            [&serial_agg](std::size_t, ReducerReceiver& rx) {
                serial_agg = as_map(rx);
            });
        serial_sram_used = rt.max_switch_sram_used();
    }

    // --- combined run: both tenants, one fabric, one simulation ----------
    rt::ClusterRuntime rt{star_options(6)};
    KvService svc{rt, kv_opts};
    rt::JobSpec spec = agg_spec;
    rt::JobGroup group;
    group.reducer = &rt.host(5);
    group.mappers = {&rt.host(3), &rt.host(4)};
    spec.groups.push_back(group);
    rt::JobDriver driver{rt, spec};

    svc.schedule(workload);
    driver.begin_round();
    auto receivers = driver.bind_receivers();
    driver.schedule_sends([](std::size_t, std::size_t mapper, MapperSender& tx) {
        produce_pairs(mapper, tx);
    });
    rt.run();
    driver.verify(receivers);

    // Both tenants produced results identical to their serial runs.
    EXPECT_EQ(svc.client(0).history(), serial_kv[0]);
    EXPECT_EQ(svc.client(1).history(), serial_kv[1]);
    EXPECT_EQ(as_map(*receivers[0]), serial_agg);

    // And both actually exercised the shared chip: in-network hits,
    // in-network combines, and a SramBook charged by the two programs
    // together (strictly more than the aggregation-only deployment).
    EXPECT_GT(svc.collect().switch_hits, 0U);
    EXPECT_GT(rt.program_at(svc.cache_node())->tree_stats(driver.tree(0)).pairs_combined,
              0U);
    EXPECT_GT(rt.chip_at(svc.cache_node()).sram().used_bytes(), serial_sram_used);
}

// ------------------------------------------------------- client fleet

/// One closed-loop run of a bare fleet (server on host 0, a client on
/// every other host of a 2-leaf fabric). Returns each client's log and
/// the most requests any client was seen holding in flight.
struct ClosedLoopRun {
    std::vector<std::vector<KvClient::OpRecord>> logs;
    std::size_t peak_outstanding{0};
};

ClosedLoopRun run_closed_loop(const KvWorkload& workload) {
    rt::ClusterRuntime rt{leaf_spine_options(8)};
    KvStoreServer server{rt.host(0), KvConfig{}};
    for (std::size_t i = 0; i < workload.num_keys; ++i) {
        server.preload(KvService::key_of(i), KvService::preload_value_of(i));
    }
    const std::size_t servers[] = {0};
    KvClientFleet fleet{rt, KvConfig{}, server.addr(), {}, servers, "kv"};
    fleet.start_closed_loop(workload);

    // A checker event every 100 ns until every stream has drained.
    ClosedLoopRun out;
    std::function<void()> check = [&] {
        bool drained = true;
        for (std::size_t i = 0; i < fleet.num_clients(); ++i) {
            out.peak_outstanding =
                std::max(out.peak_outstanding, fleet.client(i).outstanding());
            drained = drained && fleet.client(i).log().size() == workload.requests_per_client;
        }
        if (!drained) rt.simulator().schedule_after(100 * sim::kNanosecond, check);
    };
    rt.simulator().schedule_at(0, check);
    rt.run();
    for (std::size_t i = 0; i < fleet.num_clients(); ++i) {
        out.logs.push_back(fleet.client(i).log());
    }
    return out;
}

TEST(KvClientFleet, ClosedLoopHoldsTheWindowAndIsDeterministic) {
    KvWorkload workload;
    workload.num_keys = 128;
    workload.requests_per_client = 120;
    workload.get_fraction = 0.75;
    const ClosedLoopRun first = run_closed_loop(workload);
    ASSERT_EQ(first.logs.size(), 7u);
    EXPECT_EQ(first.peak_outstanding, kClosedLoopWindow);
    for (const auto& log : first.logs) {
        EXPECT_EQ(log.size(), workload.requests_per_client);
    }

    const ClosedLoopRun second = run_closed_loop(workload);
    ASSERT_EQ(second.logs.size(), first.logs.size());
    const auto fields = [](const KvClient::OpRecord& r) {
        return std::tuple{r.req_id, r.op,      r.key,       r.value,
                          r.found,  r.latency, r.completed};
    };
    for (std::size_t c = 0; c < first.logs.size(); ++c) {
        ASSERT_EQ(second.logs[c].size(), first.logs[c].size());
        for (std::size_t r = 0; r < first.logs[c].size(); ++r) {
            EXPECT_EQ(fields(second.logs[c][r]), fields(first.logs[c][r]))
                << "client " << c << " record " << r;
        }
    }
}

// ------------------------------------------------------------- registry

TEST(KvRegistry, TenantLookupAndMisuse) {
    rt::ClusterRuntime rt{star_options(3)};
    const sim::NodeId tor = rt.daiet_switches()[0]->id();
    // The DAIET program is tenant "daiet" of every programmable switch.
    EXPECT_EQ(rt.tenant_at(tor, "daiet"), rt.program_at(tor));

    KvService svc{rt, cache_options(8)};
    // The cache tenant's name is instance-scoped by server address.
    EXPECT_EQ(rt.tenant_at(tor, svc.cache()->name()), svc.cache());
    EXPECT_EQ(svc.cache()->shared_router(), rt.router_at(tor));

    // A second service claiming the same switch for the same server
    // is a deployment conflict: rejected loudly, not aborted.
    EXPECT_THROW(
        rt.add_tenant(tor, std::make_shared<KvCacheSwitchProgram>(
                               KvConfig{}, rt.host(0).addr(), rt.chip_at(tor),
                               rt.router_at(tor))),
        std::runtime_error);

    // A lossy fabric used to be rejected (a dropped ACK would wedge the
    // coherence counters); the retry transport makes it a supported
    // deployment — both cached and uncached services construct fine.
    rt::ClusterOptions lossy = star_options(3);
    lossy.link.loss_probability = 0.01;
    rt::ClusterRuntime lossy_uncached_rt{lossy};
    KvService lossy_uncached{lossy_uncached_rt, cache_options(0)};
    rt::ClusterRuntime lossy_cached_rt{lossy};
    KvService lossy_cached{lossy_cached_rt, cache_options(8)};
    EXPECT_NE(lossy_cached.cache(), nullptr);

    // Hosts are not programmable switches.
    const sim::NodeId host_node = rt.host(0).id();
    EXPECT_THROW(rt.router_at(host_node), std::runtime_error);
    EXPECT_THROW(
        rt.add_tenant(host_node,
                      std::make_shared<KvCacheSwitchProgram>(
                          KvConfig{}, rt.host(0).addr(), rt.chip_at(tor),
                          rt.router_at(tor))),
        std::runtime_error);
    EXPECT_EQ(rt.tenant_at(host_node, "daiet"), nullptr);
}

}  // namespace
}  // namespace daiet::kv
