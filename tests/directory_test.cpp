// Tests for the directory tenant and the sharded kv service: wire
// protocol, request steering to the owning rack, NACK-driven retry
// across unowned ranges, edge reply caches (lease grant/expiry,
// invalidate-on-PUT, stale-reply refusal), live range migration, and
// value parity between a sharded run and the unsharded reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "directory/sharded_service.hpp"
#include "kvcache/service.hpp"
#include "telemetry/service.hpp"

namespace daiet::dir {
namespace {

// ------------------------------------------------------------- protocol

TEST(DirProtocol, RoundTripsBothOps) {
    for (const DirectoryOp op : {DirectoryOp::kNack, DirectoryOp::kInvalidate}) {
        DirectoryMessage msg;
        msg.op = op;
        msg.seq = 0xfeedf00d;
        msg.tag = 0x0102030405060708ULL;
        msg.key = Key16{"user:nack"};
        const auto wire = serialize_directory(msg);
        ASSERT_EQ(wire.size(), kDirectoryMessageSize);
        EXPECT_TRUE(looks_like_directory(wire));
        EXPECT_EQ(parse_directory(wire), msg);
    }
}

TEST(DirProtocol, RejectsForeignTraffic) {
    const auto kv_wire = kv::serialize_kv(kv::KvMessage{});
    EXPECT_FALSE(looks_like_directory(kv_wire));
    EXPECT_THROW(parse_directory(kv_wire), BufferError);
    std::vector<std::byte> truncated{8, std::byte{0}};
    EXPECT_FALSE(looks_like_directory(truncated));
}

TEST(DirProtocol, RangePartitionIsStableAndTotal) {
    constexpr std::size_t kRanges = 64;
    std::vector<std::size_t> per_range(kRanges, 0);
    for (std::size_t i = 0; i < 4096; ++i) {
        const Key16 key = kv::KvService::key_of(i);
        const std::size_t r = range_of_key(key, kRanges);
        ASSERT_LT(r, kRanges);
        EXPECT_EQ(r, range_of_key(key, kRanges));  // deterministic
        ++per_range[r];
    }
    // The scrambled hash spreads sequential keys: no range may be
    // starved or own a quarter of the keyspace.
    for (const std::size_t n : per_range) {
        EXPECT_GT(n, 0u);
        EXPECT_LT(n, 4096u / 4);
    }
}

// -------------------------------------------------------------- helpers

rt::ClusterOptions fabric(std::size_t n_leaf, std::size_t hosts) {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = n_leaf;
    opts.n_spine = 2;
    opts.num_hosts = hosts;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    return opts;
}

/// 4 leaves x 2 hosts: servers on leaf0/leaf1 (hosts 0, 2), clients on
/// leaf2/leaf3 (hosts 4..7).
ShardedKvOptions two_rack_options() {
    ShardedKvOptions opts;
    opts.server_hosts = {0, 2};
    opts.client_hosts = {4, 5, 6, 7};
    return opts;
}

// ------------------------------------------------------------- steering

TEST(Directory, SteersRequestsToTheOwningRack) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvOptions opts = two_rack_options();
    opts.rack_caches = false;  // every request must reach its server
    opts.edge_caches = false;
    ShardedKvService svc{rt, opts};

    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.0;
    wl.requests_per_client = 100;
    wl.get_fraction = 1.0;
    wl.rebalance_interval = 0;
    // Below the racks' aggregate saturation knee: counters stay exact
    // (a retransmission would re-cross the directory and re-count).
    wl.request_interval = 60 * sim::kMicrosecond;
    const ShardedKvRunStats stats = svc.run(wl);
    EXPECT_EQ(stats.retransmits, 0u);

    // Every GET answered, every value the preloaded one.
    EXPECT_EQ(stats.get_replies, stats.gets_sent);
    EXPECT_EQ(stats.abandoned, 0u);
    for (std::size_t c = 0; c < svc.num_clients(); ++c) {
        for (const auto& rec : svc.client(c).log()) {
            ASSERT_TRUE(rec.found);
            std::uint64_t i = rec.key.to_u64() - 1;
            EXPECT_EQ(rec.value, kv::KvService::preload_value_of(i));
        }
    }
    // Both racks served traffic (the partition is spread), the
    // directory steered every request, nothing was bounced.
    EXPECT_EQ(stats.server_gets, stats.gets_sent);
    EXPECT_GT(svc.server(0).stats().gets, 0u);
    EXPECT_GT(svc.server(1).stats().gets, 0u);
    EXPECT_EQ(stats.directory.gets_steered, stats.gets_sent);
    EXPECT_EQ(stats.directory.nacks, 0u);

    // Each server holds exactly the keys its shard owns.
    for (std::size_t i = 0; i < wl.num_keys; ++i) {
        const Key16 key = kv::KvService::key_of(i);
        const std::size_t range = range_of_key(key, svc.directory().num_ranges());
        const int shard = svc.controller().shard_of(range);
        ASSERT_GE(shard, 0);
        EXPECT_TRUE(
            svc.server(static_cast<std::size_t>(shard)).store().contains(key));
        EXPECT_FALSE(
            svc.server(static_cast<std::size_t>(1 - shard)).store().contains(key));
    }
}

TEST(Directory, SramReportListsTheDirectoryTenant) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    // The mux on the directory chip must carry the owner table in its
    // per-tenant SRAM ledger, charged like any other tenant's state.
    auto* tenant = rt.tenant_at(svc.directory_node(), svc.directory().name());
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant, &svc.directory());
    EXPECT_GT(svc.directory().sram_bytes(), 0u);
    // Edge caches appear in their own chips' ledgers too.
    ASSERT_GT(svc.num_edges(), 0u);
    EXPECT_GT(svc.edge(0).sram_bytes(), 0u);
}

// ------------------------------------------------------- NACK and retry

TEST(Directory, NackedRequestsSelfCorrectAfterTheOwnerReturns) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvOptions opts = two_rack_options();
    opts.edge_caches = false;
    ShardedKvService svc{rt, opts};
    svc.preload(16);

    const Key16 key = kv::KvService::key_of(3);
    const std::size_t range = range_of_key(key, svc.directory().num_ranges());
    const sim::HostAddr owner = svc.directory().owner_of(range);
    ASSERT_NE(owner, 0u);

    sim::Simulator& sim = rt.simulator();
    // Unown the range, fire a GET into the gap, restore the owner
    // 150us later: the NACK-nudged retries must land it.
    svc.directory().set_owner(range, 0);
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(160 * sim::kMicrosecond,
                    [&] { svc.directory().set_owner(range, owner); });
    rt.run();

    const kv::KvClient::Stats stats = svc.client(0).stats();
    EXPECT_EQ(stats.get_replies, 1u);
    EXPECT_GE(stats.nacks, 1u);
    EXPECT_GE(stats.nack_retries, 1u);
    ASSERT_EQ(svc.client(0).log().size(), 1u);
    EXPECT_EQ(svc.client(0).log()[0].value, kv::KvService::preload_value_of(3));
    EXPECT_GE(svc.directory().stats().nacks, 1u);
}

// ----------------------------------------------------------- edge cache

TEST(EdgeCache, RepeatGetsServeFromTheClientTor) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(16);

    const Key16 key = kv::KvService::key_of(5);
    sim::Simulator& sim = rt.simulator();
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(100 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    // A *different* client behind the same ToR shares the lease.
    sim.schedule_at(150 * sim::kMicrosecond, [&] { svc.client(1).get(key); });
    rt.run();

    ASSERT_EQ(svc.client(0).log().size(), 2u);
    EXPECT_FALSE(svc.client(0).log()[0].from_edge);
    EXPECT_TRUE(svc.client(0).log()[1].from_edge);
    ASSERT_EQ(svc.client(1).log().size(), 1u);
    EXPECT_TRUE(svc.client(1).log()[0].from_edge);
    for (const auto& rec : svc.client(0).log()) {
        EXPECT_EQ(rec.value, kv::KvService::preload_value_of(5));
    }
}

TEST(EdgeCache, LeaseExpiryFallsBackToTheService) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvOptions opts = two_rack_options();
    opts.edge.lease_ttl = 30 * sim::kMicrosecond;
    ShardedKvService svc{rt, opts};
    svc.preload(16);

    const Key16 key = kv::KvService::key_of(7);
    sim::Simulator& sim = rt.simulator();
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(200 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    rt.run();

    ASSERT_EQ(svc.client(0).log().size(), 2u);
    EXPECT_FALSE(svc.client(0).log()[1].from_edge);  // lease ran out
    ShardedKvRunStats stats = svc.collect();
    EXPECT_GE(stats.edges.expired, 1u);
}

TEST(EdgeCache, RemotePutInvalidatesEveryEdgeLease) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(16);

    // Client 0 sits behind leaf2, client 2 behind leaf3: distinct
    // edges, so the write's invalidation must travel via the
    // directory's broadcast.
    const Key16 key = kv::KvService::key_of(9);
    constexpr WireValue kNewValue = 0xA0001;
    sim::Simulator& sim = rt.simulator();
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(100 * sim::kMicrosecond,
                    [&] { svc.client(2).put(key, kNewValue); });
    sim.schedule_at(300 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    rt.run();

    ASSERT_EQ(svc.client(0).log().size(), 2u);
    // The second read must see the remote write — a stale edge hit of
    // the pre-write value would be the lease protocol failing.
    EXPECT_EQ(svc.client(0).log()[1].value, kNewValue);
    const ShardedKvRunStats stats = svc.collect();
    EXPECT_GT(stats.directory.invalidations_sent, 0u);
    EXPECT_GE(stats.edges.invalidations + stats.edges.duplicate_invalidations,
              1u);
}

TEST(EdgeCache, WriterReadsItsOwnWrites) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(16);

    const Key16 key = kv::KvService::key_of(2);
    sim::Simulator& sim = rt.simulator();
    // get (caches the preload value) -> put -> get: the write barrier
    // orders the requests, the edge's inline invalidation plus the
    // epoch guard keep the cached pre-write value from resurfacing.
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(100 * sim::kMicrosecond,
                    [&] { svc.client(0).put(key, 0xA0002); });
    sim.schedule_at(101 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    rt.run();

    ASSERT_EQ(svc.client(0).log().size(), 3u);
    EXPECT_EQ(svc.client(0).log()[2].value, 0xA0002u);
}

// ------------------------------------------------------------ migration

TEST(Migration, MovesTheRangeAndLosesNothing) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(64);

    const Key16 key = kv::KvService::key_of(11);
    const std::size_t range = range_of_key(key, svc.directory().num_ranges());
    const int before = svc.controller().shard_of(range);
    ASSERT_GE(before, 0);
    const auto target = static_cast<std::size_t>(1 - before);

    sim::Simulator& sim = rt.simulator();
    // Reads flow while the range migrates under them.
    for (int i = 0; i < 30; ++i) {
        sim.schedule_at((10 + 20 * i) * sim::kMicrosecond,
                        [&] { svc.client(0).get(key); });
    }
    sim.schedule_at(100 * sim::kMicrosecond,
                    [&] { EXPECT_TRUE(svc.controller().migrate(range, target)); });
    rt.run();

    EXPECT_EQ(svc.controller().shard_of(range), static_cast<int>(target));
    EXPECT_EQ(svc.controller().stats().migrations_completed, 1u);
    EXPECT_GT(svc.controller().stats().keys_moved, 0u);
    // The key lives at the new rack only.
    EXPECT_TRUE(svc.server(target).store().contains(key));
    EXPECT_FALSE(
        svc.server(static_cast<std::size_t>(before)).store().contains(key));
    // Every read completed with the (never-written) preload value.
    const kv::KvClient::Stats stats = svc.client(0).stats();
    EXPECT_EQ(stats.get_replies, 30u);
    EXPECT_EQ(stats.abandoned, 0u);
    for (const auto& rec : svc.client(0).log()) {
        EXPECT_EQ(rec.value, kv::KvService::preload_value_of(11));
    }
}

TEST(Migration, WritesAcrossTheMoveAreNeverLostOrStale) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(64);

    const Key16 key = kv::KvService::key_of(13);
    const std::size_t range = range_of_key(key, svc.directory().num_ranges());
    const int before = svc.controller().shard_of(range);
    ASSERT_GE(before, 0);
    const auto target = static_cast<std::size_t>(1 - before);

    sim::Simulator& sim = rt.simulator();
    // Writer (client 2, leaf3) bumps the value; reader (client 0,
    // leaf2) polls. Versions are encoded in the value.
    for (int i = 0; i < 20; ++i) {
        const auto value = static_cast<WireValue>(0xA1000 + i);
        sim.schedule_at((15 + 30 * i) * sim::kMicrosecond,
                        [&svc, key, value] { svc.client(2).put(key, value); });
    }
    for (int i = 0; i < 60; ++i) {
        sim.schedule_at((10 + 10 * i) * sim::kMicrosecond,
                        [&svc, key] { svc.client(0).get(key); });
    }
    sim.schedule_at(200 * sim::kMicrosecond,
                    [&] { svc.controller().migrate(range, target); });
    rt.run();

    // The reader's view never goes backwards (preload counts as
    // version 0, writer values are monotone by construction).
    WireValue last = 0;
    for (const auto& rec : svc.client(0).log()) {
        if (rec.op != kv::KvOp::kGet) continue;
        const WireValue version = rec.value >= 0xA1000 ? rec.value : 0;
        EXPECT_GE(version, last) << "stale read after a newer value was seen";
        last = std::max(last, version);
    }
    // All 20 writes committed; the final value survived the move at
    // the new rack.
    EXPECT_EQ(svc.client(2).stats().put_acks, 20u);
    const auto it = svc.server(target).store().find(key);
    ASSERT_NE(it, svc.server(target).store().end());
    EXPECT_EQ(it->second, 0xA1000u + 19);
    EXPECT_EQ(svc.controller().stats().migrations_completed, 1u);
}

// --------------------------------------------------------------- parity

TEST(ShardedParity, ShardedRunMatchesUnshardedReference) {
    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.9;
    wl.requests_per_client = 150;
    wl.get_fraction = 0.8;
    wl.partition_keys = true;  // single writer+reader per key
    wl.request_interval = 15 * sim::kMicrosecond;
    wl.rebalance_interval = 50 * sim::kMicrosecond;

    std::vector<kv::KvClient::History> sharded;
    {
        rt::ClusterRuntime rt{fabric(4, 8)};
        ShardedKvService svc{rt, two_rack_options()};
        svc.run(wl);
        sharded = svc.fleet().histories();
    }
    std::vector<kv::KvClient::History> reference;
    {
        rt::ClusterRuntime rt{fabric(4, 8)};
        kv::KvServiceOptions opts;
        opts.server_host = 0;
        opts.client_hosts = {4, 5, 6, 7};
        opts.cache_enabled = false;
        kv::KvService svc{rt, opts};
        svc.run(wl);
        reference = svc.fleet().histories();
    }
    ASSERT_EQ(sharded.size(), reference.size());
    EXPECT_EQ(sharded, reference);
}

// ----------------------------------------------------- telemetry-driven

TEST(Rebalance, TelemetryRankingMovesHotRangesOffTheHotRack) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    telemetry::TelemetryOptions tel_opts;
    tel_opts.collector_host = 7;
    tel_opts.config.hot_threshold = 1;
    telemetry::TelemetryService tel{rt, tel_opts};
    ShardedKvOptions opts = two_rack_options();
    opts.client_hosts = {4, 5, 6};
    ShardedKvService svc{rt, opts};

    // Concentrate every request on keys of one shard: that rack is hot
    // by construction, and a rebalance pass must move a range off it.
    svc.preload(64);
    const int hot_shard = svc.controller().shard_of(
        range_of_key(kv::KvService::key_of(0), svc.directory().num_ranges()));
    ASSERT_GE(hot_shard, 0);
    std::vector<Key16> hot_keys;
    for (std::size_t i = 0; i < 64 && hot_keys.size() < 8; ++i) {
        const Key16 key = kv::KvService::key_of(i);
        if (svc.controller().shard_of(range_of_key(
                key, svc.directory().num_ranges())) == hot_shard) {
            hot_keys.push_back(key);
        }
    }
    ASSERT_GE(hot_keys.size(), 4u);

    sim::Simulator& sim = rt.simulator();
    for (int i = 0; i < 200; ++i) {
        const Key16 key = hot_keys[static_cast<std::size_t>(i) % hot_keys.size()];
        sim.schedule_at((10 + 5 * i) * sim::kMicrosecond,
                        [&svc, key, i] { svc.client(i % 3).get(key); });
    }
    tel.start(100 * sim::kMicrosecond, 1200 * sim::kMicrosecond);
    svc.schedule_rebalances(
        250 * sim::kMicrosecond, 1200 * sim::kMicrosecond,
        tel.collector().hot_key_source_for(svc.directory_node()));
    rt.run();

    EXPECT_GE(svc.controller().stats().rebalances, 1u);
    EXPECT_GE(svc.controller().stats().migrations_completed, 1u);
    // Every read still completed, with the preload values.
    const kv::KvClient::Stats c0 = svc.client(0).stats();
    EXPECT_EQ(c0.abandoned, 0u);
}

// --------------------------------------------------------------- golden

/// FNV-1a over every client's sorted (req_id, op, key, value) outcomes.
std::uint64_t history_digest(const std::vector<kv::KvClient::History>& histories) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const kv::KvClient::History& history : histories) {
        mix(history.size());
        for (const auto& [req_id, op, key, value] : history) {
            mix(req_id);
            mix(static_cast<std::uint64_t>(op));
            mix(fnv1a64(key.bytes()));
            mix(value);
        }
    }
    return h;
}

/// What a golden run pins: the reply-history digest, each rack
/// controller's {rebalances, promotions, evictions, shadow_promotions,
/// flight_resets}, and the last completion time.
struct GoldenRun {
    std::uint64_t digest{0};
    std::vector<std::array<std::uint64_t, 5>> racks;
    sim::SimTime last_completion{0};
    std::uint64_t migrations{0};
    bool all_answered{false};
};

/// A fixed sharded run exercising the rack-cache control plane: lossy
/// links (retransmits, reply-cache replays, shadow promotions and
/// flight resets), writes, hot-set drift and rack rebalances every
/// 50 µs. `migrate`: telemetry-ranked directory rebalances move ranges
/// between racks mid-run. `sketch`: racks 2-3 promote sketch-driven off
/// their ToR's telemetry (the others by EWMA).
GoldenRun golden_run(bool migrate, bool sketch) {
    rt::ClusterOptions fab = fabric(6, 12);
    fab.seed = 5;
    fab.link.loss_probability = 0.002;
    rt::ClusterRuntime rt{fab};
    telemetry::TelemetryOptions tel_opts;
    tel_opts.collector_host = 1;
    telemetry::TelemetryService tel{rt, tel_opts};
    ShardedKvOptions opts;
    opts.server_hosts = {0, 2, 4, 6};
    opts.client_hosts = {8, 9, 10, 11};
    opts.config.cache_slots = 16;
    ShardedKvService svc{rt, opts};

    kv::KvWorkload wl;
    wl.num_keys = 512;
    wl.requests_per_client = 1500;
    wl.get_fraction = 0.75;
    wl.partition_keys = true;
    wl.request_interval = 3 * sim::kMicrosecond;
    wl.rebalance_interval = 50 * sim::kMicrosecond;
    wl.hotset_rotate_every = 300;
    wl.hotset_rotate_by = 24;
    wl.seed = 11;
    const sim::SimTime horizon = 5 * sim::kMillisecond;
    tel.start(100 * sim::kMicrosecond, horizon);
    if (migrate) {
        svc.schedule_rebalances(250 * sim::kMicrosecond, horizon,
                                tel.collector().hot_key_source_for(svc.directory_node()));
    }
    if (sketch) {
        for (std::size_t r = 2; r < 4; ++r) {
            const sim::Host& server = rt.host(opts.server_hosts[r]);
            svc.rack_controller(r)->set_hot_key_source(tel.collector().hot_key_source_for(
                rt.network().edge_switch_of(server)->id()));
        }
    }
    const ShardedKvRunStats stats = svc.run(wl);
    EXPECT_EQ(stats.abandoned, 0u);

    GoldenRun out;
    out.digest = history_digest(svc.fleet().histories());
    for (std::size_t r = 0; r < svc.num_shards(); ++r) {
        const kv::KvCacheController::Stats& c = svc.rack_controller(r)->stats();
        out.racks.push_back({c.rebalances, c.promotions, c.evictions, c.shadow_promotions,
                             c.flight_resets});
    }
    out.last_completion = stats.last_completion;
    out.migrations = stats.control.migrations_completed;
    out.all_answered = stats.completed() == stats.gets_sent + stats.puts_sent;
    return out;
}

// Both runs' values were recorded before the controller and reply-cache
// rewrites (scan-pruned ReplyCache, node-based controller state).
TEST(ShardedGolden, EwmaRackCachesAcrossMigrationsArePinned) {
    const GoldenRun run = golden_run(/*migrate=*/true, /*sketch=*/false);
    EXPECT_EQ(run.digest, 0xc30f78e041044b0dULL);
    EXPECT_EQ(run.last_completion, 16'445'860);
    EXPECT_EQ(run.migrations, 8u);
    const std::vector<std::array<std::uint64_t, 5>> racks{
        {90, 182, 166, 5, 9},
        {90, 205, 189, 2, 7},
        {90, 165, 149, 2, 10},
        {90, 171, 155, 0, 10},
    };
    EXPECT_EQ(run.racks, racks);
}

TEST(ShardedGolden, SketchAndEwmaRackCachesArePinned) {
    const GoldenRun run = golden_run(/*migrate=*/false, /*sketch=*/true);
    EXPECT_EQ(run.digest, 0xc30f78e041044b0dULL);
    EXPECT_EQ(run.last_completion, 14'442'480);
    EXPECT_EQ(run.migrations, 0u);
    const std::vector<std::array<std::uint64_t, 5>> racks{
        {90, 180, 164, 3, 10},
        {90, 210, 194, 0, 8},
        {90, 109, 93, 14, 14},
        {90, 87, 71, 7, 11},
    };
    EXPECT_EQ(run.racks, racks);
}

// A sketch-driven rack cache whose range migrates away still holds the
// range's keys, which the sketch no longer reports: the controller must
// evict them (there is no store value to refresh them with), not fail.
TEST(ShardedGolden, SketchRackCachesSurviveMigrations) {
    const GoldenRun run = golden_run(/*migrate=*/true, /*sketch=*/true);
    EXPECT_GT(run.migrations, 0u);
    EXPECT_TRUE(run.all_answered);
    EXPECT_EQ(run.digest, 0xc30f78e041044b0dULL);
}

}  // namespace
}  // namespace daiet::dir
