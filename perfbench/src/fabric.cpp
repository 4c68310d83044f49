// Workload `fabric`: the multi-tenant k=8 fat tree, sequential and
// loss-free.
//
// 128 hosts, 80 switches. One fabric carries three tenants at once: a
// closed-loop kv service with a ToR cache (32 clients, 8 in flight each),
// 4 aggregation groups x 16 mappers x 4 rounds on multi-level trees, and
// a cross-pod UDP echo sweep whose host work is a counter decrement. Most
// of the cost is the per-hop path: event queue, links, mux parse and
// dispatch, FabricRouter::forward. The traced pass also runs the mix once
// under the parallel simulator (2 threads, profiler on).
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "checks.hpp"
#include "closed_loop.hpp"
#include "common/framebuf.hpp"
#include "common/rng.hpp"
#include "kvcache/service.hpp"
#include "micro.hpp"
#include "runtime/job_driver.hpp"
#include "trace/profiler.hpp"

namespace perfbench {

namespace {

using namespace daiet;

constexpr std::size_t kArity = 8;
constexpr std::size_t kHosts = kArity * kArity * kArity / 4;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kRequestsPerClient = 1200;
constexpr std::size_t kNumKeys = 1024;
constexpr std::size_t kGroups = 4;
constexpr std::size_t kMappersPerGroup = 16;
constexpr std::size_t kPairsPerMapper = 256;
constexpr std::size_t kRounds = 4;
constexpr std::uint32_t kEchoLegs = 36'000;
constexpr std::uint16_t kEchoPort = 47001;
constexpr std::size_t kServerHost = 0;

struct Deployment {
    std::unique_ptr<rt::ClusterRuntime> runtime;
    std::unique_ptr<kv::KvService> service;
    std::vector<std::size_t> client_hosts;
    std::unique_ptr<rt::JobDriver> driver;
    std::vector<std::size_t> echo_hosts;  ///< initiators first, then their peers
    std::vector<std::uint64_t> echo_rx;
    std::vector<std::vector<checks::GroupSums>> results;  ///< [round][group]
    kv::KvRunStats stats;
    std::uint64_t frame_heap_allocs{0};

    std::size_t echo_pairs() const { return echo_hosts.size() / 2; }

    /// One echo leg from endpoint `from` to its partner.
    void echo_send(std::size_t from, std::uint32_t remaining) {
        const std::size_t n = echo_pairs();
        const std::size_t to = from < n ? from + n : from - n;
        std::byte buf[sizeof remaining];
        std::memcpy(buf, &remaining, sizeof remaining);
        runtime->host(echo_hosts[from])
            .udp_send(runtime->host(echo_hosts[to]).addr(), kEchoPort, kEchoPort, buf);
    }
};

class Fabric final : public Workload {
public:
    explicit Fabric(std::uint64_t seed) : seed_{seed} {}

    double setup() override {
        live_.reset();
        Ledger off{false};
        const auto t0 = Clock::now();
        live_ = deploy(off, 0);
        const double seconds = seconds_since(t0);
        prepare_checks();
        return seconds;
    }
    bool setup_per_rep() const override { return true; }
    std::size_t min_setups() const override { return 3; }

    RepResult run_rep() override {
        Ledger off{false};
        return execute(*live_, off);
    }

    TraceReport trace(const std::string& ledger_path) override;

private:
    std::unique_ptr<Deployment> deploy(Ledger& ledger, std::size_t threads);
    RepResult execute(Deployment& d, Ledger& ledger) const;

    /// The benchmark's own expectations, from the inputs alone.
    void prepare_checks() {
        if (!expected_.empty()) return;
        for (const auto& ops : ops_) checks::allow_puts(ops, allowed_);
        for (std::size_t g = 0; g < kGroups; ++g) {
            std::vector<KvPair> all;
            for (const auto& pairs : pairs_[g]) all.insert(all.end(), pairs.begin(), pairs.end());
            expected_.push_back(checks::sum_pairs(all));
        }
    }

    std::uint64_t seed_;
    std::vector<std::vector<kv::KvOpSpec>> ops_;         ///< per kv client
    std::vector<std::vector<std::vector<KvPair>>> pairs_; ///< [group][mapper]
    checks::AllowedValues allowed_;
    std::vector<checks::GroupSums> expected_;
    std::unique_ptr<Deployment> live_;
};

std::unique_ptr<Deployment> Fabric::deploy(Ledger& ledger, std::size_t threads) {
    auto d = std::make_unique<Deployment>();
    for (std::size_t i = 1; i < kHosts; i += 4) d->client_hosts.push_back(i);
    kv::KvWorkload wl;
    wl.num_keys = kNumKeys;
    wl.zipf_s = 0.99;
    wl.requests_per_client = kRequestsPerClient;
    wl.get_fraction = 0.8;
    wl.seed = seed_;
    {
        Ledger::Scope span{ledger, "inputs.build"};
        ops_.clear();
        for (std::size_t ci = 0; ci < d->client_hosts.size(); ++ci) {
            ops_.push_back(kv::client_op_stream(wl, ci, d->client_hosts.size()));
        }
        // Keys shared across a group's mappers, so the trees combine.
        pairs_.assign(kGroups, {});
        for (std::size_t g = 0; g < kGroups; ++g) {
            for (std::size_t m = 0; m < kMappersPerGroup; ++m) {
                Rng rng{SplitMix64{seed_ ^ (g << 40) ^ (m << 20)}.next()};
                std::vector<KvPair> pairs;
                for (std::size_t p = 0; p < kPairsPerMapper; ++p) {
                    const std::uint64_t key = 0x6000 + (g << 8) + rng.next_u64() % 97;
                    pairs.push_back({Key16::from_u64(key),
                                     static_cast<WireValue>(1 + (rng.next_u64() & 0xff))});
                }
                pairs_[g].push_back(std::move(pairs));
            }
        }
    }
    {
        Ledger::Scope span{ledger, "runtime.build"};
        rt::ClusterOptions copts;
        copts.topology = rt::TopologyKind::kFatTree;
        copts.fat_tree_k = kArity;
        copts.num_hosts = kHosts;
        copts.seed = seed_;
        d->runtime = std::make_unique<rt::ClusterRuntime>(copts);
        if (threads > 0) d->runtime->enable_parallel(threads);
    }
    Ledger::Scope span{ledger, "service.deploy"};
    rt::ClusterRuntime& rt = *d->runtime;
    // kv: server on host 0, clients on hosts == 1 (mod 4), cache at the
    // server's edge switch.
    kv::KvServiceOptions kopts;
    kopts.server_host = kServerHost;
    kopts.client_hosts = d->client_hosts;
    d->service = std::make_unique<kv::KvService>(rt, kopts);
    d->service->preload(kNumKeys);
    // Aggregation: reducers on hosts 2 + 4g, mappers from hosts == 3
    // (mod 4), co-resident with the kv endpoints on the same switches.
    std::vector<std::size_t> mapper_pool;
    for (std::size_t i = 3; i < kHosts; i += 4) mapper_pool.push_back(i);
    rt::JobSpec spec;
    spec.name = "agg";
    for (std::size_t g = 0; g < kGroups; ++g) {
        rt::JobGroup group;
        group.reducer = &rt.host(2 + 4 * g);
        for (std::size_t j = 0; j < kMappersPerGroup; ++j) {
            group.mappers.push_back(
                &rt.host(mapper_pool[(g * kMappersPerGroup + j) % mapper_pool.size()]));
        }
        spec.groups.push_back(std::move(group));
    }
    d->driver = std::make_unique<rt::JobDriver>(rt, std::move(spec));
    // Echo: the remaining hosts == 2 (mod 4) pair up across the fabric.
    for (std::size_t i = 2 + 4 * kGroups; i < kHosts; i += 4) d->echo_hosts.push_back(i);
    d->echo_hosts.resize(d->echo_hosts.size() / 2 * 2);
    d->echo_rx.assign(d->echo_hosts.size(), 0);
    Deployment* dp = d.get();
    for (std::size_t j = 0; j < d->echo_hosts.size(); ++j) {
        rt.host(d->echo_hosts[j])
            .udp_bind(kEchoPort, [dp, j](sim::HostAddr, std::uint16_t,
                                         std::span<const std::byte> payload) {
                ++dp->echo_rx[j];
                std::uint32_t remaining = 0;
                std::memcpy(&remaining, payload.data(),
                            std::min(sizeof remaining, payload.size()));
                if (remaining != 0) dp->echo_send(j, remaining - 1);
            });
    }
    return d;
}

RepResult Fabric::execute(Deployment& d, Ledger& ledger) const {
    rt::ClusterRuntime& rt = *d.runtime;
    kv::KvService& svc = *d.service;
    const std::size_t n_clients = d.client_hosts.size();
    // Every kickoff goes through its endpoint host's own simulator (its
    // shard's queue under the parallel simulator).
    ClosedLoop loop{ops_, kWindow, ledger};
    for (std::size_t ci = 0; ci < n_clients; ++ci) {
        loop.start(ci, svc.client(ci), rt.host(d.client_hosts[ci]).simulator(),
                   (1 + ci) * 500 * sim::kNanosecond);
    }
    if (kv::KvCacheController* ctl = svc.controller()) {
        sim::Simulator& server_sim = rt.host(kServerHost).simulator();
        const sim::SimTime horizon = kRequestsPerClient * 12 * sim::kMicrosecond;
        for (sim::SimTime at = 100 * sim::kMicrosecond; at <= horizon;
             at += 100 * sim::kMicrosecond) {
            server_sim.schedule_at(at, [ctl] { ctl->rebalance(); });
        }
    }
    for (std::size_t j = 0; j < d.echo_pairs(); ++j) {
        rt.host(d.echo_hosts[j]).simulator().schedule_at(
            (1 + j) * 300 * sim::kNanosecond, [&d, j] { d.echo_send(j, kEchoLegs - 1); });
    }
    const auto produce = [&](std::size_t g, std::size_t m, MapperSender& tx) {
        ledger.hot("host.app", [&] {
            for (const KvPair& p : pairs_[g][m]) tx.send(p);
        });
    };
    d.results.assign(kRounds, std::vector<checks::GroupSums>(kGroups));
    std::size_t round = 0;
    const auto consume = [&](std::size_t g, ReducerReceiver& rx) {
        ledger.hot("host.app", [&] { d.results[round][g] = rx.sorted_result(); });
    };

    RepResult out;
    const FramePoolStats pool = FrameBuf::pool_stats();
    const auto t0 = Clock::now();
    for (; round < kRounds; ++round) {
        rt::JobDriver::Receivers receivers;
        {
            Ledger::Scope span{ledger, "runtime.round"};
            d.driver->begin_round();
            receivers = d.driver->bind_receivers();
            d.driver->schedule_sends(produce);
        }
        {
            Ledger::Scope span{ledger, "netsim.run"};
            d.driver->run_to_quiescence();
        }
        Ledger::Scope span{ledger, "runtime.round"};
        d.driver->collect(receivers, consume);
    }
    {
        Ledger::Scope span{ledger, "netsim.run"};
        rt.run();  // kv traffic outliving the last round
    }
    out.wall_s = seconds_since(t0);
    d.frame_heap_allocs = frame_heap_allocs_since(pool);

    Ledger::Scope span{ledger, "check"};
    d.stats = svc.collect();
    Signature sig;
    for (std::size_t ci = 0; ci < n_clients; ++ci) {
        out.attempted += ops_[ci].size();
        out.failed += checks::kv_membership_failures(ops_[ci], allowed_, loop.answers(ci));
        sign_replies(svc.client(ci), sig);
    }
    out.ops = d.stats.get_replies + d.stats.put_acks;
    out.attempted += d.echo_pairs() * kEchoLegs;
    out.failed += checks::echo_failures(d.echo_rx, d.echo_pairs(), kEchoLegs);
    for (const std::uint64_t v : d.echo_rx) {
        out.ops += v;
        sig.value(v);
    }
    for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t g = 0; g < kGroups; ++g) {
            const std::uint64_t pairs = kMappersPerGroup * kPairsPerMapper;
            out.attempted += pairs;
            out.failed += checks::group_failures(expected_[g], d.results[r][g], pairs);
        }
    }
    for (const rt::RoundStats& r : d.driver->history()) {
        out.ops += r.pairs_sent;
        out.sink_payload_bytes += r.payload_bytes_received;
        sig.value(r.attempts);
        sig.value(r.finished);
        sig.value(r.pairs_received);
        sig.value(r.payload_bytes_received);
    }
    out.sink_payload_bytes += rt.host(kServerHost).counters().udp_payload_bytes_rx;
    out.frame_hops = frame_hops(rt.network());
    out.events = rt.network().events_executed();
    out.sim_completion = rt.now();
    sig.value(out.sink_payload_bytes);
    sig.value(out.sim_completion);
    sig.value(out.frame_hops);
    sig.value(out.events);
    out.signature = sig.h;
    return out;
}

TraceReport Fabric::trace(const std::string& ledger_path) {
    TraceReport report;
    Ledger ledger{true};
    std::vector<double> sequential_run_s;
    std::unique_ptr<Deployment> last;
    const double untraced_s = alternate_reps(ledger, report.correct, [&](Ledger& l) {
        {
            Ledger::Scope span{l, "teardown"};
            last.reset();
        }
        last = deploy(l, 0);
        prepare_checks();
        report.rep = execute(*last, l);
        if (!l.enabled()) sequential_run_s.push_back(report.rep.wall_s);
        return report.rep.signature;
    });
    ledger.write(ledger_path);

    Deployment& d = *last;
    sim::Network& net = d.runtime->network();
    const std::uint64_t events = report.rep.events;
    std::uint64_t pairs_sent = 0;
    std::uint64_t pairs_received = 0;
    std::uint64_t data_packets = 0;
    for (const rt::RoundStats& r : d.driver->history()) {
        pairs_sent += r.pairs_sent;
        pairs_received += r.pairs_received;
        data_packets += r.data_packets_sent;
    }
    Layers& L = report.layers;
    common_layers(ledger, untraced_s, report.rep.frame_hops, events, d.frame_heap_allocs, L);
    L["core.daiet.pair_reduction"] =
        ratio(static_cast<double>(pairs_sent), static_cast<double>(pairs_received));
    L["dataplane.recirculations"] = static_cast<double>(d.runtime->total_recirculations());
    L["kvcache.hit_ratio"] = d.stats.hit_rate();
    L["kvcache.get_p50_sim_us"] = d.stats.p50_get_ns / 1e3;
    L["kvcache.get_p99_sim_us"] = d.stats.p99_get_ns / 1e3;
    L["transport.retransmits_per_request"] =
        ratio(static_cast<double>(d.stats.retransmits),
              static_cast<double>(d.stats.gets_sent + d.stats.puts_sent));

    // Micro rows: an echo-shaped frame at an echo host's edge switch, the
    // mappers' DATA frames at their edge switch, kv GET hits at the
    // server's edge switch (the cache tenant's chip).
    micro::Targets t;
    sim::Host& echo = d.runtime->host(d.echo_hosts[0]);
    t.forward_chip = &d.runtime->chip_at(net.edge_switch_of(echo)->id());
    t.forward_frames.push_back(
        micro::plain_udp_frame(echo.addr(), d.runtime->host(d.echo_hosts.back()).addr()));
    const rt::JobGroup& g0 = d.driver->spec().groups[0];
    t.daiet_chip = &d.runtime->chip_at(net.edge_switch_of(*g0.mappers[0])->id());
    t.daiet_frames = micro::daiet_data_frames(g0.mappers[0]->addr(), g0.reducer->addr(),
                                              d.driver->tree(0), pairs_[0][0],
                                              d.runtime->options().config);
    sim::Host& server = d.runtime->host(kServerHost);
    sim::Host& client = d.runtime->host(d.client_hosts[0]);
    kv::KvCacheSwitchProgram& cache = *d.service->cache();
    const Key16 hot = kv::KvService::key_of(0);
    if (!cache.contains(hot)) cache.insert(hot, kv::KvService::preload_value_of(0));
    t.kv_chip = &d.runtime->chip_at(d.service->cache_node());
    t.kv_frames.push_back(micro::kv_get_frame(client.addr(), server.addr(), hot, 1));
    const std::uint64_t hits = cache.stats().hits;
    t.kv_chip->receive(dp::Packet{t.kv_frames[0]}, 0);
    if (cache.stats().hits == hits) throw std::runtime_error{"the ToR cache missed its own key"};
    micro::time_rows(t, L);
    report.estimates = {
        {"event queue", L["netsim.queue.ns_per_event"] * static_cast<double>(events)},
        {"switch passes",
         L["core.router.ns_per_forward"] * static_cast<double>(switch_arrivals(net))},
        {"daiet data packets",
         L["core.daiet.ns_per_data_pkt"] * static_cast<double>(data_packets)},
        {"cache GET hits",
         L["kvcache.ns_per_get_hit"] * static_cast<double>(d.stats.switch_hits)},
    };
    last.reset();

    // The same mix once under the parallel simulator, 2 worker threads,
    // profiler on. Its outcomes get the same checks; its schedule forms
    // its own parity group, so only the checks, not the digest, compare.
    Ledger off{false};
    auto par = deploy(off, 2);
    trace::Profiler& prof = trace::profiler();
    prof.reset();
    prof.enable();
    prof.begin_run();
    const RepResult p = execute(*par, off);
    prof.end_run();
    prof.disable();
    const trace::Profiler::Report pr = prof.report();
    report.rep.attempted += p.attempted;
    report.rep.failed += p.failed;
    const double lane_ns = static_cast<double>(pr.exec_ns + pr.barrier_ns + pr.drain_ns);
    std::uint64_t windows = 0;
    for (const auto& lane : pr.lanes) windows = std::max(windows, lane.windows);
    L["parallel.speedup"] = ratio(median(sequential_run_s), p.wall_s);
    L["parallel.barrier_share"] = ratio(static_cast<double>(pr.barrier_ns), lane_ns);
    L["parallel.drain_share"] = ratio(static_cast<double>(pr.drain_ns), lane_ns);
    L["parallel.events_per_window"] =
        ratio(static_cast<double>(pr.events), static_cast<double>(windows));
    L["parallel.imbalance"] = pr.imbalance;
    report.notes.push_back("parallel (2 threads): " + std::to_string(p.wall_s) +
                           " s vs sequential " + std::to_string(median(sequential_run_s)) +
                           " s; " + std::to_string(pr.events) + " events in " +
                           std::to_string(windows) + " windows\n" + prof.format());
    return report;
}

}  // namespace

std::unique_ptr<Workload> make_fabric(std::uint64_t seed) {
    return std::make_unique<Fabric>(seed);
}

}  // namespace perfbench
