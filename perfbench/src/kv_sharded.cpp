// Workload `kv_sharded`: a closed-loop sharded kv service under skew,
// writes and live range migration.
//
// A 6-leaf/2-spine fabric: 4 storage racks (KvStoreServer + rack cache
// each), the directory on a spine, edge caches at the two client ToRs,
// telemetry on every chip feeding the directory's range rebalancer. 4
// clients keep 8 requests in flight each; 25% PUTs on Zipf(0.99) keys,
// one writer per key. This is where kvcache, directory, transport and
// telemetry do their work; DAIET aggregation and mapreduce stay idle.
//
// Two ingredients are left out because they make operations fail on
// some seeds only, which no fixed failed share can carry (see
// perfbench/README.md): GETs never read a key written during the run
// (each client's PUTs go to a mirror slice of the key space, same Zipf
// ranks, keys offset by kNumKeys), and links are loss-free.
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "checks.hpp"
#include "closed_loop.hpp"
#include "common/framebuf.hpp"
#include "directory/sharded_service.hpp"
#include "micro.hpp"
#include "telemetry/service.hpp"

namespace perfbench {

namespace {

using namespace daiet;

constexpr std::size_t kRacks = 4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kRequestsPerClient = 16'000;
constexpr std::size_t kNumKeys = 2048;  ///< read keys; as many write keys above them
/// Simulated span of the run, measured at this scale with margin: the
/// telemetry polls, rack-cache promotions and directory rebalances are
/// scheduled up to here. Completion itself is the last reply's arrival.
constexpr sim::SimTime kHorizon = 120 * sim::kMillisecond;

kv::KvWorkload workload(std::uint64_t seed) {
    kv::KvWorkload wl;
    wl.num_keys = kNumKeys;
    wl.zipf_s = 0.99;
    wl.requests_per_client = kRequestsPerClient;
    wl.get_fraction = 0.75;
    wl.partition_keys = true;  // one writer per key
    wl.seed = seed;
    return wl;
}

/// One deployment and what its run leaves for the traced pass.
struct Deployment {
    std::unique_ptr<rt::ClusterRuntime> runtime;
    std::unique_ptr<telemetry::TelemetryService> telemetry;
    std::unique_ptr<dir::ShardedKvService> service;
    dir::ShardedKvRunStats stats;
    std::uint64_t frame_heap_allocs{0};
};

class KvSharded final : public Workload {
public:
    explicit KvSharded(std::uint64_t seed) : seed_{seed} {}

    double setup() override {
        live_.reset();
        Ledger off{false};
        const auto t0 = Clock::now();
        live_ = deploy(off);
        const double seconds = seconds_since(t0);
        if (expected_.empty()) {
            for (const auto& ops : ops_) expected_.push_back(checks::replay_gets(ops));
        }
        return seconds;
    }
    bool setup_per_rep() const override { return true; }
    std::size_t min_setups() const override { return 15; }

    RepResult run_rep() override {
        Ledger off{false};
        return execute(*live_, off);
    }

    TraceReport trace(const std::string& ledger_path) override;

private:
    /// Inputs (the clients' op streams), fabric and service, from nothing.
    std::unique_ptr<Deployment> deploy(Ledger& ledger) {
        auto d = std::make_unique<Deployment>();
        {
            Ledger::Scope span{ledger, "inputs.build"};
            const kv::KvWorkload wl = workload(seed_);
            ops_.clear();
            for (std::size_t ci = 0; ci < kClients; ++ci) {
                ops_.push_back(kv::client_op_stream(wl, ci, kClients));
                for (kv::KvOpSpec& op : ops_.back()) {
                    if (!op.is_get) op.key = kv::KvService::key_of(op.key.to_u64() - 1 + kNumKeys);
                }
            }
        }
        {
            Ledger::Scope span{ledger, "runtime.build"};
            rt::ClusterOptions opts;
            opts.topology = rt::TopologyKind::kLeafSpine;
            opts.n_leaf = 6;
            opts.n_spine = 2;
            opts.num_hosts = 12;
            opts.config.register_size = 512;
            opts.config.max_trees = 4;
            opts.seed = seed_;
            d->runtime = std::make_unique<rt::ClusterRuntime>(opts);
        }
        Ledger::Scope span{ledger, "service.deploy"};
        telemetry::TelemetryOptions tel;
        tel.collector_host = 1;  // storage rack 0's second host
        d->telemetry = std::make_unique<telemetry::TelemetryService>(*d->runtime, tel);
        // Storage racks on leaves 0..3 (hosts 0, 2, 4, 6), clients on
        // leaves 4..5 (hosts 8..11).
        dir::ShardedKvOptions opts;
        opts.server_hosts.clear();
        for (std::size_t r = 0; r < kRacks; ++r) opts.server_hosts.push_back(2 * r);
        opts.client_hosts = {8, 9, 10, 11};
        opts.config.cache_slots = 64;
        d->service = std::make_unique<dir::ShardedKvService>(*d->runtime, opts);
        d->service->preload(2 * kNumKeys);
        return d;
    }

    RepResult execute(Deployment& d, Ledger& ledger) const;

    std::uint64_t seed_;
    std::vector<std::vector<kv::KvOpSpec>> ops_;
    std::vector<std::vector<WireValue>> expected_;
    std::unique_ptr<Deployment> live_;
};

RepResult KvSharded::execute(Deployment& d, Ledger& ledger) const {
    dir::ShardedKvService& svc = *d.service;
    rt::ClusterRuntime& rt = *d.runtime;
    ClosedLoop loop{ops_, kWindow, ledger};
    for (std::size_t ci = 0; ci < kClients; ++ci) {
        loop.start(ci, svc.client(ci), rt.host(8 + ci).simulator(),
                   (1 + ci) * 500 * sim::kNanosecond);
    }
    // Rack-cache promotion windows, telemetry polls and telemetry-ranked
    // directory rebalances over the run's span.
    for (sim::SimTime at = 100 * sim::kMicrosecond; at <= kHorizon;
         at += 100 * sim::kMicrosecond) {
        rt.simulator().schedule_at(at, [&svc] { svc.rebalance_racks(); });
    }
    d.telemetry->start(100 * sim::kMicrosecond, kHorizon);
    svc.schedule_rebalances(250 * sim::kMicrosecond, kHorizon,
                            d.telemetry->collector().hot_key_source_for(svc.directory_node()));

    RepResult out;
    const FramePoolStats pool = FrameBuf::pool_stats();
    const auto t0 = Clock::now();
    {
        Ledger::Scope span{ledger, "netsim.run"};
        rt.run();
    }
    out.wall_s = seconds_since(t0);
    d.frame_heap_allocs = frame_heap_allocs_since(pool);

    Ledger::Scope span{ledger, "check"};
    d.stats = svc.collect();
    Signature sig;
    for (std::size_t ci = 0; ci < kClients; ++ci) {
        out.attempted += ops_[ci].size();
        out.failed += checks::kv_replay_failures(ops_[ci], expected_[ci], loop.answers(ci));
        sign_replies(svc.client(ci), sig);
    }
    for (std::size_t r = 0; r < kRacks; ++r) {
        out.sink_payload_bytes += rt.host(2 * r).counters().udp_payload_bytes_rx;
    }
    out.ops = d.stats.completed();
    out.frame_hops = frame_hops(rt.network());
    out.events = rt.network().events_executed();
    out.sim_completion = d.stats.last_completion;
    sig.value(d.stats.retransmits);
    sig.value(d.stats.nacks);
    sig.value(d.stats.switch_hits);
    sig.value(d.stats.control.migrations_completed);
    sig.value(out.sink_payload_bytes);
    sig.value(out.frame_hops);
    sig.value(out.events);
    out.signature = sig.h;
    return out;
}

TraceReport KvSharded::trace(const std::string& ledger_path) {
    TraceReport report;
    Ledger ledger{true};
    std::unique_ptr<Deployment> last;
    const double untraced_s = alternate_reps(ledger, report.correct, [&](Ledger& l) {
        {
            Ledger::Scope span{l, "teardown"};
            last.reset();
        }
        last = deploy(l);
        if (expected_.empty()) {
            for (const auto& ops : ops_) expected_.push_back(checks::replay_gets(ops));
        }
        report.rep = execute(*last, l);
        return report.rep.signature;
    });
    ledger.write(ledger_path);

    Deployment& d = *last;
    const dir::ShardedKvRunStats& st = d.stats;
    sim::Network& net = d.runtime->network();
    const std::uint64_t events = report.rep.events;
    Layers& L = report.layers;
    common_layers(ledger, untraced_s, report.rep.frame_hops, events, d.frame_heap_allocs, L);
    L["core.daiet.pair_reduction"] = 1.0;  // no aggregation traffic: nothing reduced
    L["dataplane.recirculations"] = static_cast<double>(d.runtime->total_recirculations());
    L["kvcache.hit_ratio"] = st.hit_rate();
    L["kvcache.get_p50_sim_us"] = st.p50_get_ns / 1e3;
    L["kvcache.get_p99_sim_us"] = st.p99_get_ns / 1e3;
    L["directory.edge_hit_ratio"] = ratio(static_cast<double>(st.edge_hits),
                                          static_cast<double>(st.get_replies));
    L["directory.nacks"] = static_cast<double>(st.nacks);
    L["directory.invalidations"] = static_cast<double>(st.directory.invalidations_sent);
    L["transport.retransmits_per_request"] =
        ratio(static_cast<double>(st.retransmits),
              static_cast<double>(st.gets_sent + st.puts_sent));
    L["telemetry.report_frames"] =
        static_cast<double>(d.telemetry->collector().stats().report_frames_rx);
    report.notes.push_back(
        "range migrations " + std::to_string(st.control.migrations_completed) +
        ", NACKs " + std::to_string(st.nacks) + ", retransmits " +
        std::to_string(st.retransmits) + ", abandoned " + std::to_string(st.abandoned) +
        ", last completion " + std::to_string(st.last_completion / sim::kMicrosecond) +
        " sim_us");

    // Micro rows: plain forwarding and DAIET data frames at a client
    // ToR (edge cache + telemetry tenants), GET hits at a rack cache.
    micro::Targets t;
    sim::Host& client = d.runtime->host(8);
    dp::PipelineSwitch& edge = d.runtime->chip_at(net.edge_switch_of(client)->id());
    t.forward_chip = t.daiet_chip = &edge;
    t.forward_frames.push_back(micro::plain_udp_frame(client.addr(), d.runtime->host(0).addr()));
    std::vector<KvPair> pairs;
    for (std::uint64_t k = 0; k < 1000; ++k) pairs.push_back({Key16::from_u64(k), 1});
    t.daiet_frames = micro::daiet_data_frames(client.addr(), d.runtime->host(0).addr(), 0,
                                              pairs, d.runtime->options().config);
    // GET hits at rack 0's cache on the hottest read key. The rack-cache
    // controller demotes keys once traffic stops, so the key is
    // installed through the controller's API when it has gone cold.
    kv::KvCacheSwitchProgram& cache = *d.service->rack_cache(0);
    sim::Host& server = d.runtime->host(0);
    const Key16 hot = kv::KvService::key_of(0);
    if (!cache.contains(hot)) cache.insert(hot, kv::KvService::preload_value_of(0));
    t.kv_chip = &d.runtime->chip_at(net.edge_switch_of(server)->id());
    t.kv_frames.push_back(micro::kv_get_frame(client.addr(), server.addr(), hot, 1));
    const std::uint64_t hits = cache.stats().hits;
    t.kv_chip->receive(dp::Packet{t.kv_frames[0]}, 0);
    if (cache.stats().hits == hits) throw std::runtime_error{"the rack cache missed its own key"};
    micro::time_rows(t, L);
    report.estimates = {
        {"event queue", L["netsim.queue.ns_per_event"] * static_cast<double>(events)},
        {"switch passes",
         L["core.router.ns_per_forward"] * static_cast<double>(switch_arrivals(net))},
        {"cache GET hits", L["kvcache.ns_per_get_hit"] * static_cast<double>(st.switch_hits)},
    };
    return report;
}

}  // namespace

std::unique_ptr<Workload> make_kv_sharded(std::uint64_t seed) {
    return std::make_unique<KvSharded>(seed);
}

}  // namespace perfbench
