// Telemetry control loops: the bench behind the third tenant family.
//
// Part A — promotion ramp. The same skewed GET/PUT workload with a
// mid-run hot-set rotation, promoted two ways: EWMA mode (server access
// log + switch hit counters, smoothed scores) vs sketch mode (count-min
// + heavy-hitter log at the ToR, polled by the telemetry collector).
// Reported as a time-binned hit-rate series per mode, plus the
// steady-state rate and how long each mode took to climb back after the
// rotation. The claim: sketch-driven promotion reaches at least the
// EWMA steady state and recovers from hot-set drift no slower.
//
// Part B — ECN back-off. A loss+congestion fabric (slow links, shallow
// drop-tail queues, marking threshold below the drop point) under the
// same kv workload, with the RetryChannel's ECN back-off on vs off.
// The claim: honouring the marks costs nothing at the tail — p99 GET
// latency is no worse than firing RTOs into a standing queue.
//
// Part C — three-tenant determinism. DAIET aggregation + kv cache +
// telemetry on one 1%-lossy fabric, concurrently, must produce exactly
// the kv reply values and aggregation totals of serial runs.
//
// Writes BENCH_telemetry.json. DAIET_SCALE scales requests per client.
// Exits nonzero when any claim fails — the bench doubles as a CI gate.
#include <algorithm>
#include <cstdio>
#include <tuple>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "kvcache/service.hpp"
#include "runtime/job_driver.hpp"
#include "telemetry/service.hpp"

namespace {

using namespace daiet;

constexpr sim::SimTime kCadence = 50 * sim::kMicrosecond;

// ---------------------------------------------------------------- part A

rt::ClusterOptions ramp_fabric() {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.num_hosts = 6;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    opts.seed = 17;
    return opts;
}

kv::KvWorkload ramp_workload(std::size_t requests) {
    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.99;
    wl.requests_per_client = requests;
    wl.get_fraction = 0.9;
    // Below the server's saturation knee even at a cold cache: a
    // saturated server turns the comparison into a retry artifact
    // (missed GETs queue for ages, their retransmissions hit the
    // switch after a later promotion, and "hit rate" inflates past the
    // static Zipf mass).
    wl.request_interval = 25 * sim::kMicrosecond;
    wl.rebalance_interval = kCadence;
    // Mid-run drift: the head of the Zipf distribution jumps 64 ranks.
    wl.hotset_rotate_every = requests / 2;
    wl.hotset_rotate_by = 64;
    return wl;
}

struct RampResult {
    kv::KvRunStats stats;
    std::vector<double> bin_hit;      ///< hit rate per time bin
    std::vector<sim::SimTime> bin_at;  ///< bin start times
    double steady{0};                 ///< final-quarter hit rate
    sim::SimTime rotation_at{0};
    sim::SimTime recovery_at{0};  ///< first post-rotation bin >= bar
};

RampResult run_ramp(bool sketch, std::size_t requests) {
    rt::ClusterRuntime rt{ramp_fabric()};
    std::unique_ptr<telemetry::TelemetryService> tel;
    if (sketch) {
        telemetry::TelemetryOptions tel_opts;
        // ~10 requests cross the ToR per poll at this load: log every
        // key seen (threshold 1) and let the collector's smoothing
        // rank; a higher bar would starve promotion entirely.
        tel_opts.config.hot_threshold = 1;
        tel = std::make_unique<telemetry::TelemetryService>(rt, tel_opts);
    }

    kv::KvServiceOptions kv_opts;
    kv_opts.config.cache_slots = 32;
    kv::KvService svc{rt, kv_opts};
    if (sketch) {
        svc.controller()->set_hot_key_source(
            tel->collector().hot_key_source_for(svc.cache_node()));
    }

    const kv::KvWorkload wl = ramp_workload(requests);
    const sim::SimTime span =
        wl.requests_per_client * wl.request_interval + 500 * sim::kMicrosecond;
    if (sketch) tel->start(2 * kCadence, span);

    RampResult out;
    out.stats = svc.run(wl);
    out.rotation_at = wl.hotset_rotate_every * wl.request_interval;

    // Time-binned GET hit rate across all clients.
    const std::size_t bins = 24;
    const sim::SimTime bin_width = span / bins;
    std::vector<std::uint64_t> gets(bins, 0);
    std::vector<std::uint64_t> hits(bins, 0);
    for (std::size_t c = 0; c < svc.num_clients(); ++c) {
        for (const auto& rec : svc.client(c).log()) {
            if (rec.op != kv::KvOp::kGet) continue;
            const std::size_t bin =
                std::min(bins - 1, static_cast<std::size_t>(rec.completed / bin_width));
            ++gets[bin];
            if (rec.from_switch) ++hits[bin];
        }
    }
    for (std::size_t b = 0; b < bins; ++b) {
        out.bin_at.push_back(b * bin_width);
        out.bin_hit.push_back(
            gets[b] == 0 ? 0.0
                         : static_cast<double>(hits[b]) / static_cast<double>(gets[b]));
    }

    double steady_hits = 0;
    double steady_gets = 0;
    for (std::size_t b = bins - bins / 4; b < bins; ++b) {
        steady_hits += static_cast<double>(hits[b]);
        steady_gets += static_cast<double>(gets[b]);
    }
    out.steady = steady_gets == 0 ? 0.0 : steady_hits / steady_gets;
    return out;
}

/// First bin at or after `from` whose hit rate clears `bar`; the run's
/// end if none does.
sim::SimTime recovery_time(const RampResult& r, sim::SimTime from, double bar) {
    for (std::size_t b = 0; b < r.bin_hit.size(); ++b) {
        if (r.bin_at[b] < from) continue;
        if (r.bin_hit[b] >= bar) return r.bin_at[b];
    }
    return r.bin_at.empty() ? 0 : r.bin_at.back() + 1;
}

// ---------------------------------------------------------------- part B

rt::ClusterOptions congested_fabric(std::uint64_t seed) {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.num_hosts = 6;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    opts.seed = seed;
    // Slow links + shallow drop-tail queues: the kv stream alone stands
    // the server's access queue up. Marking threshold below the drop
    // point, so ECN speaks before drop-tail does.
    opts.link.gbps = 0.05;
    opts.link.queue_bytes = 1500;
    opts.link.ecn_threshold_bytes = 600;
    opts.link.loss_probability = 0.005;
    return opts;
}

kv::KvRunStats run_congested(bool ecn_backoff, std::size_t requests,
                             std::uint64_t seed) {
    rt::ClusterRuntime rt{congested_fabric(seed)};
    kv::KvServiceOptions kv_opts;
    kv_opts.config.cache_slots = 32;
    kv_opts.config.server_service_time = 2 * sim::kMicrosecond;
    kv_opts.config.retry.ecn_backoff = ecn_backoff;
    kv::KvService svc{rt, kv_opts};

    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.99;
    wl.requests_per_client = requests;
    wl.get_fraction = 0.9;
    wl.partition_keys = true;
    wl.request_interval = 20 * sim::kMicrosecond;
    wl.rebalance_interval = kCadence;
    return svc.run(wl);
}

// ---------------------------------------------------------------- part C

rt::RoundStats agg_round(rt::ClusterRuntime& rt) {
    rt::JobSpec spec;
    spec.name = "co-tenant";
    rt::JobGroup group;
    group.reducer = &rt.host(5);
    group.mappers = {&rt.host(6), &rt.host(7)};
    spec.groups.push_back(group);
    rt::JobDriver driver{rt, spec};
    driver.begin_round();
    auto receivers = driver.bind_receivers();
    driver.schedule_sends([](std::size_t, std::size_t mapper, MapperSender& tx) {
        for (int i = 0; i < 150; ++i) {
            tx.send(KvPair{Key16{"w" + std::to_string(i % 30)},
                           wire_from_i32(static_cast<std::int32_t>(mapper + 1))});
        }
    });
    rt.run();
    driver.verify(receivers);
    return driver.collect(receivers);
}

bool run_parity() {
    kv::KvWorkload wl;
    wl.num_keys = 128;
    wl.zipf_s = 0.9;
    wl.requests_per_client = 150;
    wl.get_fraction = 0.8;
    wl.partition_keys = true;
    wl.request_interval = 25 * sim::kMicrosecond;
    wl.rebalance_interval = kCadence;

    const auto options = [] {
        rt::ClusterOptions opts;
        opts.topology = rt::TopologyKind::kLeafSpine;
        opts.n_leaf = 2;
        opts.n_spine = 2;
        opts.num_hosts = 8;
        opts.config.register_size = 512;
        opts.config.max_trees = 4;
        opts.link.loss_probability = 0.01;
        return opts;
    };
    const auto kv_options = [] {
        kv::KvServiceOptions o;
        o.server_host = 0;
        o.client_hosts = {1, 2, 3, 4};
        o.config.cache_slots = 16;
        return o;
    };
    std::vector<kv::KvClient::History> serial_kv;
    {
        rt::ClusterRuntime rt{options()};
        telemetry::TelemetryService tel{rt};
        kv::KvService svc{rt, kv_options()};
        tel.start(2 * kCadence, 10 * sim::kMillisecond);
        svc.run(wl);
        serial_kv = svc.fleet().histories();
    }
    rt::RoundStats serial_agg;
    {
        rt::ClusterRuntime rt{options()};
        serial_agg = agg_round(rt);
    }
    std::vector<kv::KvClient::History> concurrent_kv;
    rt::RoundStats concurrent_agg;
    {
        rt::ClusterRuntime rt{options()};
        telemetry::TelemetryService tel{rt};
        kv::KvService svc{rt, kv_options()};
        svc.schedule(wl);
        tel.start(2 * kCadence, 10 * sim::kMillisecond);
        concurrent_agg = agg_round(rt);
        concurrent_kv = svc.fleet().histories();
    }
    return concurrent_kv == serial_kv &&
           concurrent_agg.pairs_received == serial_agg.pairs_received;
}

}  // namespace

int main() {
    const std::size_t requests = bench::scaled(900);
    bench::BenchJson json{"telemetry"};
    const bench::SimSpeedMeter sim_speed;
    json.config()
        .integer("num_keys", 256)
        .integer("requests_per_client", requests)
        .integer("cache_slots", 32)
        .integer("poll_interval_us", kCadence / sim::kMicrosecond)
        .number("get_fraction", 0.9)
        .integer("workload_seed", kv::KvWorkload{}.seed)
        .integer("ramp_fabric_seed", 17)
        .text("ecn_fabric_seeds", "29,7,555")
        .integer("hotset_rotate_by", 64)
        .number("scale", bench::scale_factor());
    bool healthy = true;

    // ---- part A ------------------------------------------------------------
    std::puts("part A: promotion ramp under hot-set drift, EWMA vs sketch\n");
    const RampResult ewma = run_ramp(/*sketch=*/false, requests);
    const RampResult sketch = run_ramp(/*sketch=*/true, requests);
    // Common bar for "recovered": most of the weaker mode's steady rate.
    const double bar = 0.8 * std::min(ewma.steady, sketch.steady);
    const sim::SimTime ewma_rec = recovery_time(ewma, ewma.rotation_at, bar);
    const sim::SimTime sketch_rec = recovery_time(sketch, sketch.rotation_at, bar);

    std::printf("%-8s %8s %10s %12s %12s\n", "mode", "hit", "steady",
                "recovery_us", "promotions");
    for (const auto& [name, r, rec] :
         {std::tuple<const char*, const RampResult&, sim::SimTime>{
              "ewma", ewma, ewma_rec},
          {"sketch", sketch, sketch_rec}}) {
        std::printf("%-8s %7.1f%% %9.1f%% %12.1f %12llu\n", name,
                    100.0 * r.stats.hit_rate(), 100.0 * r.steady,
                    static_cast<double>(rec - r.rotation_at) / 1000.0,
                    static_cast<unsigned long long>(r.stats.promotions));
        auto& mode = json.push("modes");
        mode.text("mode", name)
            .number("hit_rate", r.stats.hit_rate())
            .number("steady_hit_rate", r.steady)
            .integer("rotation_at_ns", r.rotation_at)
            .integer("recovery_at_ns", rec)
            .integer("promotions", r.stats.promotions)
            .integer("evictions", r.stats.evictions);
        for (std::size_t b = 0; b < r.bin_hit.size(); ++b) {
            json.push("ramp")
                .text("mode", name)
                .integer("bin_start_ns", r.bin_at[b])
                .number("hit_rate", r.bin_hit[b]);
        }
    }
    if (sketch.steady + 0.03 < ewma.steady) {
        std::printf("FAIL: sketch steady state %.3f below EWMA %.3f\n",
                    sketch.steady, ewma.steady);
        healthy = false;
    }
    if (sketch_rec > ewma_rec) {
        std::printf("FAIL: sketch recovered at %llu ns, after EWMA at %llu ns\n",
                    static_cast<unsigned long long>(sketch_rec),
                    static_cast<unsigned long long>(ewma_rec));
        healthy = false;
    }

    // ---- part B ------------------------------------------------------------
    std::puts("\npart B: loss+congestion, ECN-mark back-off on vs off\n");
    const std::size_t ecn_requests = std::max<std::size_t>(requests / 3, 100);
    std::printf("%-6s %-8s %10s %10s %12s %10s %10s %10s\n", "seed", "backoff",
                "p99_us", "mean_us", "retransmits", "marks", "backoffs",
                "abandoned");
    // p99 of a single lossy run swings on a handful of tail events;
    // the claim is about the aggregate over seeds.
    const std::uint64_t seeds[] = {29, 7, 555};
    double p99_sum[2] = {0, 0};
    std::uint64_t marks_total[2] = {0, 0};
    std::uint64_t backoffs_total[2] = {0, 0};
    for (const std::uint64_t seed : seeds) {
        for (const bool backoff : {false, true}) {
            const kv::KvRunStats st = run_congested(backoff, ecn_requests, seed);
            p99_sum[backoff] += st.p99_get_ns;
            marks_total[backoff] += st.congestion_marks;
            backoffs_total[backoff] += st.ecn_backoffs;
            std::printf("%-6llu %-8s %10.1f %10.1f %12llu %10llu %10llu %10llu\n",
                        static_cast<unsigned long long>(seed),
                        backoff ? "on" : "off", st.p99_get_ns / 1000.0,
                        st.mean_get_ns / 1000.0,
                        static_cast<unsigned long long>(st.retransmits),
                        static_cast<unsigned long long>(st.congestion_marks),
                        static_cast<unsigned long long>(st.ecn_backoffs),
                        static_cast<unsigned long long>(st.abandoned));
            json.push("ecn")
                .integer("seed", seed)
                .text("backoff", backoff ? "on" : "off")
                .number("p99_get_ns", st.p99_get_ns)
                .number("mean_get_ns", st.mean_get_ns)
                .integer("retransmits", st.retransmits)
                .integer("congestion_marks", st.congestion_marks)
                .integer("ecn_backoffs", st.ecn_backoffs)
                .integer("abandoned", st.abandoned)
                .integer("gets", st.gets_sent)
                .integer("get_replies", st.get_replies);
        }
    }
    std::printf("aggregate p99: %.1f us with back-off vs %.1f us without\n",
                p99_sum[1] / std::size(seeds) / 1000.0,
                p99_sum[0] / std::size(seeds) / 1000.0);
    if (marks_total[0] == 0 || marks_total[1] == 0) {
        std::puts("FAIL: the fabric never marked — no congestion produced");
        healthy = false;
    }
    if (backoffs_total[1] == 0) {
        std::puts("FAIL: back-off mode never postponed an RTO");
        healthy = false;
    }
    if (backoffs_total[0] != 0) {
        std::puts("FAIL: baseline postponed RTOs with back-off disabled");
        healthy = false;
    }
    if (p99_sum[1] > p99_sum[0] * 1.10) {
        std::puts("FAIL: p99 with back-off more than 10% above baseline");
        healthy = false;
    }

    // ---- part C ------------------------------------------------------------
    std::puts("\npart C: three tenant families on one 1%-lossy fabric");
    const bool parity = run_parity();
    std::printf("concurrent vs serial: %s\n",
                parity ? "value-deterministic" : "DIVERGED");
    json.push("parity").integer("deterministic", parity ? 1 : 0);
    healthy &= parity;

    sim_speed.stamp(json);
    json.write();
    std::puts("\nwrote BENCH_telemetry.json");
    return healthy ? 0 : 1;
}
