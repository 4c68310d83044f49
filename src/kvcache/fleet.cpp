#include "kvcache/fleet.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "kvcache/service.hpp"
#include "runtime/sampler.hpp"
#include "trace/metrics.hpp"

namespace daiet::kv {
namespace {

void issue(KvClient& client, const KvOpSpec& op) {
    if (op.is_get) {
        client.get(op.key);
    } else {
        client.put(op.key, op.value);
    }
}

}  // namespace

std::vector<KvOpSpec> client_op_stream(const KvWorkload& workload, std::size_t ci,
                                       std::size_t n_clients) {
    // Per-client deterministic stream: ops and keys are drawn up front
    // so scheduling order never affects the sequence.
    Rng rng{SplitMix64{workload.seed + 0x9e37u * (ci + 1)}.next()};
    std::size_t lo = 0;
    std::size_t span = workload.num_keys;
    if (workload.partition_keys) {
        // num_keys >= n_clients (checked by the caller), so the slices
        // [ci*per, ci*per+per) are disjoint: one writer per key.
        const std::size_t per = workload.num_keys / n_clients;
        lo = ci * per;
        span = per;
    }
    // Zipf(0) degenerates to the uniform distribution, so one sampler
    // covers both the skewed and the uniform workloads.
    const ZipfSampler zipf{span, std::max(workload.zipf_s, 0.0)};

    std::vector<KvOpSpec> ops;
    ops.reserve(workload.requests_per_client);
    for (std::size_t r = 0; r < workload.requests_per_client; ++r) {
        KvOpSpec op;
        op.is_get = rng.next_bool(workload.get_fraction);
        std::size_t rank = zipf(rng);
        if (workload.hotset_rotate_every != 0) {
            // Drifting popularity: the rank->key mapping shifts by
            // rotate_by every rotate_every requests, moving the head
            // of the Zipf distribution onto fresh keys.
            const std::size_t phase = r / workload.hotset_rotate_every;
            rank = (rank + phase * workload.hotset_rotate_by) % span;
        }
        op.key = KvService::key_of(lo + rank);
        op.value = static_cast<WireValue>((ci + 1) * 1000003u +
                                          static_cast<std::uint32_t>(r));
        op.at = workload.start + ci * workload.client_stagger +
                r * workload.request_interval;
        ops.push_back(op);
    }
    return ops;
}

KvClientFleet::KvClientFleet(rt::ClusterRuntime& rt, const KvConfig& config,
                             sim::HostAddr target, std::vector<std::size_t> client_hosts,
                             std::span<const std::size_t> server_hosts, std::string tenant)
    : rt_{&rt}, tenant_{std::move(tenant)}, hosts_{std::move(client_hosts)} {
    const auto is_server = [&](std::size_t i) { return std::ranges::count(server_hosts, i) > 0; };
    if (hosts_.empty()) {
        for (std::size_t i = 0; i < rt.hosts().size(); ++i) {
            if (!is_server(i)) hosts_.push_back(i);
        }
    }
    DAIET_EXPECTS(!hosts_.empty());
    for (const std::size_t i : hosts_) {
        DAIET_EXPECTS(i < rt.hosts().size() && !is_server(i));
        clients_.push_back(std::make_unique<KvClient>(rt.host(i), config, target));
    }
}

KvClient& KvClientFleet::client(std::size_t i) {
    DAIET_EXPECTS(i < clients_.size());
    return *clients_[i];
}

std::vector<KvClient::History> KvClientFleet::histories() const {
    std::vector<KvClient::History> out;
    out.reserve(clients_.size());
    for (const auto& c : clients_) out.push_back(c->history());
    return out;
}

void KvClientFleet::expect_valid(const KvWorkload& workload) const {
    DAIET_EXPECTS(workload.num_keys > 0);
    DAIET_EXPECTS(workload.requests_per_client > 0);
    DAIET_EXPECTS(workload.get_fraction >= 0.0 && workload.get_fraction <= 1.0);
    // The single-writer-per-key guarantee needs a slice per client.
    DAIET_EXPECTS(!workload.partition_keys || workload.num_keys >= clients_.size());
}

void KvClientFleet::schedule(const KvWorkload& workload) {
    expect_valid(workload);
    const std::size_t n = clients_.size();
    for (std::size_t ci = 0; ci < n; ++ci) {
        KvClient& client = *clients_[ci];
        sim::Simulator& sim = rt_->host(hosts_[ci]).simulator();
        for (const KvOpSpec& op : client_op_stream(workload, ci, n)) {
            sim.schedule_at(op.at, [&client, op] { issue(client, op); });
        }
    }
}

void KvClientFleet::start_closed_loop(const KvWorkload& workload) {
    expect_valid(workload);
    // Demand adapts to capacity: a saturated open-loop run would instead
    // complete via ReplyCache replays of RTO retransmissions that bypass
    // the serial server's queue.
    const std::size_t n = clients_.size();
    loops_.assign(n, {});
    for (std::size_t ci = 0; ci < n; ++ci) {
        loops_[ci].ops = client_op_stream(workload, ci, n);
        clients_[ci]->on_reply = [this, ci](const KvClient::OpRecord&) {
            --loops_[ci].inflight;
            pump(ci);
        };
        rt_->host(hosts_[ci]).simulator().schedule_at(
            (1 + ci) * 500 * sim::kNanosecond, [this, ci] { pump(ci); });
    }
}

void KvClientFleet::pump(std::size_t ci) {
    Loop& loop = loops_[ci];
    while (loop.inflight < kClosedLoopWindow && loop.next < loop.ops.size()) {
        ++loop.inflight;
        issue(*clients_[ci], loop.ops[loop.next++]);
    }
}

void KvClientFleet::collect(KvClientTotals& out) const {
    // The client logs are the source of truth, so the SLO monitor is
    // rebuilt from scratch and repeated collect() calls stay idempotent.
    slo_ = slo_spec_ ? std::make_unique<trace::SloMonitor>(*slo_spec_) : nullptr;
    const auto now = static_cast<std::uint64_t>(rt_->now());
    LogHistogram gets;
    LogHistogram puts;
    for (const auto& client : clients_) {
        const KvClient::Stats s = client->stats();
        out += s;
        gets.merge(client->get_latency());
        puts.merge(client->put_latency());
        for (const KvClient::OpRecord& rec : client->log()) {
            out.last_completion = std::max(out.last_completion, rec.completed);
            if (slo_) {
                slo_->record_success(static_cast<std::uint64_t>(rec.completed),
                                     static_cast<std::uint64_t>(rec.latency));
            }
        }
        // Abandoned requests carry no completion stamp; charge them at
        // the end of the run (they failed by then by definition).
        for (std::uint64_t i = 0; slo_ && i < s.abandoned; ++i) slo_->record_failure(now);
    }
    if (!gets.empty()) {
        out.mean_get_ns = gets.mean();
        out.p50_get_ns = gets.percentile(50.0);
        out.p99_get_ns = gets.percentile(99.0);
    }
    if (!puts.empty()) out.mean_put_ns = puts.mean();

    // Publish into the process-wide metrics registry: every BENCH_*.json
    // written after this collect() carries the run's numbers.
    auto& reg = trace::metrics();
    const auto name = [this](const char* metric) { return tenant_ + "." + metric; };
    reg.counter(name("gets_sent"), tenant_).set(out.gets_sent);
    reg.counter(name("get_replies"), tenant_).set(out.get_replies);
    reg.counter(name("switch_hits"), tenant_).set(out.switch_hits);
    reg.counter(name("retransmits"), tenant_).set(out.retransmits);
    reg.counter(name("abandoned"), tenant_).set(out.abandoned);
    reg.histogram(name("get_latency_ns"), tenant_).assign(gets);
    reg.histogram(name("put_latency_ns"), tenant_).assign(puts);
    if (slo_) slo_->publish();
}

void KvClientFleet::set_slo(trace::SloSpec spec) {
    if (spec.service.empty()) spec.service = tenant_;
    slo_spec_ = std::move(spec);
    slo_.reset();
}

void KvClientFleet::install_probes(rt::FabricSampler& sampler) const {
    const auto summed = [clients = &clients_](std::uint64_t KvClient::Stats::*field) {
        return [clients, field] {
            std::uint64_t n = 0;
            for (const auto& c : *clients) n += c->stats().*field;
            return static_cast<double>(n);
        };
    };
    sampler.add_probe(tenant_ + ".retransmits", "kv-clients",
                      summed(&KvClient::Stats::retransmits));
    sampler.add_probe(tenant_ + ".abandoned", "kv-clients",
                      summed(&KvClient::Stats::abandoned));
}

}  // namespace daiet::kv
