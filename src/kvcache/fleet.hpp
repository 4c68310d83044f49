// KvClientFleet: the client side of a kv deployment, shared by
// KvService and dir::ShardedKvService. One KvClient per client host,
// all addressed to one target (the server, or the sharded service's
// vaddr). The fleet issues a KvWorkload's op streams, open- or
// closed-loop, and owns everything a service reports about its clients:
// summed stats and latencies, metrics under the service's tenant
// prefix, the SLO monitor and the client probes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kvcache/store.hpp"
#include "runtime/cluster.hpp"
#include "trace/slo.hpp"

namespace daiet::rt {
class FabricSampler;
}  // namespace daiet::rt

namespace daiet::kv {

struct KvWorkload {
    std::size_t num_keys{1024};
    /// Zipf skew of key popularity; <= 0 samples uniformly.
    double zipf_s{0.99};
    std::size_t requests_per_client{400};
    /// Fraction of requests that are GETs (the rest are PUTs).
    double get_fraction{1.0};
    /// true: each client reads and writes only its own slice of the
    /// key space (single writer per key) — exact value determinism
    /// under any interleaving, which the parity tests rely on.
    bool partition_keys{false};
    sim::SimTime start{0};
    sim::SimTime request_interval{2 * sim::kMicrosecond};
    /// Distinct clients start this far apart.
    sim::SimTime client_stagger{500 * sim::kNanosecond};
    /// Controller rebalance cadence; 0 = never rebalance.
    sim::SimTime rebalance_interval{100 * sim::kMicrosecond};
    /// Hot-set drift: every `hotset_rotate_every` requests (per client)
    /// the Zipf rank->key mapping shifts by `hotset_rotate_by` ranks, so
    /// yesterday's head of the distribution goes cold and a fresh slice
    /// becomes hot. 0 = stationary popularity. The stress test for
    /// promotion agility (EWMA inertia vs sketch-driven detection).
    std::size_t hotset_rotate_every{0};
    std::size_t hotset_rotate_by{0};
    std::uint64_t seed{7};
};

/// One scheduled client operation, precomputed so scheduling order can
/// never affect the op sequence.
struct KvOpSpec {
    bool is_get{true};
    Key16 key{};
    WireValue value{0};
    sim::SimTime at{0};
};

/// The deterministic request stream client `ci` (of `n_clients`) issues
/// under `workload` — the single source of truth every fleet replays,
/// which is what makes "sharded run == unsharded reference" a
/// meaningful parity check: both runs issue byte-identical per-client
/// op sequences, open- or closed-loop.
std::vector<KvOpSpec> client_op_stream(const KvWorkload& workload, std::size_t ci,
                                       std::size_t n_clients);

/// Requests each client keeps in flight under start_closed_loop().
inline constexpr std::size_t kClosedLoopWindow = 8;

/// Client-side results of one run, summed over a fleet: the head that
/// KvRunStats and dir::ShardedKvRunStats share.
struct KvClientTotals : KvClient::Stats {
    double mean_get_ns{0};
    double p50_get_ns{0};
    double p99_get_ns{0};
    double mean_put_ns{0};
    /// Arrival time of the last completed request (throughput's
    /// denominator: completed / (last_completion - workload start)).
    sim::SimTime last_completion{0};

    std::uint64_t completed() const noexcept { return get_replies + put_acks; }
    double hit_rate() const noexcept {
        return get_replies == 0 ? 0.0
                                : static_cast<double>(switch_hits) /
                                      static_cast<double>(get_replies);
    }
};

class KvClientFleet {
public:
    /// A KvClient on each of `client_hosts` (indices into rt.hosts();
    /// empty = every host not in `server_hosts`), addressed to
    /// `target`. `tenant` prefixes the published metric and probe
    /// names and is the SLO's default service name.
    KvClientFleet(rt::ClusterRuntime& rt, const KvConfig& config, sim::HostAddr target,
                  std::vector<std::size_t> client_hosts,
                  std::span<const std::size_t> server_hosts, std::string tenant);

    KvClientFleet(const KvClientFleet&) = delete;
    KvClientFleet& operator=(const KvClientFleet&) = delete;

    std::size_t num_clients() const noexcept { return clients_.size(); }
    KvClient& client(std::size_t i);
    /// Every client's history(), in client order.
    std::vector<KvClient::History> histories() const;
    /// Host index of each client, in client order.
    const std::vector<std::size_t>& hosts() const noexcept { return hosts_; }

    /// Schedule every client's op stream at its timestamps on the client
    /// host's own simulator (its shard under parallel simulation).
    void schedule(const KvWorkload& workload);

    /// Drive the same op streams closed-loop: each client keeps at most
    /// kClosedLoopWindow requests in flight and sends its next op on
    /// every reply. Client `ci` starts at (1+ci)·500 ns on its host's
    /// simulator. Takes over every client's on_reply.
    void start_closed_loop(const KvWorkload& workload);

    /// Sum the clients' results into `out` and publish them, with the
    /// SLO monitor when one is set. Repeated calls publish the same.
    void collect(KvClientTotals& out) const;

    /// Declare objectives; collect() then rebuilds the monitor from the
    /// request logs (replies succeed, abandoned requests fail). Empty
    /// spec.service defaults to the tenant.
    void set_slo(trace::SloSpec spec);
    /// The monitor built by the last collect(); nullptr before then or
    /// when no spec was set.
    const trace::SloMonitor* slo() const noexcept { return slo_.get(); }

    /// Register summed client retransmits and abandons on `sampler`.
    void install_probes(rt::FabricSampler& sampler) const;

private:
    struct Loop {
        std::vector<KvOpSpec> ops;
        std::size_t next{0};
        std::size_t inflight{0};
    };

    void expect_valid(const KvWorkload& workload) const;
    void pump(std::size_t ci);

    rt::ClusterRuntime* rt_;
    std::string tenant_;
    std::vector<std::size_t> hosts_;
    std::vector<std::unique_ptr<KvClient>> clients_;
    std::vector<Loop> loops_;  ///< closed-loop state, one per client
    std::optional<trace::SloSpec> slo_spec_;
    mutable std::unique_ptr<trace::SloMonitor> slo_;  ///< rebuilt by collect()
};

}  // namespace daiet::kv
