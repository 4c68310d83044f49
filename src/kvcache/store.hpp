// End-host halves of the kv service: the storage server and the client
// library.
//
// KvStoreServer is a deliberately ordinary key-value server: a map, a
// UDP socket, and a single serial worker whose per-request service time
// models the userspace stack the switch cache bypasses. Requests queue
// behind one another, so a skewed workload drives it toward saturation
// — the phenomenon the in-network cache exists to absorb. It also keeps
// a per-key access log since the last controller poll; together with
// the switch's hit counters this is the controller's view of hotness.
// Under the loss-tolerant transport the server executes at most once
// per (client, seq): retransmissions are answered by replaying the
// recorded reply bytes from a transport::ReplyCache, ahead of the
// worker queue.
//
// KvClient issues GET/PUT requests through a transport::RetryChannel
// (per-request seq, RTO-driven retransmission, per-key write barriers,
// duplicate-reply suppression), matches replies by request id, and
// records per-request latency plus whether the reply came from a switch
// cache (FLAG_FROM_SWITCH) — the measurement surface for every kv
// benchmark and test. Latency covers the whole request lifetime,
// retransmissions included: that is the p99 story a lossy fabric tells.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "kvcache/config.hpp"
#include "kvcache/protocol.hpp"
#include "netsim/host.hpp"
#include "transport/request_reply.hpp"

namespace daiet::kv {

class KvStoreServer {
public:
    struct Stats {
        std::uint64_t gets{0};
        std::uint64_t puts{0};
        std::uint64_t not_found{0};
        /// Retransmissions answered from the reply cache (no
        /// re-execution, no worker time).
        std::uint64_t duplicates{0};
        /// Simulated time the worker spent busy (load observability).
        sim::SimTime busy_time{0};
    };

    /// Binds the server UDP port on `host`.
    KvStoreServer(sim::Host& host, KvConfig config);
    ~KvStoreServer();
    KvStoreServer(const KvStoreServer&) = delete;
    KvStoreServer& operator=(const KvStoreServer&) = delete;

    sim::HostAddr addr() const noexcept;

    /// Control-plane load (no traffic, no service time).
    void preload(const Key16& key, WireValue value) { put(key, value); }

    /// Control-plane removal (no traffic): the directory controller's
    /// half of a range migration — keys copied to the new rack are
    /// erased here so the old rack cannot serve them ever again.
    bool erase(const Key16& key) {
        if (store_.erase(key) == 0) return false;
        ++key_set_version_;
        return true;
    }

    const std::unordered_map<Key16, WireValue>& store() const noexcept {
        return store_;
    }
    /// Bumped whenever a key enters or leaves store(). While it holds
    /// still, a pointer into store() stays valid (the map's nodes never
    /// move) and a key found missing stays missing, so a reader may
    /// keep both instead of probing again.
    std::uint64_t key_set_version() const noexcept { return key_set_version_; }

    /// GETs that reached the server per key since the last clear — the
    /// cache's misses, i.e. the controller's promotion candidates.
    const std::unordered_map<Key16, std::uint64_t>& access_log() const noexcept {
        return access_log_;
    }
    void clear_access_log() { access_log_.clear(); }

    const Stats& stats() const noexcept { return stats_; }

private:
    void on_datagram(sim::HostAddr src, std::uint16_t src_port,
                     std::span<const std::byte> payload);
    void put(const Key16& key, WireValue value) {
        if (store_.insert_or_assign(key, value).second) ++key_set_version_;
    }

    sim::Host* host_;
    KvConfig config_;
    std::unordered_map<Key16, WireValue> store_;
    std::uint64_t key_set_version_{0};
    std::unordered_map<Key16, std::uint64_t> access_log_;
    transport::ReplyCache replies_;
    sim::SimTime worker_free_at_{0};
    Stats stats_;
};

class KvClient {
public:
    /// One finished request, as observed by the application.
    struct OpRecord {
        std::uint32_t req_id{0};
        KvOp op{KvOp::kGet};
        Key16 key{};
        WireValue value{0};
        bool found{false};
        bool from_switch{false};
        bool from_edge{false};  ///< served by a client-side edge cache
        sim::SimTime latency{0};
        sim::SimTime completed{0};  ///< simulation time the reply arrived
    };

    struct Stats {
        std::uint64_t gets_sent{0};
        std::uint64_t puts_sent{0};
        std::uint64_t get_replies{0};
        std::uint64_t put_acks{0};
        std::uint64_t switch_hits{0};
        /// Replies served by a client-side edge cache (also counted in
        /// switch_hits — an edge hit is a switch hit nearer the client).
        std::uint64_t edge_hits{0};
        std::uint64_t not_found{0};
        /// Directory NACKs received (requests that raced a range
        /// migration) and the immediate retransmissions they triggered.
        std::uint64_t nacks{0};
        std::uint64_t nack_retries{0};
        /// Wire-level retransmissions by the retry transport (not
        /// counted in gets_sent/puts_sent, which are logical requests).
        std::uint64_t retransmits{0};
        std::uint64_t duplicate_replies{0};
        /// Requests dropped after the transport's attempt budget.
        std::uint64_t abandoned{0};
        /// ECN feedback loop (transport/request_reply.hpp): marks
        /// delivered to the retry channel, and RTO expiries it
        /// postponed because of them.
        std::uint64_t congestion_marks{0};
        std::uint64_t ecn_backoffs{0};

        Stats& operator+=(const Stats& o) noexcept {
            gets_sent += o.gets_sent;
            puts_sent += o.puts_sent;
            get_replies += o.get_replies;
            put_acks += o.put_acks;
            switch_hits += o.switch_hits;
            edge_hits += o.edge_hits;
            not_found += o.not_found;
            nacks += o.nacks;
            nack_retries += o.nack_retries;
            retransmits += o.retransmits;
            duplicate_replies += o.duplicate_replies;
            abandoned += o.abandoned;
            congestion_marks += o.congestion_marks;
            ecn_backoffs += o.ecn_backoffs;
            return *this;
        }
    };

    /// Binds the client UDP port on `host` (one kv client per host).
    KvClient(sim::Host& host, KvConfig config, sim::HostAddr server);
    ~KvClient();
    KvClient(const KvClient&) = delete;
    KvClient& operator=(const KvClient&) = delete;

    /// Issue a request; returns its request id.
    std::uint32_t get(const Key16& key);
    std::uint32_t put(const Key16& key, WireValue value);

    /// Invoked on every completed request (after stats are recorded).
    std::function<void(const OpRecord&)> on_reply;

    /// Application counters with the transport's folded in.
    Stats stats() const noexcept {
        Stats out = stats_;
        out.retransmits = channel_.stats().retransmits;
        out.duplicate_replies = channel_.stats().duplicate_replies;
        out.abandoned = channel_.stats().abandoned;
        out.congestion_marks = channel_.stats().congestion_marks;
        out.ecn_backoffs = channel_.stats().ecn_backoffs;
        return out;
    }
    /// Per-op latency distributions, fixed-memory no matter how long
    /// the run (log-bucketed; mean/min/max exact, quantiles ≤ ~1.6%
    /// relative error).
    const LogHistogram& get_latency() const noexcept { return get_latency_; }
    const LogHistogram& put_latency() const noexcept { return put_latency_; }
    /// Every completed request in completion order (reply values are
    /// the correctness surface for parity/coherence tests).
    const std::vector<OpRecord>& log() const noexcept { return log_; }
    /// One request's value-level outcome: (req_id, op, key, value).
    using Outcome = std::tuple<std::uint32_t, KvOp, Key16, WireValue>;
    using History = std::vector<Outcome>;
    /// The log's outcomes sorted by request id: the value history a
    /// parity check compares against a serial reference, which caching,
    /// sharding, loss and co-tenants must not change.
    History history() const;
    std::size_t outstanding() const noexcept { return pending_.size(); }
    /// The retry transport underneath (retransmit/barrier stats).
    const transport::RetryChannel& channel() const noexcept { return channel_; }

private:
    struct Pending {
        KvOp op{KvOp::kGet};
        Key16 key{};
        sim::SimTime issued{0};
    };

    void on_datagram(sim::HostAddr src, std::uint16_t src_port,
                     std::span<const std::byte> payload);
    void on_nack(std::uint32_t seq);
    std::uint32_t send(KvOp op, const Key16& key, WireValue value);

    sim::Host* host_;
    KvConfig config_;
    sim::HostAddr server_;
    transport::RetryChannel channel_;
    std::uint32_t next_req_{1};
    std::unordered_map<std::uint32_t, Pending> pending_;   ///< by req_id
    std::unordered_map<std::uint32_t, std::uint32_t> req_of_seq_;
    /// Armed NACK-retry timers by seq (dropping a TimerRef disarms it,
    /// so the pending nudges must be held somewhere).
    std::unordered_map<std::uint32_t, sim::TimerRef> nack_timers_;
    Stats stats_;
    LogHistogram get_latency_;
    LogHistogram put_latency_;
    std::vector<OpRecord> log_;
};

}  // namespace daiet::kv
