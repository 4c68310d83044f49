#include "kvcache/store.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "directory/protocol.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"

namespace daiet::kv {

// -------------------------------------------------------- KvStoreServer

KvStoreServer::KvStoreServer(sim::Host& host, KvConfig config)
    : host_{&host}, config_{config} {
    host_->udp_bind(config_.server_udp_port,
                    [this](sim::HostAddr src, std::uint16_t src_port,
                           std::span<const std::byte> payload) {
                        on_datagram(src, src_port, payload);
                    });
}

KvStoreServer::~KvStoreServer() { host_->udp_unbind(config_.server_udp_port); }

sim::HostAddr KvStoreServer::addr() const noexcept { return host_->addr(); }

void KvStoreServer::on_datagram(sim::HostAddr src, std::uint16_t src_port,
                                std::span<const std::byte> payload) {
    if (!looks_like_kv(payload)) return;
    const KvMessage msg = parse_kv(payload);
    if (msg.op != KvOp::kGet && msg.op != KvOp::kPut) return;

    // At-most-once: a retransmission is answered by replaying the
    // recorded reply bytes, never by re-executing (a duplicate PUT
    // must not re-apply over a later write, a duplicate GET must not
    // observe one). The replay is a header check ahead of the worker:
    // it costs no service time, which keeps spurious retransmissions
    // from feeding the very saturation that caused them.
    switch (replies_.classify(src, msg.seq)) {
        case transport::Sighting::kNew: break;
        case transport::Sighting::kDuplicate: {
            ++stats_.duplicates;
            // Mark the replay on the wire: a cache switch must be able
            // to tell it from the original acknowledgment (it may carry
            // a value later writes have superseded).
            KvMessage replay = parse_kv(*replies_.find(src, msg.seq));
            replay.flags |= kKvFlagReplay;
            // The ECN echo describes the path *now*, not at recording
            // time: re-derive it from this retransmission's mark so a
            // drained queue stops signalling and a newly standing one
            // starts — it is exactly the retry traffic the back-off
            // loop wants to throttle.
            replay.flags &= static_cast<std::uint8_t>(~kKvFlagEce);
            if (host_->rx_ecn_ce()) replay.flags |= kKvFlagEce;
            if (trace::enabled()) {
                trace::tracer().annotate_next_tx(transport::request_tag(src, msg.seq));
            }
            host_->udp_send(src, config_.server_udp_port, src_port,
                            serialize_kv(replay));
            return;
        }
        case transport::Sighting::kForgotten:
            // Too old to replay; the client abandoned it long ago.
            ++stats_.duplicates;
            return;
    }

    KvMessage reply;
    reply.req_id = msg.req_id;
    reply.seq = msg.seq;
    reply.key = msg.key;
    // Echo forward-path congestion: a request that crossed a marked
    // queue tells its client to back off via the reply flags.
    if (host_->rx_ecn_ce()) reply.flags |= kKvFlagEce;
    if (msg.op == KvOp::kGet) {
        ++stats_.gets;
        ++access_log_[msg.key];
        reply.op = KvOp::kGetReply;
        const auto it = store_.find(msg.key);
        if (it != store_.end()) {
            reply.flags |= kKvFlagFound;
            reply.value = it->second;
        } else {
            ++stats_.not_found;
        }
    } else {
        ++stats_.puts;
        put(msg.key, msg.value);
        reply.op = KvOp::kPutAck;
        reply.flags |= kKvFlagFound;
        reply.value = msg.value;
    }

    // Serial worker: requests are served one after another, each
    // costing the configured service time. The reply leaves when the
    // worker gets to — and finishes — this request. The reply bytes are
    // recorded first so a retransmission arriving mid-service replays
    // the same serialized outcome.
    auto wire = serialize_kv(reply);
    replies_.record(src, msg.seq, wire);
    sim::Simulator& sim = host_->simulator();
    const sim::SimTime start = std::max(sim.now(), worker_free_at_);
    worker_free_at_ = start + config_.server_service_time;
    stats_.busy_time += config_.server_service_time;
    sim.schedule_at(worker_free_at_,
                    [this, wire = std::move(wire), src, src_port, seq = msg.seq] {
        // Tag the reply tx with the request it answers, so forensics can
        // follow the chain across the server hop.
        if (trace::enabled()) {
            trace::tracer().annotate_next_tx(transport::request_tag(src, seq));
        }
        host_->udp_send(src, config_.server_udp_port, src_port, wire);
    });
}

// ------------------------------------------------------------- KvClient

KvClient::History KvClient::history() const {
    History out;
    out.reserve(log_.size());
    for (const OpRecord& r : log_) out.emplace_back(r.req_id, r.op, r.key, r.value);
    std::sort(out.begin(), out.end());
    return out;
}

KvClient::KvClient(sim::Host& host, KvConfig config, sim::HostAddr server)
    : host_{&host},
      config_{config},
      server_{server},
      channel_{host, server, config.client_udp_port, config.server_udp_port,
               config.retry} {
    host_->udp_bind(config_.client_udp_port,
                    [this](sim::HostAddr src, std::uint16_t src_port,
                           std::span<const std::byte> payload) {
                        on_datagram(src, src_port, payload);
                    });
    // A request that exhausts its attempt budget completes nowhere:
    // drop its bookkeeping so outstanding() drains and the workload
    // can account for it.
    channel_.on_abandon = [this](std::uint32_t seq) {
        const auto sit = req_of_seq_.find(seq);
        if (sit == req_of_seq_.end()) return;
        pending_.erase(sit->second);
        req_of_seq_.erase(sit);
    };
}

KvClient::~KvClient() { host_->udp_unbind(config_.client_udp_port); }

void KvClient::on_nack(std::uint32_t seq) {
    ++stats_.nacks;
    if (!req_of_seq_.contains(seq)) return;     // already completed/abandoned
    if (nack_timers_.contains(seq)) return;     // a retry is already pending
    nack_timers_[seq] = host_->timer_after(config_.nack_retry_delay, [this, seq] {
        nack_timers_.erase(seq);
        if (channel_.nudge(seq)) ++stats_.nack_retries;
    });
}

std::uint32_t KvClient::get(const Key16& key) {
    ++stats_.gets_sent;
    return send(KvOp::kGet, key, 0);
}

std::uint32_t KvClient::put(const Key16& key, WireValue value) {
    ++stats_.puts_sent;
    return send(KvOp::kPut, key, value);
}

std::uint32_t KvClient::send(KvOp op, const Key16& key, WireValue value) {
    DAIET_EXPECTS(!key.empty());
    const std::uint32_t req_id = next_req_++;
    pending_[req_id] = Pending{op, key, host_->simulator().now()};
    KvMessage msg;
    msg.op = op;
    msg.req_id = req_id;
    msg.key = key;
    msg.value = value;
    // The retry channel stamps the transport seq, sends (or queues
    // behind the key's write barrier) and retransmits on timeout.
    const std::uint32_t seq =
        channel_.submit(key, op == KvOp::kPut, [&msg](std::uint32_t s) {
            msg.seq = s;
            return serialize_kv(msg);
        });
    req_of_seq_[seq] = req_id;
    return req_id;
}

void KvClient::on_datagram(sim::HostAddr /*src*/, std::uint16_t /*src_port*/,
                           std::span<const std::byte> payload) {
    // Directory NACKs arrive on the same socket as replies: the sharded
    // service's directory switch bounces requests whose key range is
    // mid-migration. The request is not lost (it provably died at the
    // directory), so instead of waiting out the RTO the client nudges
    // the retry channel after a short, fixed delay — long enough for a
    // few retries to span the migration's drain window.
    if (dir::looks_like_directory(payload)) {
        const dir::DirectoryMessage msg = dir::parse_directory(payload);
        if (msg.op == dir::DirectoryOp::kNack) on_nack(msg.seq);
        return;
    }
    if (!looks_like_kv(payload)) return;
    const KvMessage msg = parse_kv(payload);
    if (msg.op != KvOp::kGetReply && msg.op != KvOp::kPutAck) return;
    // Congestion feedback first, duplicates included: a CE mark on the
    // reply path or the server's ECE echo both mean a fabric queue is
    // standing between us and the server, and the retry transport
    // should hold its fire instead of feeding it.
    if (host_->rx_ecn_ce() || msg.ece()) channel_.note_congestion();
    // The channel completes each request exactly once; replies to
    // retransmitted copies are duplicates and fall on the floor here.
    if (!channel_.complete(msg.seq)) return;
    req_of_seq_.erase(msg.seq);
    const auto it = pending_.find(msg.req_id);
    if (it == pending_.end()) return;  // completed seq without a pending twin

    OpRecord record;
    record.req_id = msg.req_id;
    record.op = it->second.op;
    record.key = it->second.key;
    record.value = msg.value;
    record.found = msg.found();
    record.from_switch = msg.from_switch();
    record.from_edge = msg.from_edge();
    record.latency = host_->simulator().now() - it->second.issued;
    record.completed = host_->simulator().now();
    pending_.erase(it);

    if (record.op == KvOp::kGet) {
        ++stats_.get_replies;
        if (record.from_switch) ++stats_.switch_hits;
        if (record.from_edge) ++stats_.edge_hits;
        if (!record.found) ++stats_.not_found;
        get_latency_.add(static_cast<double>(record.latency));
    } else {
        ++stats_.put_acks;
        put_latency_.add(static_cast<double>(record.latency));
    }
    log_.push_back(record);
    if (on_reply) on_reply(record);
}

}  // namespace daiet::kv
