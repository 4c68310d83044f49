#include "netsim/link.hpp"

#include <algorithm>
#include <utility>

#include "netsim/headers.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"

namespace daiet::sim {

Link::Link(Simulator& sim, Node& a, Node& b, LinkParams params, std::uint64_t loss_seed)
    : a_{&a}, b_{&b}, params_{params} {
    DAIET_EXPECTS(params.gbps > 0.0);
    sim_[0] = &sim;
    sim_[1] = &sim;
    // Side 0 keeps the caller's seed verbatim (unidirectional loss
    // experiments reproduce their historical drop sequences); side 1
    // gets an independently derived stream.
    dir_[0].loss_rng = Rng{loss_seed};
    dir_[1].loss_rng = Rng{SplitMix64{~loss_seed}.next()};
    port_a_ = a.attach_link(this, 0);
    port_b_ = b.attach_link(this, 1);
}

void Link::transmit(int from_side, FrameBuf frame) {
    DAIET_EXPECTS(from_side == 0 || from_side == 1);
    Direction& dir = dir_[from_side];
    Simulator& sim = *sim_[from_side];
    const std::size_t size = frame.size();

    if (params_.queue_bytes != 0 && dir.backlog_bytes + size > params_.queue_bytes) {
        ++dir.stats.frames_dropped_queue;
        if (trace::enabled()) {
            trace::tracer().record({sim.now(), frame.trace_id(), dir.backlog_bytes, size,
                                    trace_label(from_side), trace::EventKind::kLinkDropQueue});
        }
        return;
    }
    if (params_.loss_probability > 0.0 && dir.loss_rng.next_bool(params_.loss_probability)) {
        // Loss is injected at enqueue time: the frame occupies no queue
        // space and never arrives (models corruption on the wire).
        ++dir.stats.frames_dropped_loss;
        if (trace::enabled()) {
            trace::tracer().record({sim.now(), frame.trace_id(), 0, size,
                                    trace_label(from_side), trace::EventKind::kLinkDropLoss});
        }
        return;
    }

    // ECN-ish congestion marking: a frame joining a backlog already
    // above the threshold is stamped in flight, so receivers learn of
    // the standing queue one RTT before drop-tail losses would tell
    // them (the watermark signal the telemetry tenant also reports).
    if (params_.ecn_threshold_bytes != 0 &&
        dir.backlog_bytes + size > params_.ecn_threshold_bytes &&
        mark_frame_ecn_ce(frame.mutable_bytes())) {
        ++dir.stats.frames_marked_ecn;
        if (trace::enabled()) {
            trace::tracer().record({sim.now(), frame.trace_id(), dir.backlog_bytes, size,
                                    trace_label(from_side), trace::EventKind::kEcnMark});
        }
    }

    const SimTime now = sim.now();
    const SimTime start = std::max(now, dir.busy_until);
    // One-entry memo for the serialization delay: fabric traffic is
    // dominated by a handful of fixed frame sizes, and the memo skips a
    // floating-point divide per frame while returning bit-identical
    // values (it caches the function's own result).
    if (size != dir.ser_memo_bytes) {
        dir.ser_memo_bytes = size;
        dir.ser_memo_ns = transmission_time_ns(size, params_.gbps);
    }
    const SimTime done = start + dir.ser_memo_ns;
    dir.busy_until = done;
    dir.backlog_bytes += size;
    dir.peak_backlog_bytes = std::max(dir.peak_backlog_bytes, dir.backlog_bytes);
    ++dir.stats.frames_sent;
    dir.stats.bytes_sent += size;

    Node& dst = peer_of(from_side);
    const PortId dst_port = peer_port(from_side);
    const SimTime arrival = done + params_.propagation_delay;

    if (trace::enabled()) {
        auto& t = trace::tracer();
        const std::uint32_t label = trace_label(from_side);
        t.record({now, frame.trace_id(), dir.backlog_bytes, size, label,
                  trace::EventKind::kLinkEnqueue});
        // Delivery is deterministic once enqueued; record it now with the
        // arrival timestamp so the per-frame closure stays untouched
        // (consumers sort by ts).
        t.record({arrival, frame.trace_id(), 0, size, label, trace::EventKind::kLinkDeliver});
    }

    if (mailbox_[from_side] != nullptr) {
        // Boundary direction: ship the frame to the peer shard through
        // the mailbox (the receiving shard's worker schedules the
        // hand-off at `arrival` — conservative windows guarantee that
        // shard's clock has not reached it). Frame refcounts are
        // deliberately non-atomic, so a slab still shared on this shard
        // (switch fan-out) must cross by deep copy, not by reference.
        FrameBuf shipped;
        if (frame.unique()) {
            shipped = std::move(frame);
        } else {
            const std::uint64_t tid = frame.trace_id();
            shipped = FrameBuf::copy_of(frame.bytes());
            shipped.set_trace_id(tid);
        }
        mailbox_[from_side]->push({arrival, &dst, dst_port, std::move(shipped)});
        // The backlog drains sender-side at the same instant the frame
        // lands: drop-tail and ECN read this direction's backlog here.
        sim.schedule_at(arrival, [d = &dir, size] {
            d->backlog_bytes -= size;
            ++d->stats.frames_delivered;
        });
        return;
    }

    // Same-tick delivery batching: instead of one scheduled action per
    // frame, park the frame in the direction's sorted FIFO and let one
    // chained drainer dispatch per distinct arrival instant deliver
    // everything due.
    dir.pending.push_back({arrival, std::move(frame)});
    if (!dir.drainer_armed) {
        dir.drainer_armed = true;
        sim.schedule_at(arrival, [this, from_side] { drain(from_side); });
    }
}

void Link::drain(int from_side) {
    Direction& dir = dir_[from_side];
    Simulator& sim = *sim_[from_side];
    const SimTime now = sim.now();
    Node& dst = peer_of(from_side);
    const PortId dst_port = peer_port(from_side);
    // handle_frame may transmit on this very direction; same-instant
    // arrivals it appends are picked up by this loop (indices, not
    // iterators — the vector may reallocate underneath us).
    while (dir.pending_head < dir.pending.size() &&
           dir.pending[dir.pending_head].at == now) {
        FrameBuf f = std::move(dir.pending[dir.pending_head].frame);
        ++dir.pending_head;
        dir.backlog_bytes -= f.size();
        ++dir.stats.frames_delivered;
        dst.handle_frame(std::move(f), dst_port);
    }
    if (dir.pending_head == dir.pending.size()) {
        dir.pending.clear();
        dir.pending_head = 0;
        dir.drainer_armed = false;
        return;
    }
    sim.schedule_at(dir.pending[dir.pending_head].at,
                    [this, from_side] { drain(from_side); });
    // Compact the consumed prefix once it dominates the vector, so a
    // long busy period cannot grow the FIFO without bound.
    if (dir.pending_head >= 64 && dir.pending_head * 2 >= dir.pending.size()) {
        dir.pending.erase(dir.pending.begin(),
                          dir.pending.begin() +
                              static_cast<std::ptrdiff_t>(dir.pending_head));
        dir.pending_head = 0;
    }
}

std::uint32_t Link::trace_label(int from_side) {
    std::uint32_t& id = trace_dir_id_[from_side];
    if (id == 0) {
        const Node& from = from_side == 0 ? *a_ : *b_;
        const Node& to = from_side == 0 ? *b_ : *a_;
        id = trace::tracer().intern(from.name() + "->" + to.name());
    }
    return id;
}

void Node::transmit(PortId p, FrameBuf frame) {
    const PortBinding& binding = port(p);
    DAIET_EXPECTS(binding.link != nullptr);
    binding.link->transmit(binding.side, std::move(frame));
}

EgressQueueSample Node::sample_egress_queue(PortId p, bool reset_peak) {
    const PortBinding& binding = port(p);
    DAIET_EXPECTS(binding.link != nullptr);
    Link& link = *binding.link;
    const LinkDirectionStats& stats = link.stats(binding.side);
    EgressQueueSample sample;
    sample.backlog_bytes = link.backlog_bytes(binding.side);
    sample.peak_backlog_bytes = link.peak_backlog_bytes(binding.side);
    sample.frames_dropped_queue = stats.frames_dropped_queue;
    sample.frames_dropped_loss = stats.frames_dropped_loss;
    sample.frames_marked_ecn = stats.frames_marked_ecn;
    if (reset_peak) link.reset_peak_backlog(binding.side);
    return sample;
}

}  // namespace daiet::sim
