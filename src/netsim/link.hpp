// Full-duplex point-to-point link with bandwidth, propagation delay,
// a drop-tail queue and optional random loss injection.
//
// Parallel-sim aware: each direction is owned by the shard of its
// *sending* node (Network::enable_parallel re-binds the per-side
// simulators), so all of a direction's mutable state — busy clock,
// backlog, stats, loss RNG, serialization memo, pending-delivery FIFO —
// is touched by exactly one worker thread. Deliveries on a boundary
// link (the two ends live on different shards) are shipped through a
// cross-shard mailbox instead of being scheduled directly; the
// receiving shard's worker drains it at the start of the next window
// (netsim/parallel.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "netsim/node.hpp"
#include "netsim/time.hpp"

namespace daiet::sim {

struct LinkParams {
    double gbps{10.0};
    SimTime propagation_delay{1 * kMicrosecond};
    /// Drop-tail queue capacity in bytes per direction; 0 = unbounded.
    std::size_t queue_bytes{0};
    /// Independent per-frame loss probability (failure injection; the
    /// paper's prototype does not handle loss, and neither does DAIET's
    /// default configuration — see DESIGN.md §4).
    double loss_probability{0.0};
    /// ECN marking threshold in bytes per direction; a frame enqueued
    /// while the backlog sits above it is stamped Congestion
    /// Experienced in flight. 0 disables marking.
    std::size_t ecn_threshold_bytes{0};
};

struct LinkDirectionStats {
    std::uint64_t frames_sent{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t frames_delivered{0};
    std::uint64_t frames_dropped_queue{0};
    std::uint64_t frames_dropped_loss{0};
    std::uint64_t frames_marked_ecn{0};
};

/// One frame crossing a shard boundary, stamped with the sender-side
/// arrival instant.
struct CrossFrame {
    SimTime at{0};
    Node* dst{nullptr};
    PortId port{0};
    FrameBuf frame;
};

/// The (src shard -> dst shard) hand-off, double-buffered by window
/// parity. During a window the sending shard's worker appends to
/// `side[*parity]` while the receiving shard's worker drains the other
/// side (the previous window's traffic), so no vector is ever touched
/// by two threads at once; the window barrier's completion step flips
/// the parity. The receiver drains its inbound boxes in fixed (src
/// shard, FIFO) order, which makes its sequence numbers, and hence the
/// whole schedule, thread-count-independent. Each push also lowers the
/// sender's `*shipped_min`, the earliest arrival it shipped this window,
/// so the driver sizes the next window without scanning any box.
struct Mailbox {
    std::vector<CrossFrame> side[2];
    const unsigned* parity{nullptr};
    SimTime* shipped_min{nullptr};

    void push(CrossFrame cf) {
        *shipped_min = std::min(*shipped_min, cf.at);
        side[*parity].push_back(std::move(cf));
    }
};

class Link {
public:
    Link(Simulator& sim, Node& a, Node& b, LinkParams params, std::uint64_t loss_seed = 0);

    /// Enqueue `frame` for transmission away from side `from_side`
    /// (0 = from a towards b, 1 = from b towards a).
    void transmit(int from_side, FrameBuf frame);

    const LinkParams& params() const noexcept { return params_; }
    const LinkDirectionStats& stats(int from_side) const {
        DAIET_EXPECTS(from_side == 0 || from_side == 1);
        return dir_[from_side].stats;
    }

    // --- queue instrumentation (telemetry hooks) ---------------------------
    /// Bytes currently queued for transmission away from `from_side`.
    std::size_t backlog_bytes(int from_side) const {
        DAIET_EXPECTS(from_side == 0 || from_side == 1);
        return dir_[from_side].backlog_bytes;
    }
    /// High watermark of the drop-tail backlog since construction or the
    /// last reset — what a telemetry poll reports per egress queue.
    std::size_t peak_backlog_bytes(int from_side) const {
        DAIET_EXPECTS(from_side == 0 || from_side == 1);
        return dir_[from_side].peak_backlog_bytes;
    }
    /// Open a new watermark observation window.
    void reset_peak_backlog(int from_side) {
        DAIET_EXPECTS(from_side == 0 || from_side == 1);
        dir_[from_side].peak_backlog_bytes = dir_[from_side].backlog_bytes;
    }

    Node& peer_of(int side) noexcept { return side == 0 ? *b_ : *a_; }
    PortId peer_port(int side) const noexcept {
        return side == 0 ? port_b_ : port_a_;
    }
    /// The node *at* `side` (peer_of gives the node across the wire).
    Node& end_of(int side) noexcept { return side == 0 ? *a_ : *b_; }

    /// Re-home the two directions onto their sending nodes' shard
    /// simulators and, for a boundary link, attach the cross-shard
    /// mailboxes (`a_to_b` carries side-0 traffic; null = same shard).
    /// Called by Network::enable_parallel before any traffic flows.
    void bind_parallel(Simulator& sim_a, Simulator& sim_b,
                       Mailbox* a_to_b, Mailbox* b_to_a) noexcept {
        sim_[0] = &sim_a;
        sim_[1] = &sim_b;
        mailbox_[0] = a_to_b;
        mailbox_[1] = b_to_a;
    }

private:
    /// A delivery waiting in the direction's same-tick batcher. Arrivals
    /// are non-decreasing per direction (the busy clock chains), so the
    /// FIFO is sorted by construction.
    struct PendingDelivery {
        SimTime at{0};
        FrameBuf frame;
    };

    struct Direction {
        SimTime busy_until{0};
        std::size_t backlog_bytes{0};
        std::size_t peak_backlog_bytes{0};
        LinkDirectionStats stats;
        /// Per-direction loss stream: both directions can execute
        /// concurrently on different shards, and a shared generator's
        /// draw order would depend on thread interleaving.
        Rng loss_rng{0};
        /// Serialization-delay memo (see transmit()); per direction for
        /// the same reason as the RNG.
        std::size_t ser_memo_bytes{~std::size_t{0}};
        SimTime ser_memo_ns{0};
        /// Same-tick delivery batcher: frames in flight, drained by one
        /// chained dispatch per distinct arrival instant.
        std::vector<PendingDelivery> pending;
        std::size_t pending_head{0};
        bool drainer_armed{false};
    };

    void drain(int from_side);

    Node* a_;
    Node* b_;
    PortId port_a_;
    PortId port_b_;
    LinkParams params_;
    Direction dir_[2];
    /// Per-side scheduling clock: sim_[s] is the shard simulator of the
    /// side-s node (both point at the Network's simulator until
    /// bind_parallel re-homes them).
    Simulator* sim_[2];
    /// Boundary mailboxes; null for an intra-shard direction.
    Mailbox* mailbox_[2]{nullptr, nullptr};
    /// Lazily interned per-direction trace labels ("a->b"); 0 = not yet
    /// interned. Only touched while tracing is enabled.
    std::uint32_t trace_dir_id_[2]{0, 0};

    std::uint32_t trace_label(int from_side);
};

}  // namespace daiet::sim
