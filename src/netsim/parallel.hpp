// Conservative time-windowed parallel simulation driver.
//
// The Kohring recipe (PAPERS.md, "Implicit Simulations using Messaging
// Protocols") applied to the netsim event loop: the fabric is
// partitioned into shards — each shard a full Simulator owning a subset
// of the nodes plus every link direction whose *sender* lives there —
// and the shards advance in lockstep through conservative time windows.
// The window width is the lookahead: the minimum propagation delay over
// all shard-boundary links. Within a window [W, W+L) no shard can
// influence another before W+L (a frame crossing a boundary needs at
// least L of wire time), so every shard may execute its local queue up
// to — but not including — the window end with no cross-thread
// coordination at all.
//
// Cross-shard frame deliveries are shipped through per-(src,dst)
// mailboxes (netsim/link.hpp), double-buffered by window parity: the
// sending shard's worker appends to one side during a window while the
// receiving shard's worker drains the other, so one std::barrier
// crossing per window is the only synchronisation. Every worker runs
// the same loop, for any worker count from 1 to S:
//   1. cross the barrier;
//   2. drain the inbound mailboxes of its own shards, in fixed (src
//      shard, FIFO) order;
//   3. run its shards' windows and record each shard's next_at =
//      min(queue head, earliest arrival it shipped this window).
// The barrier's completion step runs while every worker is parked: it
// reduces next_at to the next window (or to the stop signal), scrapes
// the time-series sampler and flips the mailbox parity. Because each
// destination drains in the same order whoever runs it, the sequence
// numbers the receiving queue assigns (and therefore the same-instant
// tie-break, and therefore the entire schedule) are identical no
// matter how many worker threads ran the windows. That is the
// determinism contract the bench gates on: 1-thread, 2-thread and
// N-thread runs produce bit-identical event counts, signatures and
// final times.
//
// Shard ownership of *link directions* (not whole links) is what keeps
// windows coordination-free: drop-tail, loss draw, ECN mark and the
// busy clock all read sender-side direction state, so a boundary
// direction is entirely owned by its sender's shard; only the delivery
// hand-off crosses (netsim/link.cpp). The backlog decrement fires as a
// sender-shard event at the same arrival instant, costing one extra
// event per boundary delivery — the price of never sharing a byte of
// queue state across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/contracts.hpp"
#include "netsim/link.hpp"  // Mailbox
#include "netsim/simulator.hpp"
#include "netsim/time.hpp"

namespace daiet::trace {
class TsSampler;
}  // namespace daiet::trace

namespace daiet::sim {

class ShardedSimulator {
public:
    /// `primary` (the Network's own simulator) becomes shard 0;
    /// `n_shards - 1` additional shard queues are created and owned
    /// here. `threads` is a cap: the run uses min(threads, n_shards)
    /// workers, each driving the shards `i % workers == j` — the shard
    /// count, and with it the whole event structure, never depends on
    /// the thread count.
    ShardedSimulator(Simulator* primary, std::size_t n_shards,
                     std::size_t threads);

    ShardedSimulator(const ShardedSimulator&) = delete;
    ShardedSimulator& operator=(const ShardedSimulator&) = delete;

    /// Set after the topology has been re-homed onto the shards (the
    /// Network computes it as the minimum boundary propagation delay).
    /// Must be > 0 when any boundary link exists: a zero-latency
    /// boundary admits no conservative window.
    void set_lookahead(SimTime lookahead) noexcept { lookahead_ = lookahead; }
    SimTime lookahead() const noexcept { return lookahead_; }

    Simulator& shard(std::size_t i) noexcept { return *shards_[i]; }
    std::size_t shard_count() const noexcept { return shards_.size(); }
    std::size_t thread_count() const noexcept { return threads_; }

    /// The (src -> dst) mailbox boundary link directions push into.
    Mailbox& mailbox(std::size_t src, std::size_t dst) {
        DAIET_EXPECTS(src != dst);
        return mailboxes_[dst * shards_.size() + src];
    }

    /// Run every shard to quiescence. Returns the final simulated time
    /// (the max over shards — identical to what one sequential queue
    /// would report, because run_window never inflates a shard's clock
    /// past its last executed event).
    SimTime run();

    /// Max over shards — the fabric-wide clock between/after runs.
    SimTime now() const noexcept;

    /// Sum over shards (the bench's zero-steady-state-allocations gate).
    std::uint64_t actions_heap_allocated() const noexcept;
    std::uint64_t events_executed() const noexcept;

    /// Conservative windows executed by the last run() (diagnostics).
    std::uint64_t windows_run() const noexcept { return windows_; }

    /// Window-driven time-series sampling: the barrier's completion step
    /// calls sampler->maybe_sample(window_start) while every worker is
    /// parked, so probes may read any shard's state, no sim events are
    /// injected (signatures stay bit-identical), and sample times are
    /// deterministic. Pass nullptr to detach; the sampler must outlive
    /// any run() it is attached for.
    void set_sampler(trace::TsSampler* sampler) noexcept { sampler_ = sampler; }
    trace::TsSampler* sampler() const noexcept { return sampler_; }

private:
    /// A shard's window bookkeeping, one cache line per shard: written
    /// only by the worker that runs the shard, read by the completion
    /// step while that worker is parked.
    struct alignas(64) ShardClock {
        SimTime next_at{Simulator::kNever};
        SimTime shipped_min{Simulator::kNever};  ///< Mailbox::push lowers it
    };

    /// Schedule shard `dst`'s inbound traffic from the last window.
    void drain_inbound(std::size_t dst);
    /// Record shard i's next_at after its window and reset its
    /// shipped-arrival minimum for the next one.
    void close_window(std::size_t i);

    std::vector<Simulator*> shards_;               ///< [0] = primary, borrowed
    std::vector<std::unique_ptr<Simulator>> owned_;  ///< shards 1..S-1
    std::vector<Mailbox> mailboxes_;  ///< S*S, row = dst (a worker's drain is contiguous)
    std::vector<ShardClock> clocks_;
    unsigned parity_{0};  ///< the mailbox side senders fill this window
    SimTime lookahead_{Simulator::kNever};
    std::size_t threads_;
    std::uint64_t windows_{0};
    trace::TsSampler* sampler_{nullptr};
};

}  // namespace daiet::sim
