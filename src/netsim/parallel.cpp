#include "netsim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <thread>
#include <utility>

#include "trace/profiler.hpp"
#include "trace/timeseries.hpp"
#include "trace/trace.hpp"

namespace daiet::sim {

namespace {

/// Window end = next + lookahead, saturating (an unbounded lookahead —
/// no boundary links — means one window runs everything).
SimTime window_end_after(SimTime next, SimTime lookahead) noexcept {
    return next > Simulator::kNever - lookahead ? Simulator::kNever
                                                : next + lookahead;
}

}  // namespace

ShardedSimulator::ShardedSimulator(Simulator* primary, std::size_t n_shards,
                                   std::size_t threads)
    : threads_{std::max<std::size_t>(threads, 1)} {
    DAIET_EXPECTS(primary != nullptr);
    DAIET_EXPECTS(n_shards >= 1);
    shards_.reserve(n_shards);
    shards_.push_back(primary);
    for (std::size_t i = 1; i < n_shards; ++i) {
        owned_.push_back(std::make_unique<Simulator>());
        shards_.push_back(owned_.back().get());
    }
    mailboxes_.resize(n_shards * n_shards);
    clocks_.resize(n_shards);
    for (std::size_t i = 0; i < mailboxes_.size(); ++i) {
        mailboxes_[i].parity = &parity_;
        mailboxes_[i].shipped_min = &clocks_[i % n_shards].shipped_min;  // row = dst
    }
}

SimTime ShardedSimulator::now() const noexcept {
    SimTime t = 0;
    for (const Simulator* s : shards_) t = std::max(t, s->now());
    return t;
}

std::uint64_t ShardedSimulator::actions_heap_allocated() const noexcept {
    std::uint64_t n = 0;
    for (const Simulator* s : shards_) n += s->actions_heap_allocated();
    return n;
}

std::uint64_t ShardedSimulator::events_executed() const noexcept {
    std::uint64_t n = 0;
    for (const Simulator* s : shards_) n += s->events_executed();
    return n;
}

void ShardedSimulator::drain_inbound(std::size_t dst) {
    // Fixed (src, FIFO) order: the receiving queue's sequence numbers
    // (the same-instant tie-break) depend only on shard contents, never
    // on which thread ran what when.
    Simulator& ds = *shards_[dst];
    const std::size_t n = shards_.size();
    for (std::size_t src = 0; src < n; ++src) {
        if (src == dst) continue;
        std::vector<CrossFrame>& box = mailboxes_[dst * n + src].side[parity_ ^ 1];
        for (CrossFrame& cf : box) {
            // cf.at >= previous window end > the receiver's clock: the
            // conservative window guarantees this hand-off is always a
            // legal future schedule.
            ds.schedule_at(cf.at, [node = cf.dst, port = cf.port,
                                   f = std::move(cf.frame)]() mutable {
                node->handle_frame(std::move(f), port);
            });
        }
        box.clear();
    }
}

void ShardedSimulator::close_window(std::size_t i) {
    ShardClock& c = clocks_[i];
    c.next_at = std::min(shards_[i]->next_event_at(), c.shipped_min);
    c.shipped_min = Simulator::kNever;
}

SimTime ShardedSimulator::run() {
    const std::size_t n = shards_.size();
    if (n == 1) {
        // Degenerate partition (e.g. every node landed in one shard):
        // plain sequential run, no windows, no barriers.
        return shards_[0]->run();
    }
    DAIET_EXPECTS(lookahead_ > 0);
    const std::size_t workers = std::min(threads_, n);
    // Frames shipped before run() sit on the current side and count
    // toward the first window, like any window's traffic.
    for (std::size_t i = 0; i < n; ++i) close_window(i);

    SimTime window_end = 0;
    bool done = false;
    // The barrier runs this on one worker while the others are parked,
    // so it may read every shard's clock and probe any shard's state.
    auto complete = [&]() noexcept {
        SimTime next = Simulator::kNever;
        for (const ShardClock& c : clocks_) next = std::min(next, c.next_at);
        if (next == Simulator::kNever) {
            done = true;
            return;
        }
        ++windows_;
        window_end = window_end_after(next, lookahead_);
        if (sampler_ != nullptr) sampler_->maybe_sample(next);
        parity_ ^= 1;
    };
    std::barrier gate{static_cast<std::ptrdiff_t>(workers), complete};

    const bool prof = trace::profiling();
    if (prof) trace::profiler().begin_run();
    auto drive = [&](std::size_t j) {
        // Chained profiler clock: every read closes one span (barrier,
        // drain, one exec per shard) and opens the next, so a window
        // costs 2 + (shards owned) clock reads per worker; the hooks run
        // tens of thousands of times per second, and read count IS the
        // overhead.
        std::uint64_t chain = prof ? trace::Profiler::now_ticks() : 0;
        const auto span = [&] {
            const std::uint64_t t = trace::Profiler::now_ticks();
            const std::uint64_t d = t - chain;
            chain = t;
            return d;
        };
        for (;;) {
            // Park time includes the completion step: the window sizing
            // and the sampler scrape stall every worker alike.
            gate.arrive_and_wait();
            if (prof) trace::profiler().add_barrier(j, span());
            if (done) break;
            for (std::size_t i = j; i < n; i += workers) drain_inbound(i);
            if (prof) trace::profiler().add_drain(j, span());
            for (std::size_t i = j; i < n; i += workers) {
                // Spans recorded while executing shard i land in lane i
                // no matter which thread runs the window, and the
                // profiler charges exec time per shard, not per thread.
                trace::tracer().bind_lane(i);
                const std::uint64_t ev0 = shards_[i]->events_executed();
                shards_[i]->run_window(window_end);
                close_window(i);
                if (prof) {
                    trace::profiler().add_exec(
                        i, span(), shards_[i]->events_executed() - ev0);
                }
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t j = 1; j < workers; ++j) {
        pool.emplace_back([&drive, j] {
            drive(j);
            // Publish this worker's event tally before it disappears, so
            // process_events_executed() on the main thread sees it.
            Simulator::flush_process_counter();
        });
    }
    drive(0);
    for (std::thread& t : pool) t.join();
    trace::tracer().bind_lane(0);
    if (prof) trace::profiler().end_run();
    return now();
}

}  // namespace daiet::sim
