// FabricSampler: continuous signals from a live cluster.
//
// Binds a TsSampler to a ClusterRuntime's fabric: per-link-direction
// queue depth, per-switch SRAM occupancy (total and per tenant via
// SwitchProgramMux::sram_report), plus any caller-registered probe
// (services add cache hit/miss and retransmit counters through their
// install_probes hooks). Samples land in the process-wide
// TimeSeriesRegistry, so write_chrome_trace() exports them as Perfetto
// counter tracks with no further plumbing.
//
// Two drive modes, chosen by start():
//  - Parallel fabric: attaches to the ShardedSimulator, whose window
//    barrier's completion step calls maybe_sample while every worker is
//    parked — exclusive access to every shard, zero injected events,
//    signatures untouched, samples independent of the thread count.
//  - Single-threaded fabric: a self-rescheduling sim event pumps the
//    sampler every period until the horizon. This DOES add events to
//    the schedule (fine for examples and services; the determinism
//    bench uses the parallel mode).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "netsim/time.hpp"
#include "trace/timeseries.hpp"

namespace daiet::sim {
class ShardedSimulator;
}  // namespace daiet::sim

namespace daiet::rt {

class ClusterRuntime;

class FabricSampler {
public:
    /// `period_ns` is the sim-time cadence; `capacity` the per-track
    /// ring size. Registers no probes yet — call add_fabric_probes()
    /// and/or add_probe(), then start().
    FabricSampler(ClusterRuntime& rt, std::uint64_t period_ns,
                  std::size_t capacity = trace::TimeSeriesRegistry::kDefaultCapacity);
    ~FabricSampler();

    FabricSampler(const FabricSampler&) = delete;
    FabricSampler& operator=(const FabricSampler&) = delete;

    /// Queue-depth track per link direction ("queue.bytes-><peer>" at
    /// the sender node) and SRAM tracks per programmable switch
    /// ("sram.used_bytes" plus "sram.<tenant>" from sram_report).
    void add_fabric_probes();

    /// Any scalar the caller can close over; the probe runs in the
    /// sampling context (barrier completion step or sim event).
    void add_probe(std::string_view name, std::string_view node,
                   std::function<double()> fn);

    /// Begin sampling: attach to the parallel driver when one exists,
    /// otherwise pump via sim events until `horizon`.
    void start(sim::SimTime horizon);

    trace::TsSampler& sampler() noexcept { return sampler_; }
    std::uint64_t samples_taken() const noexcept { return sampler_.samples_taken(); }

private:
    void pump(sim::SimTime horizon);

    ClusterRuntime& rt_;
    trace::TsSampler sampler_;
    std::size_t capacity_;
    sim::ShardedSimulator* attached_{nullptr};
};

}  // namespace daiet::rt
