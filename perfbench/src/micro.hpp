// Micro-timed public calls of the traced pass.
//
// Each timer drives one public entry point of a layer with frames shaped
// like a workload's own, on a chip taken from that workload's built
// ClusterRuntime, so the tenant set (and telemetry's observe tap, where
// deployed) is the one the workload runs. A frame no tenant of the chip
// claims takes the chip's plain forwarding path, which is then what the
// row measures.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"

#include "common/framebuf.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "netsim/headers.hpp"

namespace perfbench::micro {

/// DAIET DATA frames from `src` to the tree root `dst`, packing `pairs`
/// the way MapperSender does (max_pairs_per_packet per frame).
std::vector<daiet::FrameBuf> daiet_data_frames(daiet::sim::HostAddr src,
                                               daiet::sim::HostAddr dst,
                                               daiet::TreeId tree,
                                               const std::vector<daiet::KvPair>& pairs,
                                               const daiet::Config& config);

/// A plain UDP datagram no tenant claims (the echo sweep's shape).
daiet::FrameBuf plain_udp_frame(daiet::sim::HostAddr src, daiet::sim::HostAddr dst);

/// A kv GET for `key` from a client to the storage server `dst`.
daiet::FrameBuf kv_get_frame(daiet::sim::HostAddr src, daiet::sim::HostAddr dst,
                             const daiet::Key16& key, std::uint32_t seq);

/// Median ns per PipelineSwitch::receive over batches of `frames`
/// (cycled), each delivered on `in_port`.
double chip_receive_ns(daiet::dp::PipelineSwitch& chip,
                       const std::vector<daiet::FrameBuf>& frames,
                       daiet::dp::PortId in_port, std::size_t calls_per_batch);

/// Median ns per event scheduled with Simulator::schedule_at and
/// executed by Simulator::run, at the spread of a busy fabric (events up
/// to 16 us ahead).
double queue_ns_per_event();

/// Where a workload's micro rows run: one chip and frame set per row.
struct Targets {
    daiet::dp::PipelineSwitch* forward_chip{nullptr};
    std::vector<daiet::FrameBuf> forward_frames;
    daiet::dp::PipelineSwitch* daiet_chip{nullptr};
    std::vector<daiet::FrameBuf> daiet_frames;
    daiet::dp::PipelineSwitch* kv_chip{nullptr};
    std::vector<daiet::FrameBuf> kv_frames;
};

/// Fill core.router.ns_per_forward, core.daiet.ns_per_data_pkt,
/// kvcache.ns_per_get_hit and netsim.queue.ns_per_event.
void time_rows(const Targets& targets, Layers& layers);

}  // namespace perfbench::micro
