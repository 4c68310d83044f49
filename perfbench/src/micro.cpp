#include "micro.hpp"

#include "bench.hpp"
#include "common/rng.hpp"
#include "kvcache/config.hpp"
#include "kvcache/protocol.hpp"
#include "netsim/simulator.hpp"

namespace perfbench::micro {

namespace {

constexpr int kBatches = 5;

constexpr std::uint16_t kEchoPort = 47001;

}  // namespace

std::vector<daiet::FrameBuf> daiet_data_frames(daiet::sim::HostAddr src,
                                               daiet::sim::HostAddr dst,
                                               daiet::TreeId tree,
                                               const std::vector<daiet::KvPair>& pairs,
                                               const daiet::Config& config) {
    std::vector<daiet::FrameBuf> frames;
    for (std::size_t i = 0; i < pairs.size(); i += config.max_pairs_per_packet) {
        const std::size_t n = std::min(config.max_pairs_per_packet, pairs.size() - i);
        const auto payload = daiet::serialize_data(
            tree, std::span<const daiet::KvPair>{pairs.data() + i, n});
        frames.push_back(daiet::sim::build_udp_frame(src, dst, config.mapper_udp_port,
                                                     config.udp_port, payload));
    }
    return frames;
}

daiet::FrameBuf plain_udp_frame(daiet::sim::HostAddr src, daiet::sim::HostAddr dst) {
    const std::byte payload[4] = {};
    return daiet::sim::build_udp_frame(src, dst, kEchoPort, kEchoPort, payload);
}

daiet::FrameBuf kv_get_frame(daiet::sim::HostAddr src, daiet::sim::HostAddr dst,
                             const daiet::Key16& key, std::uint32_t seq) {
    const daiet::kv::KvConfig config;
    daiet::kv::KvMessage msg;
    msg.op = daiet::kv::KvOp::kGet;
    msg.req_id = seq;
    msg.seq = seq;
    msg.key = key;
    return daiet::sim::build_udp_frame(src, dst, config.client_udp_port,
                                       config.server_udp_port,
                                       daiet::kv::serialize_kv(msg));
}

double chip_receive_ns(daiet::dp::PipelineSwitch& chip,
                       const std::vector<daiet::FrameBuf>& frames,
                       daiet::dp::PortId in_port, std::size_t calls_per_batch) {
    std::vector<double> per_call;
    std::size_t sink = 0;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < calls_per_batch; ++i) {
            sink += chip.receive(daiet::dp::Packet{frames[i % frames.size()]}, in_port)
                        .size();
        }
        per_call.push_back(seconds_since(t0) * 1e9 /
                           static_cast<double>(calls_per_batch));
    }
    // Keep the emitted-packet count observable so the calls stay.
    if (sink == static_cast<std::size_t>(-1)) per_call.push_back(0.0);
    return median(per_call);
}

double queue_ns_per_event() {
    // A steady population of pending events, each rescheduling itself a
    // few hundred ns to a few us ahead when it fires: the shape of a
    // fabric's link deliveries and timers.
    constexpr std::size_t kChains = 1024;
    constexpr std::size_t kEvents = 1 << 18;
    std::vector<double> per_event;
    daiet::Rng rng{0x51u};
    std::vector<daiet::sim::SimTime> gaps(4096);
    for (auto& gap : gaps) gap = 100 + rng.next_u64() % (4 * daiet::sim::kMicrosecond);
    for (int b = 0; b < kBatches; ++b) {
        daiet::sim::Simulator sim;
        std::size_t fired = 0;
        struct Chain {
            daiet::sim::Simulator* sim;
            const std::vector<daiet::sim::SimTime>* gaps;
            std::size_t* fired;
            void operator()() const {
                const std::size_t n = ++*fired;
                if (n + kChains <= kEvents) {
                    sim->schedule_after((*gaps)[n % gaps->size()], *this);
                }
            }
        };
        const auto t0 = Clock::now();
        for (std::size_t c = 0; c < kChains; ++c) {
            sim.schedule_at(gaps[c], Chain{&sim, &gaps, &fired});
        }
        sim.run();
        per_event.push_back(seconds_since(t0) * 1e9 / static_cast<double>(fired));
    }
    return median(per_event);
}

void time_rows(const Targets& t, Layers& layers) {
    layers["core.router.ns_per_forward"] =
        chip_receive_ns(*t.forward_chip, t.forward_frames, 0, 200'000);
    layers["core.daiet.ns_per_data_pkt"] =
        chip_receive_ns(*t.daiet_chip, t.daiet_frames, 0, 100'000);
    layers["kvcache.ns_per_get_hit"] = chip_receive_ns(*t.kv_chip, t.kv_frames, 0, 200'000);
    layers["netsim.queue.ns_per_event"] = queue_ns_per_event();
}

}  // namespace perfbench::micro
