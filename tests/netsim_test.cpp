// Tests for the discrete-event network simulator: event ordering,
// links (timing, queueing, loss), wire formats, hosts/UDP, L2
// switching, route installation and ECMP.
#include <gtest/gtest.h>

#include <sstream>

#include "netsim/headers.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"

namespace daiet::sim {
namespace {

// ----------------------------------------------------------- simulator

TEST(Simulator, ExecutesInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(30, [&] { order.push_back(3); });
    sim.schedule_at(10, [&] { order.push_back(1); });
    sim.schedule_at(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(5, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(10, [&] {
        sim.schedule_after(5, [&] { ++fired; });
    });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 15U);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(10, [&] { ++fired; });
    sim.schedule_at(100, [&] { ++fired; });
    sim.run_until(50);
    EXPECT_EQ(fired, 1);
    // The clock must land exactly on the deadline even though the last
    // executed event fired earlier (periodic pollers depend on this).
    EXPECT_EQ(sim.now(), 50U);
    EXPECT_FALSE(sim.idle());
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInPastIsFatal) {
    Simulator sim;
    sim.schedule_at(10, [&] {
        EXPECT_DEATH(sim.schedule_at(5, [] {}), "precondition");
    });
    sim.run();
}

// ------------------------------------------------------------- headers

TEST(Headers, EthernetRoundTrip) {
    ByteWriter w;
    EthernetHeader h{.dst = 0xAABBCCDDEEFF, .src = 0x112233445566, .ethertype = 0x0800};
    h.serialize(w);
    EXPECT_EQ(w.size(), EthernetHeader::kSize);
    ByteReader r{w.bytes()};
    const auto parsed = EthernetHeader::parse(r);
    EXPECT_EQ(parsed.dst, h.dst);
    EXPECT_EQ(parsed.src, h.src);
    EXPECT_EQ(parsed.ethertype, h.ethertype);
}

TEST(Headers, Ipv4RoundTrip) {
    ByteWriter w;
    Ipv4Header h;
    h.total_length = 1500;
    h.ttl = 17;
    h.protocol = kIpProtoTcp;
    h.src = 42;
    h.dst = 77;
    h.serialize(w);
    EXPECT_EQ(w.size(), Ipv4Header::kSize);
    ByteReader r{w.bytes()};
    const auto parsed = Ipv4Header::parse(r);
    EXPECT_EQ(parsed.total_length, 1500);
    EXPECT_EQ(parsed.ttl, 17);
    EXPECT_EQ(parsed.protocol, kIpProtoTcp);
    EXPECT_EQ(parsed.src, 42U);
    EXPECT_EQ(parsed.dst, 77U);
}

TEST(Headers, UdpFrameLayout) {
    const auto payload = as_bytes("payload");
    const auto frame = build_udp_frame(1, 2, 1111, 2222, payload);
    EXPECT_EQ(frame.size(), kUdpFrameOverhead + 7);
    const auto parsed = parse_frame(frame);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->udp.has_value());
    EXPECT_EQ(parsed->ip.src, 1U);
    EXPECT_EQ(parsed->ip.dst, 2U);
    EXPECT_EQ(parsed->udp->src_port, 1111);
    EXPECT_EQ(parsed->udp->dst_port, 2222);
    EXPECT_EQ(parsed->udp->length, UdpHeader::kSize + 7);
    const auto body = parsed->payload_of(frame);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(body.data()), body.size()),
              "payload");
}

TEST(Headers, TcpFrameLayout) {
    TcpHeader tcp;
    tcp.src_port = 10;
    tcp.dst_port = 20;
    tcp.seq = 1000;
    tcp.ack = 2000;
    tcp.flags = TcpHeader::kFlagAck | TcpHeader::kFlagPsh;
    const auto frame = build_tcp_frame(3, 4, tcp, as_bytes("x"));
    EXPECT_EQ(frame.size(), kTcpFrameOverhead + 1);
    const auto parsed = parse_frame(frame);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->tcp.has_value());
    EXPECT_EQ(parsed->tcp->seq, 1000U);
    EXPECT_EQ(parsed->tcp->ack, 2000U);
    EXPECT_TRUE(parsed->tcp->ack_flag());
    EXPECT_FALSE(parsed->tcp->syn());
}

TEST(Headers, NonIpv4ReturnsNullopt) {
    ByteWriter w;
    EthernetHeader{.dst = 1, .src = 2, .ethertype = 0x86DD}.serialize(w);
    w.put_zeros(40);
    EXPECT_FALSE(parse_frame(w.bytes()).has_value());
}

TEST(Headers, TruncatedFrameThrows) {
    const auto frame = build_udp_frame(1, 2, 1, 2, as_bytes("abc"));
    std::vector<std::byte> cut{frame.begin(), frame.begin() + 20};
    EXPECT_THROW(parse_frame(cut), BufferError);
}

// Reference parser: the per-header ByteReader parsers chained, bounds
// checked field by field. parse_frame's direct loads must agree with it.
std::optional<ParsedFrame> parse_frame_reference(std::span<const std::byte> frame) {
    ByteReader r{frame};
    ParsedFrame out;
    out.eth = EthernetHeader::parse(r);
    if (out.eth.ethertype != kEtherTypeIpv4) return std::nullopt;
    out.ip = Ipv4Header::parse(r);
    if (out.ip.protocol == kIpProtoUdp) {
        out.udp = UdpHeader::parse(r);
    } else if (out.ip.protocol == kIpProtoTcp) {
        out.tcp = TcpHeader::parse(r);
    }
    out.payload_offset = r.position();
    return out;
}

/// Every observable of one parse, flattened: the headers and payload
/// offset, or which of nullopt / BufferError the parser produced.
template <typename Parser>
std::string parse_outcome(Parser parse, std::span<const std::byte> frame) {
    std::optional<ParsedFrame> p;
    try {
        p = parse(frame);
    } catch (const BufferError&) {
        return "BufferError";
    }
    if (!p) return "nullopt";
    std::ostringstream os;
    os << "eth " << p->eth.dst << ' ' << p->eth.src << ' ' << p->eth.ethertype
       << " ip " << p->ip.total_length << ' ' << int{p->ip.ecn} << ' '
       << int{p->ip.ttl} << ' ' << int{p->ip.protocol} << ' ' << p->ip.src << ' '
       << p->ip.dst;
    if (p->udp) {
        os << " udp " << p->udp->src_port << ' ' << p->udp->dst_port << ' '
           << p->udp->length;
    }
    if (p->tcp) {
        os << " tcp " << p->tcp->src_port << ' ' << p->tcp->dst_port << ' '
           << p->tcp->seq << ' ' << p->tcp->ack << ' ' << int{p->tcp->flags} << ' '
           << p->tcp->window;
    }
    os << " payload@" << p->payload_offset;
    return os.str();
}

// Valid UDP, TCP, non-TCP/UDP IPv4 and non-IPv4 frames, each cut at
// every length and each with every byte flipped three ways (ethertype,
// version/IHL, protocol and TCP data-offset mutations all fall out).
TEST(Headers, ParseFrameMatchesByteReaderReference) {
    TcpHeader tcp;
    tcp.src_port = 0x1234;
    tcp.dst_port = 0xbeef;
    tcp.seq = 0xdeadbeef;
    tcp.ack = 0x01020304;
    tcp.flags = TcpHeader::kFlagSyn | TcpHeader::kFlagAck;
    tcp.window = 0x7777;
    std::vector<std::vector<std::byte>> frames;
    const auto keep = [&frames](const FrameBuf& f) {
        frames.emplace_back(f.begin(), f.end());
    };
    keep(build_udp_frame(0x0a0b0c0d, 0x01020304, 4242, 7000, as_bytes("payload!")));
    keep(build_udp_frame(1, 2, 1, 2, {}));
    keep(build_tcp_frame(0x11223344, 0x55667788, tcp, as_bytes("tcp body")));
    {
        ByteWriter w;
        EthernetHeader{.dst = 0xAABBCCDDEEFF, .src = 0x112233445566}.serialize(w);
        Ipv4Header ip;
        ip.protocol = 1;  // ICMP: IPv4 without a parsed L4 header
        ip.ecn = kEcnCongestionExperienced;
        ip.serialize(w);
        w.put_zeros(8);
        frames.emplace_back(w.bytes().begin(), w.bytes().end());
    }
    {
        ByteWriter w;
        EthernetHeader{.dst = 1, .src = 2, .ethertype = 0x86DD}.serialize(w);
        w.put_zeros(40);
        frames.emplace_back(w.bytes().begin(), w.bytes().end());
    }

    std::size_t cases = 0;
    const auto check = [&cases](std::span<const std::byte> f) {
        EXPECT_EQ(parse_outcome(parse_frame, f),
                  parse_outcome(parse_frame_reference, f))
            << "frame of " << f.size() << " bytes";
        ++cases;
    };
    for (const auto& frame : frames) {
        for (std::size_t len = 0; len <= frame.size(); ++len) {
            check(std::span{frame}.first(len));
        }
        for (std::size_t i = 0; i < frame.size(); ++i) {
            for (const auto flip : {std::byte{0x01}, std::byte{0x40}, std::byte{0xff}}) {
                auto mutated = frame;
                mutated[i] ^= flip;
                check(mutated);
            }
        }
    }
    EXPECT_GT(cases, 500u);
}

// ------------------------------------------------------- links & hosts

TEST(Network, UdpDeliveryAcrossStar) {
    Network net;
    auto topo = make_star_l2(net, 3);
    net.install_routes();

    std::string received;
    HostAddr from = 0;
    topo.hosts[2]->udp_bind(9000, [&](HostAddr src, std::uint16_t, auto payload) {
        from = src;
        received.assign(reinterpret_cast<const char*>(payload.data()), payload.size());
    });
    topo.hosts[0]->udp_send(topo.hosts[2]->addr(), 1234, 9000, as_bytes("ping"));
    net.run();
    EXPECT_EQ(received, "ping");
    EXPECT_EQ(from, topo.hosts[0]->addr());
    EXPECT_EQ(topo.hosts[2]->counters().udp_frames_rx, 1U);
    EXPECT_EQ(topo.hosts[0]->counters().udp_frames_tx, 1U);
}

TEST(Network, LinkTimingMatchesBandwidthAndDelay) {
    Network net;
    LinkParams params;
    params.gbps = 1.0;                        // 1 Gb/s: 8 ns per byte
    params.propagation_delay = 1000;          // 1 us
    auto topo = make_star_l2(net, 2, params);
    net.install_routes();

    SimTime arrival = 0;
    topo.hosts[1]->udp_bind(9, [&](HostAddr, std::uint16_t, auto) {
        arrival = net.simulator().now();
    });
    const std::vector<std::byte> payload(58);  // frame = 42 + 58 = 100 bytes
    topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, payload);
    net.run();
    // Two hops: each 100 B * 8 ns/B serialization + 1 us propagation.
    EXPECT_EQ(arrival, 2 * (800 + 1000));
}

TEST(Network, FifoOrderingPreserved) {
    Network net;
    auto topo = make_star_l2(net, 2);
    net.install_routes();
    std::vector<int> order;
    topo.hosts[1]->udp_bind(9, [&](HostAddr, std::uint16_t, auto payload) {
        order.push_back(static_cast<int>(payload[0]));
    });
    for (int i = 0; i < 20; ++i) {
        const std::byte b{static_cast<unsigned char>(i)};
        topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, std::span{&b, 1});
    }
    net.run();
    ASSERT_EQ(order.size(), 20U);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Network, DropTailQueueDropsExcess) {
    Network net;
    LinkParams params;
    params.gbps = 0.001;  // slow link so the queue builds up
    params.queue_bytes = 300;
    auto topo = make_star_l2(net, 2, params);
    net.install_routes();
    int delivered = 0;
    topo.hosts[1]->udp_bind(9, [&](HostAddr, std::uint16_t, auto) { ++delivered; });
    const std::vector<std::byte> payload(58);  // 100 B frames
    for (int i = 0; i < 10; ++i) {
        topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, payload);
    }
    net.run();
    EXPECT_LT(delivered, 10);
    EXPECT_GT(delivered, 0);
    const auto& stats = net.links()[0]->stats(0);
    EXPECT_EQ(stats.frames_dropped_queue + static_cast<std::uint64_t>(delivered), 10U);
}

TEST(Network, LossInjectionDropsFraction) {
    Network net{77};
    LinkParams params;
    params.loss_probability = 0.5;
    auto topo = make_star_l2(net, 2, params);
    net.install_routes();
    int delivered = 0;
    topo.hosts[1]->udp_bind(9, [&](HostAddr, std::uint16_t, auto) { ++delivered; });
    const std::vector<std::byte> payload(10);
    for (int i = 0; i < 400; ++i) {
        topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, payload);
    }
    net.run();
    // Two lossy hops: expected delivery rate 0.25.
    EXPECT_NEAR(delivered / 400.0, 0.25, 0.08);
}

TEST(Network, UnknownDestinationDropsAtSwitch) {
    Network net;
    auto topo = make_star_l2(net, 2);
    net.install_routes();
    topo.hosts[0]->udp_send(999, 9, 9, as_bytes("x"));
    net.run();
    auto* sw = dynamic_cast<L2Switch*>(topo.tor);
    ASSERT_NE(sw, nullptr);
    EXPECT_EQ(sw->stats().frames_dropped_no_route, 1U);
}

TEST(Network, UnboundPortCountsUnclaimed) {
    Network net;
    auto topo = make_star_l2(net, 2);
    net.install_routes();
    topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 1234, as_bytes("x"));
    net.run();
    EXPECT_EQ(topo.hosts[1]->counters().frames_rx_unclaimed, 1U);
}

// ----------------------------------------------------------- leaf-spine

TEST(LeafSpine, AllPairsReachable) {
    Network net;
    auto topo = make_leaf_spine_l2(net, 3, 2, 2);
    net.install_routes();
    int received = 0;
    for (auto* h : topo.hosts) {
        h->udp_bind(9, [&](HostAddr, std::uint16_t, auto) { ++received; });
    }
    int sent = 0;
    for (auto* src : topo.hosts) {
        for (auto* dst : topo.hosts) {
            if (src == dst) continue;
            src->udp_send(dst->addr(), 9, 9, as_bytes("m"));
            ++sent;
        }
    }
    net.run();
    EXPECT_EQ(received, sent);
}

TEST(LeafSpine, EcmpSpreadsFlowsAcrossSpines) {
    Network net;
    auto topo = make_leaf_spine_l2(net, 2, 2, 4);
    net.install_routes();
    for (auto* h : topo.hosts) {
        h->udp_bind(9, [](HostAddr, std::uint16_t, auto) {});
    }
    // Many flows with distinct ports from rack 0 to rack 1.
    for (std::uint16_t flow = 0; flow < 64; ++flow) {
        topo.hosts[0]->udp_send(topo.hosts[7]->addr(),
                                static_cast<std::uint16_t>(1000 + flow), 9,
                                as_bytes("x"));
    }
    net.run();
    // Count frames forwarded by each spine; both must see traffic.
    std::vector<std::uint64_t> spine_counts;
    for (auto* spine : topo.spines) {
        auto* sw = dynamic_cast<L2Switch*>(spine);
        ASSERT_NE(sw, nullptr);
        spine_counts.push_back(sw->stats().frames_forwarded);
    }
    EXPECT_EQ(spine_counts[0] + spine_counts[1], 64U);
    EXPECT_GT(spine_counts[0], 10U);
    EXPECT_GT(spine_counts[1], 10U);
}

TEST(LeafSpine, SameLeafTrafficStaysLocal) {
    Network net;
    auto topo = make_leaf_spine_l2(net, 2, 2, 2);
    net.install_routes();
    topo.hosts[1]->udp_bind(9, [](HostAddr, std::uint16_t, auto) {});
    topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, as_bytes("x"));
    net.run();
    for (auto* spine : topo.spines) {
        auto* sw = dynamic_cast<L2Switch*>(spine);
        EXPECT_EQ(sw->stats().frames_forwarded, 0U);
    }
}

TEST(Network, HostByAddrLookup) {
    Network net;
    auto topo = make_star_l2(net, 3);
    EXPECT_EQ(net.host_by_addr(topo.hosts[1]->addr()), topo.hosts[1]);
    EXPECT_EQ(net.host_by_addr(0), nullptr);
    EXPECT_EQ(net.host_by_addr(999), nullptr);
}

TEST(Network, EdgeSwitchOfFindsTheTor) {
    Network net;
    auto topo = make_leaf_spine_l2(net, 2, 2, 2);
    net.install_routes();
    EXPECT_EQ(net.edge_switch_of(*topo.hosts[0]), topo.leaves[0]);
    EXPECT_EQ(net.edge_switch_of(*topo.hosts[3]), topo.leaves[1]);
}

// ----------------------------------------------- switch vaddr edge cases

TEST(SwitchVaddr, DuplicateRegistrationToAnotherNodeThrows) {
    Network net;
    auto topo = make_leaf_spine_l2(net, 2, 2, 1);
    net.install_routes();
    constexpr HostAddr kVaddr = 0xF0000123u;
    net.install_switch_address(*topo.spines[0], kVaddr);
    // Re-registering the same (node, vaddr) pair is a reinstall, fine.
    EXPECT_NO_THROW(net.install_switch_address(*topo.spines[0], kVaddr));
    // Pointing the same vaddr at a different node is a deployment
    // conflict (two services fighting over one address) and must be
    // rejected before any route is overwritten.
    EXPECT_THROW(net.install_switch_address(*topo.spines[1], kVaddr),
                 std::runtime_error);
}

TEST(SwitchVaddr, CollidingWithAHostAddressThrows) {
    Network net;
    auto topo = make_leaf_spine_l2(net, 2, 2, 1);
    net.install_routes();
    EXPECT_THROW(net.install_switch_address(*topo.spines[0],
                                            topo.hosts[0]->addr()),
                 std::runtime_error);
}

TEST(SwitchVaddr, ProbingAnUnclaimedVaddrDropsAtTheTarget) {
    Network net;
    auto topo = make_leaf_spine_l2(net, 2, 2, 2);
    net.install_routes();
    // A vaddr on a plain L2 switch with no resident program claiming
    // it: frames route *toward* the target and die there (the target
    // has no route for its own vaddr, by design), with no delivery, no
    // reply and no wedged simulation.
    constexpr HostAddr kVaddr = 0xF0000777u;
    net.install_switch_address(*topo.spines[1], kVaddr);
    Host& probe_src = *topo.hosts[0];
    std::vector<std::byte> payload{16, std::byte{0x5A}};
    bool delivered = false;
    for (Host* host : net.hosts()) {
        host->udp_bind(7100, [&](HostAddr, std::uint16_t,
                                 std::span<const std::byte>) {
            delivered = true;
        });
    }
    probe_src.udp_send(kVaddr, 7100, 7100, payload);
    const SimTime end = net.run();  // quiesces instead of looping
    EXPECT_GT(end, 0u);
    EXPECT_FALSE(delivered);
    for (Host* host : net.hosts()) {
        EXPECT_EQ(host->counters().frames_rx_unclaimed, 0u);
        host->udp_unbind(7100);
    }
}

// --------------------------------------------------- event queue details

// The fast-path queue fronts a timing wheel with a far-future overflow
// heap (see simulator.hpp). Events beyond the wheel window must migrate
// in as the window advances, and quiet stretches must jump the window
// rather than walking empty buckets — in both cases firing in exact
// (time, seq) order.
TEST(Simulator, FarFutureEventsFireInOrder) {
    Simulator sim;
    std::vector<std::uint64_t> order;
    const SimTime times[] = {5 * kMillisecond,       100,
                             20 * kMicrosecond,      kMillisecond,
                             50,                     16 * kMicrosecond + 3,
                             300};
    for (const SimTime t : times) {
        sim.schedule_at(t, [&order, t] { order.push_back(t); });
    }
    // Nested schedules from the running region: one near, one far.
    sim.schedule_at(60, [&] {
        sim.schedule_after(2 * kMillisecond, [&] {
            order.push_back(2 * kMillisecond + 60);
        });
        sim.schedule_after(5, [&] { order.push_back(65); });
    });
    sim.run();
    ASSERT_EQ(order.size(), 9u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(sim.now(), 5 * kMillisecond);
}

// run_until() can park the queue's cursor at an event far in the
// future; events scheduled afterwards for an earlier instant must still
// fire first, tie-broken by scheduling order.
TEST(Simulator, EarlierSchedulesAfterRunUntilStillFireFirst) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(50 * kMicrosecond, [&] { order.push_back(3); });
    sim.run_until(10);
    EXPECT_EQ(sim.now(), 10u);
    sim.schedule_at(20, [&] { order.push_back(1); });
    sim.schedule_at(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SmallActionsStayInlineLargeOnesAreBoxed) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(1, [&fired] { ++fired; });
    sim.run();
    EXPECT_EQ(sim.actions_heap_allocated(), 0u);
    std::array<std::byte, 64> big{};  // over the 48-byte inline buffer
    sim.schedule_at(2, [big, &fired] {
        fired += static_cast<int>(big[0] == std::byte{0});
    });
    sim.run();
    EXPECT_EQ(sim.actions_heap_allocated(), 1u);
    EXPECT_EQ(fired, 2);
}

// ------------------------------------------------------- timers & pool

TEST(Host, CancelledTimerReclaimsItsTombstoneEarly) {
    Network net;
    auto topo = make_star_l2(net, 2);
    net.install_routes();
    Host& host = *topo.hosts[0];
    int fired = 0;
    auto cancelled = host.timer_after(1000, [&] { ++fired; });
    auto kept = host.timer_after(1000, [&] { ++fired; });
    cancelled->cancel();
    // The callback (and its captures) died at cancel time, not at the
    // original fire time.
    EXPECT_EQ(host.timer_tombstones_reclaimed(), 1u);
    // Dropping the last handle reclaims too.
    host.timer_after(2000, [&] { ++fired; });
    EXPECT_EQ(host.timer_tombstones_reclaimed(), 2u);
    net.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(host.timer_tombstones_reclaimed(), 2u);
}

TEST(FrameBuf, PoolReusesSlabsAndCopiesOnWrite) {
    FrameBuf::trim_pool();
    const auto s0 = FrameBuf::pool_stats();
    { const FrameBuf a = FrameBuf::allocate(100); }
    const auto s1 = FrameBuf::pool_stats();
    EXPECT_EQ(s1.slab_allocs, s0.slab_allocs + 1);
    EXPECT_EQ(s1.free_slabs, s0.free_slabs + 1);

    FrameBuf b = FrameBuf::copy_of(as_bytes("hello"));
    const auto s2 = FrameBuf::pool_stats();
    EXPECT_EQ(s2.reuses, s1.reuses + 1);

    FrameBuf c = b;  // refcount bump, not a copy
    EXPECT_FALSE(b.unique());
    c.mutable_bytes()[0] = std::byte{'H'};  // copy-on-write
    EXPECT_TRUE(c.unique());
    EXPECT_EQ(static_cast<char>(b.bytes()[0]), 'h');
    EXPECT_EQ(static_cast<char>(c.bytes()[0]), 'H');
    EXPECT_EQ(FrameBuf::pool_stats().cow_copies, s2.cow_copies + 1);
}

TEST(FrameBuf, OversizeAllocationsBypassThePool) {
    const auto s0 = FrameBuf::pool_stats();
    {
        const FrameBuf big = FrameBuf::allocate(FrameBuf::kSlabCapacity + 1);
        EXPECT_EQ(big.size(), FrameBuf::kSlabCapacity + 1);
    }
    const auto s1 = FrameBuf::pool_stats();
    EXPECT_EQ(s1.oversize_allocs, s0.oversize_allocs + 1);
    EXPECT_EQ(s1.free_slabs, s0.free_slabs);  // freed, never pooled
}

// --------------------------------------------------------- determinism

struct LossyRunOutcome {
    std::uint64_t signature;
    std::uint64_t events;
    SimTime final_time;

    bool operator==(const LossyRunOutcome&) const = default;
};

// A lossy leaf-spine fabric with ping-pong traffic and a timer mix:
// every delivery (who, from whom, payload head, when) folds into one
// FNV signature, so any divergence in event order shows up.
LossyRunOutcome run_lossy_leaf_spine() {
    Network net{1234};
    LinkParams params;
    params.loss_probability = 0.02;
    auto topo = make_leaf_spine_l2(net, 4, 2, 4, params);
    net.install_routes();

    std::uint64_t sig = 0xcbf29ce484222325ULL;
    const auto fold = [&sig](std::uint64_t v) {
        sig = (sig ^ v) * 0x100000001b3ULL;
    };
    const std::size_t n = topo.hosts.size();
    for (std::size_t h = 0; h < n; ++h) {
        topo.hosts[h]->udp_bind(
            7000, [&, h](HostAddr src, std::uint16_t, auto payload) {
                fold(h);
                fold(src);
                fold(std::to_integer<std::uint64_t>(payload[0]));
                fold(net.simulator().now());
                if (payload.size() > 1) {  // echo back, one byte shorter
                    const std::vector<std::byte> next(payload.begin(),
                                                      payload.end() - 1);
                    topo.hosts[h]->udp_send(src, 7000, 7000, next);
                }
            });
    }
    std::vector<TimerRef> timers;
    for (std::size_t h = 0; h < n; ++h) {
        const std::vector<std::byte> payload(
            8, std::byte{static_cast<unsigned char>(h)});
        net.simulator().schedule_at(10 + h * 137, [&topo, h, n, payload] {
            topo.hosts[h]->udp_send(topo.hosts[(h + 1) % n]->addr(), 7000,
                                    7000, payload);
        });
        // A live timer injecting late traffic, and a cancelled one whose
        // tombstone must not disturb the schedule.
        timers.push_back(topo.hosts[h]->timer_after(
            30 * kMicrosecond + h, [&topo, h, n, payload] {
                topo.hosts[h]->udp_send(topo.hosts[(h + 2) % n]->addr(), 7000,
                                        7000, payload);
            }));
        auto doomed = topo.hosts[h]->timer_after(90 * kMicrosecond, [] {});
        doomed->cancel();
    }
    net.run();
    fold(net.simulator().now());
    return {sig, net.simulator().events_executed(), net.simulator().now()};
}

TEST(Determinism, IdenticalSeedsReproduceBitExactly) {
    const LossyRunOutcome first = run_lossy_leaf_spine();
    const LossyRunOutcome second = run_lossy_leaf_spine();
    EXPECT_GT(first.events, 100u);  // the workload actually ran
    EXPECT_EQ(first, second);
}

// Golden schedule: the lossy replay's signature, event count and final
// time as captured before the simulator's old cost model was retired.
// Any change to event order, link timing, loss draws or timer handling
// moves at least one of them. These are pinned constants: update them
// deliberately and record it in CHANGES.md.
TEST(Determinism, LossyLeafSpineMatchesGolden) {
    const LossyRunOutcome golden{0x782c169fe6539a61ULL, 574, 90000};
    EXPECT_EQ(run_lossy_leaf_spine(), golden);
}

// ------------------------------------------------- parallel simulation

// The same lossy leaf-spine replay, partitioned rack-per-shard. The
// signature folds per host (one host's deliveries execute on one shard
// in a deterministic order; a fabric-global fold order would depend on
// the thread interleaving) and the per-host signatures combine in host
// order after the run.
LossyRunOutcome run_lossy_leaf_spine_parallel(std::size_t threads,
                                              bool partition = true) {
    constexpr std::size_t kLeaves = 4;
    constexpr std::size_t kSpines = 2;
    constexpr std::size_t kHostsPerLeaf = 4;
    Network net{1234};
    LinkParams params;
    params.loss_probability = 0.02;
    auto topo = make_leaf_spine_l2(net, kLeaves, kSpines, kHostsPerLeaf, params);
    net.install_routes();

    if (partition) {
        // The ClusterRuntime plan: a leaf plus its rack of hosts per
        // shard, spines dealt round-robin across the rack shards.
        std::vector<std::uint32_t> shard_of(net.nodes().size(), 0);
        for (std::size_t s = 0; s < topo.spines.size(); ++s) {
            shard_of[topo.spines[s]->id()] =
                static_cast<std::uint32_t>(s % kLeaves);
        }
        for (std::size_t l = 0; l < topo.leaves.size(); ++l) {
            shard_of[topo.leaves[l]->id()] = static_cast<std::uint32_t>(l);
        }
        for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
            shard_of[topo.hosts[h]->id()] =
                static_cast<std::uint32_t>(h / kHostsPerLeaf);
        }
        net.enable_parallel(shard_of, threads);
    }

    const std::size_t n = topo.hosts.size();
    std::vector<std::uint64_t> host_sig(n, 0xcbf29ce484222325ULL);
    const auto fold = [](std::uint64_t& sig, std::uint64_t v) {
        sig = (sig ^ v) * 0x100000001b3ULL;
    };
    for (std::size_t h = 0; h < n; ++h) {
        topo.hosts[h]->udp_bind(
            7000, [&, h](HostAddr src, std::uint16_t, auto payload) {
                fold(host_sig[h], src);
                fold(host_sig[h], std::to_integer<std::uint64_t>(payload[0]));
                fold(host_sig[h], topo.hosts[h]->simulator().now());
                if (payload.size() > 1) {
                    const std::vector<std::byte> next(payload.begin(),
                                                      payload.end() - 1);
                    topo.hosts[h]->udp_send(src, 7000, 7000, next);
                }
            });
    }
    std::vector<TimerRef> timers;
    for (std::size_t h = 0; h < n; ++h) {
        const std::vector<std::byte> payload(
            8, std::byte{static_cast<unsigned char>(h)});
        // Kickoffs go through each host's own simulator: scheduling on
        // another shard's queue mid-run is exactly what the windowed
        // scheme forbids.
        topo.hosts[h]->simulator().schedule_at(10 + h * 137, [&topo, h, n, payload] {
            topo.hosts[h]->udp_send(topo.hosts[(h + 1) % n]->addr(), 7000,
                                    7000, payload);
        });
        timers.push_back(topo.hosts[h]->timer_after(
            30 * kMicrosecond + h, [&topo, h, n, payload] {
                topo.hosts[h]->udp_send(topo.hosts[(h + 2) % n]->addr(), 7000,
                                        7000, payload);
            }));
        auto doomed = topo.hosts[h]->timer_after(90 * kMicrosecond, [] {});
        doomed->cancel();
    }
    net.run();
    std::uint64_t sig = 0xcbf29ce484222325ULL;
    for (std::size_t h = 0; h < n; ++h) fold(sig, host_sig[h]);
    fold(sig, net.now());
    return {sig, net.events_executed(), net.now()};
}

// The tentpole's gate: the partition fixes the shard count and with it
// the event graph, so 1-, 2- and 4-thread runs of one partition must
// agree on the event count, the delivery signature and the final
// simulated time, bit for bit.
TEST(ParallelSim, ThreadCountsProduceIdenticalOutcomes) {
    const LossyRunOutcome one = run_lossy_leaf_spine_parallel(1);
    const LossyRunOutcome two = run_lossy_leaf_spine_parallel(2);
    const LossyRunOutcome four = run_lossy_leaf_spine_parallel(4);
    EXPECT_GT(one.events, 100u);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, four);
    // The windows never inflate a shard clock past its last event, so
    // the fabric-wide final time matches the unpartitioned run exactly
    // (event counts differ: boundary deliveries cost one bookkeeping
    // event each, which is why the partitioned runs form their own
    // parity group).
    const LossyRunOutcome seq = run_lossy_leaf_spine_parallel(1, false);
    EXPECT_EQ(seq.final_time, one.final_time);
}

// Two senders on different shards, arrivals at the same instant: the
// receiving shard's worker drains its inbound mailboxes in (source-shard,
// FIFO) order, so the tie breaks toward the lower source shard — on
// every thread count.
struct RaceOutcome {
    std::vector<HostAddr> order;  ///< sources in order of arrival at h0
    HostAddr h1{0};
    HostAddr h2{0};
};

RaceOutcome run_equal_timestamp_race(std::size_t threads) {
    Network net{7};
    auto topo = make_star_l2(net, 3);
    net.install_routes();
    // h0 + tor on shard 0; h1 and h2 alone on shards 1 and 2.
    std::vector<std::uint32_t> shard_of(net.nodes().size(), 0);
    shard_of[topo.hosts[1]->id()] = 1;
    shard_of[topo.hosts[2]->id()] = 2;
    net.enable_parallel(shard_of, threads);

    RaceOutcome out;
    out.h1 = topo.hosts[1]->addr();
    out.h2 = topo.hosts[2]->addr();
    topo.hosts[0]->udp_bind(7000, [&out](HostAddr src, std::uint16_t, auto) {
        out.order.push_back(src);
    });
    const std::vector<std::byte> payload(4, std::byte{0x5a});
    for (const std::size_t h : {std::size_t{1}, std::size_t{2}}) {
        topo.hosts[h]->simulator().schedule_at(50, [&topo, h, payload] {
            topo.hosts[h]->udp_send(topo.hosts[0]->addr(), 7000, 7000, payload);
        });
    }
    net.run();
    return out;
}

TEST(ParallelSim, EqualTimestampCrossShardArrivalsOrderBySourceShard) {
    const RaceOutcome one = run_equal_timestamp_race(1);
    ASSERT_EQ(one.order.size(), 2u);
    EXPECT_EQ(one.order[0], one.h1);
    EXPECT_EQ(one.order[1], one.h2);
    EXPECT_EQ(run_equal_timestamp_race(2).order, one.order);
    EXPECT_EQ(run_equal_timestamp_race(4).order, one.order);
}

// A shard plan that puts the whole fabric in one shard (a star's only
// legal plan: no cut has positive lookahead) must degrade to the plain
// sequential run — same signature, same event count, no windows.
TEST(ParallelSim, SingleShardPlanDegradesToSequential) {
    const auto run = [](bool partition) {
        Network net{99};
        auto topo = make_star_l2(net, 4);
        net.install_routes();
        if (partition) {
            net.enable_parallel(
                std::vector<std::uint32_t>(net.nodes().size(), 0), 4);
        }
        std::uint64_t sig = 0xcbf29ce484222325ULL;
        for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
            topo.hosts[h]->udp_bind(7000, [&sig, h](HostAddr src, std::uint16_t,
                                                    auto payload) {
                sig = (sig ^ (h * 1315423911u + src +
                              std::to_integer<std::uint64_t>(payload[0]))) *
                      0x100000001b3ULL;
            });
        }
        const std::vector<std::byte> payload(6, std::byte{0x11});
        for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
            topo.hosts[h]->simulator().schedule_at(h * 13, [&topo, h, payload] {
                topo.hosts[h]->udp_send(
                    topo.hosts[(h + 1) % topo.hosts.size()]->addr(), 7000, 7000,
                    payload);
            });
        }
        net.run();
        return std::tuple{sig, net.events_executed(), net.now()};
    };
    const auto partitioned = run(true);
    const auto plain = run(false);
    EXPECT_EQ(partitioned, plain);
    EXPECT_GT(std::get<2>(partitioned), 0u);
}

}  // namespace
}  // namespace daiet::sim
