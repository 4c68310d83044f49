// Tests for the fabric-wide tracing stack (src/trace/): trace-id
// propagation through FrameBuf sharing and slab reuse, the recording
// modes (full / ring / disabled), causal span ordering on a lossy
// fabric, request forensics, the Chrome-trace exporter, and the
// metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/framebuf.hpp"
#include "kvcache/service.hpp"
#include "netsim/headers.hpp"
#include "netsim/network.hpp"
#include "runtime/cluster.hpp"
#include "trace/export.hpp"
#include "trace/forensics.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "transport/request_reply.hpp"

namespace daiet {
namespace {

/// RAII guard: every test leaves the process-wide tracer disabled.
struct TraceGuard {
    ~TraceGuard() { trace::tracer().disable(); }
};

// ------------------------------------------------------ frame trace ids

TEST(TraceIds, DisabledFramesCarryNoId) {
    TraceGuard guard;
    trace::tracer().disable();
    const auto frame = sim::build_udp_frame(1, 2, 10, 20, {});
    EXPECT_EQ(frame.trace_id(), 0U);
}

TEST(TraceIds, SurviveSharingAndCow) {
    TraceGuard guard;
    trace::tracer().enable_full();

    auto frame = sim::build_udp_frame(1, 2, 10, 20, {});
    const std::uint64_t id = frame.trace_id();
    ASSERT_NE(id, 0U);

    // Refcount-shared copy: same slab, same id.
    FrameBuf shared = frame;
    EXPECT_EQ(shared.trace_id(), id);

    // Copy-on-write: mutating one handle clones the slab but keeps the
    // causal identity (it is still the same frame, possibly remarked).
    (void)shared.mutable_bytes();
    EXPECT_FALSE(shared.unique() && frame.unique() &&
                 shared.data() == frame.data());
    EXPECT_EQ(shared.trace_id(), id);
    EXPECT_EQ(frame.trace_id(), id);
}

TEST(TraceIds, SlabReuseDoesNotLeakIds) {
    TraceGuard guard;
    trace::tracer().enable_full();
    std::uint64_t id = 0;
    {
        const auto frame = sim::build_udp_frame(1, 2, 10, 20, {});
        id = frame.trace_id();
        ASSERT_NE(id, 0U);
    }  // slab parked in the free list with the stale id
    trace::tracer().disable();
    // A fresh allocation while tracing is off reuses that slab; the old
    // id must not bleed into the new, untraced frame.
    const auto fresh = sim::build_udp_frame(3, 4, 10, 20, {});
    EXPECT_EQ(fresh.trace_id(), 0U);
}

// ------------------------------------------------------ recording modes

TEST(Tracer, DisabledModeRecordsAndAllocatesNothing) {
    TraceGuard guard;
    auto& t = trace::tracer();
    t.disable();
    EXPECT_FALSE(trace::enabled());
    t.record({1, 2, 3, 4, 0, trace::EventKind::kHostTx});
    EXPECT_EQ(t.size(), 0U);
    EXPECT_EQ(t.total_recorded(), 0U);
    EXPECT_EQ(t.capacity(), 0U);
    EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, RingModeKeepsOnlyTheLastN) {
    TraceGuard guard;
    auto& t = trace::tracer();
    t.enable_ring(4);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        t.record({i, 0, i, 0, 0, trace::EventKind::kHostTx});
    }
    EXPECT_EQ(t.size(), 4U);
    EXPECT_EQ(t.total_recorded(), 10U);
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 4U);
    // Oldest -> newest: 7, 8, 9, 10.
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].ts, 7 + i);
}

// Parallel simulation gives every shard its own recording lane (one
// writer each — a shared ring would interleave racily); the snapshot
// merges the active lanes by (timestamp, lane) with per-lane record
// order preserved. Lane binding is thread-local, so one thread driving
// bind_lane exercises exactly what the shard workers do.
TEST(Tracer, PerLaneRingsMergeDeterministicallyAtSnapshot) {
    TraceGuard guard;
    auto& t = trace::tracer();
    t.enable_ring(4);
    t.configure_lanes(3);
    ASSERT_EQ(t.lane_count(), 3U);

    // Each lane records independently — including past its ring
    // capacity — at timestamps that interleave across lanes.
    for (std::size_t lane = 0; lane < 3; ++lane) {
        t.bind_lane(lane);
        for (std::uint64_t i = 0; i < 6; ++i) {
            t.record({10 * i + lane, 0, i, 0, 0, trace::EventKind::kHostTx});
        }
    }
    t.bind_lane(0);

    // Per-lane eviction: each ring kept its own last 4.
    EXPECT_EQ(t.size(), 12U);
    EXPECT_EQ(t.total_recorded(), 18U);
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 12U);
    // Global (ts, lane) order: 20, 21, 22, 30, 31, 32, ...
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LT(events[i - 1].ts, events[i].ts);
    }
    EXPECT_EQ(events.front().ts, 20U);  // lane 0's oldest survivor
    EXPECT_EQ(events.back().ts, 52U);   // lane 2's newest

    // Trace ids stay fabric-unique: the lane index rides the top bits.
    t.bind_lane(1);
    const trace::TraceId on_lane1 = t.next_trace_id();
    t.bind_lane(2);
    const trace::TraceId on_lane2 = t.next_trace_id();
    t.bind_lane(0);
    EXPECT_EQ(on_lane1 >> 48, 1U);
    EXPECT_EQ(on_lane2 >> 48, 2U);
    EXPECT_NE(on_lane1, on_lane2);
}

TEST(Tracer, InternIsStableAndAnnotationIsOneShot) {
    TraceGuard guard;
    auto& t = trace::tracer();
    t.enable_full();
    const std::uint32_t a = t.intern("node-a");
    EXPECT_EQ(t.intern("node-a"), a);
    EXPECT_EQ(t.name_of(a), "node-a");
    EXPECT_EQ(t.name_of(0), "?");

    t.annotate_next_tx(42);
    EXPECT_EQ(t.take_tx_annotation(), 42U);
    EXPECT_EQ(t.take_tx_annotation(), 0U) << "annotation must be one-shot";
}

// ----------------------------------------------------------- forensics

TEST(Forensics, ReconstructsAKnownDropAndRetransmitChain) {
    TraceGuard guard;
    auto& t = trace::tracer();
    t.enable_full();
    const std::uint32_t client = 9;
    const std::uint32_t seq = 5;
    const std::uint64_t tag = transport::request_tag(client, seq);
    const std::uint32_t n_cli = t.intern("client");
    const std::uint32_t n_link = t.intern("client->tor");
    const std::uint32_t n_srv = t.intern("server");

    using trace::EventKind;
    const std::vector<trace::SpanEvent> events{
        {100, 0, tag, 1, n_cli, EventKind::kRequestSend},
        {110, 7, tag, 64, n_cli, EventKind::kHostTx},
        {120, 7, 0, 64, n_link, EventKind::kLinkDropLoss},
        {300, 0, tag, 2, n_cli, EventKind::kRetransmit},
        {310, 8, tag, 64, n_cli, EventKind::kHostTx},
        {330, 8, 0, 64, n_srv, EventKind::kHostRx},
        {400, 9, tag, 64, n_srv, EventKind::kHostTx},  // the reply frame
        {410, 9, 0, 64, n_cli, EventKind::kHostRx},
        {420, 0, tag, 2, n_cli, EventKind::kReplyRx},
        // Noise from an unrelated request: must not be joined in.
        {150, 11, transport::request_tag(8, 1), 1, n_cli, EventKind::kRequestSend},
        {160, 11, 0, 64, n_link, EventKind::kLinkDropLoss},
    };

    const trace::Verdict v = trace::investigate(events, client, seq);
    EXPECT_TRUE(v.found);
    EXPECT_TRUE(v.completed);
    EXPECT_FALSE(v.abandoned);
    EXPECT_EQ(v.transmissions, 2U);
    EXPECT_EQ(v.retransmits, 1U);
    EXPECT_EQ(v.drops, 1U);
    ASSERT_EQ(v.frame_traces.size(), 3U);  // two attempts + the reply
    EXPECT_TRUE(std::is_sorted(v.chain.begin(), v.chain.end(),
                               [](const auto& x, const auto& y) {
                                   return x.ts < y.ts;
                               }));
    EXPECT_EQ(v.chain.size(), 9U) << "unrelated events leaked into the chain";
    EXPECT_FALSE(v.report.empty());
    EXPECT_NE(v.report.find("COMPLETED"), std::string::npos);
}

TEST(Forensics, UnknownRequestIsNotFound) {
    TraceGuard guard;
    const trace::Verdict v = trace::investigate({}, 1, 1);
    EXPECT_FALSE(v.found);
    EXPECT_FALSE(v.completed);
}

// --------------------------------------- end-to-end on a lossy fabric

kv::KvWorkload lossy_workload() {
    kv::KvWorkload w;
    w.num_keys = 32;
    w.zipf_s = 0.9;
    w.requests_per_client = 80;
    w.get_fraction = 0.8;
    w.partition_keys = true;
    w.request_interval = 50 * sim::kMicrosecond;
    return w;
}

TEST(TraceEndToEnd, LossyKvRunYieldsCausallyOrderedForensics) {
    TraceGuard guard;
    trace::tracer().enable_full();

    rt::ClusterOptions opts;
    opts.num_hosts = 4;
    opts.config.register_size = 512;
    opts.link.loss_probability = 0.03;
    opts.seed = 21;
    rt::ClusterRuntime rt{opts};
    kv::KvServiceOptions svc_opts;
    svc_opts.cache_enabled = true;
    svc_opts.config.cache_slots = 16;
    kv::KvService svc{rt, svc_opts};
    const kv::KvRunStats stats = svc.run(lossy_workload());
    ASSERT_GT(stats.retransmits, 0U) << "loss too low to exercise tracing";

    const auto events = trace::tracer().snapshot();
    ASSERT_FALSE(events.empty());

    // Every retransmitted request must be fully reconstructable; find
    // one whose first attempt demonstrably died on a link and check the
    // verdict tells that story in causal order.
    bool found_drop_chain = false;
    for (const auto& ev : events) {
        if (ev.kind != trace::EventKind::kRetransmit) continue;
        const auto client = static_cast<std::uint32_t>(ev.a >> 32);
        const auto seq = static_cast<std::uint32_t>(ev.a);
        const trace::Verdict v = trace::investigate(events, client, seq);
        ASSERT_TRUE(v.found);
        EXPECT_GE(v.transmissions, 2U);
        EXPECT_TRUE(std::is_sorted(v.chain.begin(), v.chain.end(),
                                   [](const auto& x, const auto& y) {
                                       return x.ts < y.ts;
                                   }));
        ASSERT_FALSE(v.chain.empty());
        EXPECT_EQ(v.chain.front().kind, trace::EventKind::kRequestSend)
            << "the chain must begin with the request leaving the app";
        if (v.completed && v.drops > 0) found_drop_chain = true;
    }
    EXPECT_TRUE(found_drop_chain)
        << "no completed request with a drop + retransmit found";

    // The exporter renders the whole run as loadable Chrome-trace JSON.
    const std::string json = trace::chrome_trace_json(events);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("req.retransmit"), std::string::npos);
}

// ------------------------------------------------------------- metrics

TEST(Metrics, RegistryFindsOrCreatesAndDumpsJson) {
    auto& reg = trace::metrics();
    reg.clear();
    EXPECT_TRUE(reg.empty());

    auto c = reg.counter("test.requests", "kv", "host0");
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5U);
    // Same triple -> same storage; different node -> different storage.
    EXPECT_EQ(reg.counter("test.requests", "kv", "host0").value(), 5U);
    reg.counter("test.requests", "kv", "host1").inc();
    EXPECT_EQ(reg.size(), 2U);

    reg.gauge("test.load", "kv").set(0.75);
    LogHistogram h;
    for (int i = 1; i <= 100; ++i) h.add(i);
    reg.histogram("test.latency", "kv").assign(h);

    const std::string json = reg.to_json();
    EXPECT_NE(json.find("\"test.requests\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    reg.clear();
    EXPECT_TRUE(reg.empty());
}

}  // namespace
}  // namespace daiet
