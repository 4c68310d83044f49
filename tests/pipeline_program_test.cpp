// Tests for the DAIET dataplane program running inside the switch
// model, including cross-validation against the host-side reference
// implementation of Algorithm 1.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "core/pipeline_program.hpp"
#include "core/switch_agent.hpp"

namespace daiet {
namespace {

constexpr sim::HostAddr kMapperAddr = 10;
constexpr sim::HostAddr kReducerAddr = 20;
constexpr dp::PortId kUpPort = 3;

struct Harness {
    Config cfg;
    dp::PipelineSwitch chip;
    std::shared_ptr<DaietSwitchProgram> program;

    explicit Harness(Config c, std::uint32_t children = 1)
        : cfg{c}, chip{"sw", make_switch_config()} {
        program = load_daiet_program(cfg, chip);
        TreeRule rule;
        rule.fn = AggFnId::kSumI32;
        rule.num_children = children;
        rule.out_port = kUpPort;
        rule.flush_dst = kReducerAddr;
        program->configure_tree(1, rule);
    }

    static dp::SwitchConfig make_switch_config() {
        dp::SwitchConfig sc;
        sc.num_ports = 8;
        sc.sram_bytes = 64 << 20;
        return sc;
    }

    /// Inject a DATA packet; returns emitted packets.
    std::vector<dp::Packet> data(std::span<const KvPair> pairs, dp::PortId in = 0) {
        const auto payload = serialize_data(1, pairs);
        auto frame = sim::build_udp_frame(kMapperAddr, kReducerAddr,
                                          cfg.mapper_udp_port, cfg.udp_port, payload);
        return chip.receive(dp::Packet{std::move(frame)}, in);
    }

    std::vector<dp::Packet> end(dp::PortId in = 0) {
        const auto payload = serialize_end(1);
        auto frame = sim::build_udp_frame(kMapperAddr, kReducerAddr,
                                          cfg.mapper_udp_port, cfg.udp_port, payload);
        return chip.receive(dp::Packet{std::move(frame)}, in);
    }

    /// Decode emitted packets back into DAIET packets.
    static std::vector<DaietPacket> decode(const std::vector<dp::Packet>& packets) {
        std::vector<DaietPacket> out;
        for (const auto& p : packets) {
            const auto frame = sim::parse_frame(p.payload());
            EXPECT_TRUE(frame && frame->udp);
            out.push_back(parse_packet(frame->payload_of(p.payload())));
        }
        return out;
    }
};

Config tiny_config(std::size_t registers = 64) {
    Config cfg;
    cfg.register_size = registers;
    cfg.max_trees = 2;
    return cfg;
}

KvPair kv(const std::string& k, std::int32_t v) {
    return KvPair{Key16{k}, wire_from_i32(v)};
}

TEST(DaietProgram, DataPacketsAreAbsorbed) {
    Harness h{tiny_config()};
    const auto out = h.data(std::vector{kv("a", 1), kv("b", 2)});
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(h.program->held_pairs(1), 2U);
    EXPECT_EQ(h.program->tree_stats(1).pairs_stored, 2U);
}

TEST(DaietProgram, EndFlushesAggregateDownstream) {
    Harness h{tiny_config()};
    h.data(std::vector{kv("a", 1), kv("b", 2)});
    h.data(std::vector{kv("a", 10)});
    const auto out = h.end();
    // One DATA packet (2 pairs) + one END, both out the tree port.
    ASSERT_EQ(out.size(), 2U);
    for (const auto& p : out) EXPECT_EQ(p.meta().egress_port, kUpPort);

    const auto decoded = Harness::decode(out);
    const auto* data = std::get_if<DataPacket>(&decoded[0]);
    ASSERT_NE(data, nullptr);
    std::map<std::string, std::int32_t> got;
    for (const auto& p : data->pairs) got[p.key.to_string()] = i32_from_wire(p.value);
    EXPECT_EQ(got, (std::map<std::string, std::int32_t>{{"a", 11}, {"b", 2}}));
    EXPECT_TRUE(std::holds_alternative<EndPacket>(decoded[1]));
    EXPECT_EQ(h.program->held_pairs(1), 0U);
}

TEST(DaietProgram, EmittedFramesAddressTheTreeRoot) {
    Harness h{tiny_config()};
    h.data(std::vector{kv("a", 1)});
    const auto out = h.end();
    const auto frame = sim::parse_frame(out[0].payload());
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->ip.dst, kReducerAddr);
    EXPECT_EQ(frame->udp->dst_port, h.cfg.udp_port);
}

TEST(DaietProgram, ChildrenCountdownAcrossEnds) {
    Harness h{tiny_config(), 3};
    h.data(std::vector{kv("a", 1)});
    EXPECT_TRUE(h.end().empty());
    EXPECT_TRUE(h.end().empty());
    const auto out = h.end();
    ASSERT_EQ(out.size(), 2U);  // flush + END
}

TEST(DaietProgram, SpuriousEndIsDropped) {
    Harness h{tiny_config()};
    h.data(std::vector{kv("a", 1)});
    EXPECT_EQ(h.end().size(), 2U);
    EXPECT_TRUE(h.end().empty());  // extra END after completion
}

TEST(DaietProgram, LargeFlushRecirculates) {
    Config cfg = tiny_config(512);
    Harness h{cfg};
    std::vector<KvPair> pairs;
    for (int i = 0; i < 95; ++i) pairs.push_back(kv("key" + std::to_string(i), i));
    for (std::size_t off = 0; off < pairs.size(); off += 10) {
        const auto n = std::min<std::size_t>(10, pairs.size() - off);
        h.data(std::span{pairs}.subspan(off, n));
    }
    const auto out = h.end();
    // 95 pairs -> 10 DATA packets of <=10 pairs + 1 END.
    ASSERT_EQ(out.size(), 11U);
    EXPECT_GE(h.chip.stats().recirculations, 9U);

    std::size_t total = 0;
    const auto decoded = Harness::decode(out);
    for (const auto& packet : decoded) {
        if (const auto* data = std::get_if<DataPacket>(&packet)) {
            EXPECT_LE(data->pairs.size(), 10U);
            total += data->pairs.size();
        }
    }
    EXPECT_EQ(total, 95U);
}

// The pipeline parses each packet's headers once per pipeline entry and
// reuses the result across tenants and recirculation passes; the kParse
// op charges still land on every pass — the cache removes
// host-simulation work, never modeled RMT work. A recirculating flush is
// the heaviest multi-pass consumer, so it pins the charge accounting.
// The golden per-kind op counts, recirculations and output digest were
// captured from the parse-every-pass model. These are pinned constants:
// update them deliberately and record it in CHANGES.md.
TEST(DaietProgram, ParsedHeaderReuseChargesIdenticalOpsAcrossPasses) {
    Harness h{tiny_config(512)};
    std::vector<KvPair> pairs;
    for (int i = 0; i < 95; ++i) pairs.push_back(kv("key" + std::to_string(i), i));
    for (std::size_t off = 0; off < pairs.size(); off += 10) {
        const auto n = std::min<std::size_t>(10, pairs.size() - off);
        h.data(std::span{pairs}.subspan(off, n));
    }
    const auto out = h.end();
    // FNV-1a over each output payload's 8-byte length and bytes.
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto fold = [&digest](std::uint64_t byte) {
        digest = (digest ^ byte) * 0x100000001b3ULL;
    };
    for (const auto& p : out) {
        for (std::size_t i = 0; i < 8; ++i) fold((p.payload().size() >> (8 * i)) & 0xff);
        for (const std::byte b : p.payload()) fold(std::to_integer<std::uint64_t>(b));
    }
    const dp::OpCounters& ops = h.chip.stats().ops;
    const std::uint64_t recircs = h.chip.stats().recirculations;
    EXPECT_GT(recircs, 0U);
    EXPECT_EQ(recircs, 9U);
    EXPECT_EQ(out.size(), 11U);
    EXPECT_EQ(digest, 0xfaa868fd198c5d68ULL);
    const std::uint64_t golden_ops[] = {175, 95, 532, 567, 336, 20};
    static_assert(std::size(golden_ops) ==
                  static_cast<std::size_t>(dp::OpKind::kCount_));
    for (std::size_t k = 0; k < std::size(golden_ops); ++k) {
        EXPECT_EQ(ops.by_kind[k], golden_ops[k]) << "op kind " << k;
    }
    EXPECT_GT(ops.of(dp::OpKind::kParse), 0U);
}

TEST(DaietProgram, OperationBudgetRespectedAtFullPacketSize) {
    // A full 10-pair packet against the default per-pass budget: the
    // program must fit the RMT constraint it claims to honour.
    Config cfg = tiny_config(16384);
    Harness h{cfg};
    std::vector<KvPair> pairs;
    for (int i = 0; i < 10; ++i) pairs.push_back(kv("key" + std::to_string(i), i));
    EXPECT_NO_THROW(h.data(pairs));
    EXPECT_NO_THROW(h.end());
}

TEST(DaietProgram, NonDaietTrafficForwardsViaRoutes) {
    Harness h{tiny_config()};
    h.program->install_route(kReducerAddr, {5});
    auto frame = sim::build_udp_frame(kMapperAddr, kReducerAddr, 1, 9999,
                                      as_bytes("not daiet"));
    const auto out = h.chip.receive(dp::Packet{std::move(frame)}, 0);
    ASSERT_EQ(out.size(), 1U);
    EXPECT_EQ(out[0].meta().egress_port, 5);
}

TEST(DaietProgram, UnroutableTrafficDropped) {
    Harness h{tiny_config()};
    auto frame = sim::build_udp_frame(kMapperAddr, 99, 1, 9999, as_bytes("x"));
    EXPECT_TRUE(h.chip.receive(dp::Packet{std::move(frame)}, 0).empty());
}

TEST(DaietProgram, UnconfiguredTreeFallsBackToForwarding) {
    // Partial deployment: a DAIET packet for an unknown tree must be
    // forwarded like plain traffic, not dropped (§2 "no worse than
    // without in-network computation").
    Harness h{tiny_config()};
    h.program->install_route(kReducerAddr, {6});
    const auto payload = serialize_data(42, std::vector{kv("a", 1)});
    auto frame = sim::build_udp_frame(kMapperAddr, kReducerAddr,
                                      h.cfg.mapper_udp_port, h.cfg.udp_port, payload);
    const auto out = h.chip.receive(dp::Packet{std::move(frame)}, 0);
    ASSERT_EQ(out.size(), 1U);
    EXPECT_EQ(out[0].meta().egress_port, 6);
}

TEST(DaietProgram, SramAccountingMatchesPaperEstimate) {
    // §5: 16K pairs x (16 B key + 4 B value) x 12 trees ~ a few MB of
    // register state; the paper calls ~10 MB "reasonable". Check our
    // accounting lands in that range (we also keep the index stack).
    Config cfg;
    cfg.register_size = 16 * 1024;
    cfg.max_trees = 12;
    dp::SwitchConfig sc;
    sc.sram_bytes = 20ull << 20;
    dp::PipelineSwitch chip{"sw", sc};
    auto program = load_daiet_program(cfg, chip);
    const double mb = static_cast<double>(chip.sram().used_bytes()) / (1 << 20);
    EXPECT_GT(mb, 3.0);
    EXPECT_LT(mb, 10.0);
}

TEST(DaietProgram, DoesNotFitTinySwitch) {
    Config cfg;
    cfg.register_size = 16 * 1024;
    cfg.max_trees = 12;
    dp::SwitchConfig sc;
    sc.sram_bytes = 1 << 20;  // 1 MiB: too small
    dp::PipelineSwitch chip{"sw", sc};
    EXPECT_THROW(load_daiet_program(cfg, chip), dp::ResourceError);
}

TEST(DaietProgram, RouteEcmpStableForFlow) {
    Harness h{tiny_config()};
    h.program->install_route(kReducerAddr, {1, 2, 4});
    dp::PortId first = dp::kPortInvalid;
    for (int i = 0; i < 10; ++i) {
        auto frame =
            sim::build_udp_frame(kMapperAddr, kReducerAddr, 7, 9999, as_bytes("x"));
        const auto out = h.chip.receive(dp::Packet{std::move(frame)}, 0);
        ASSERT_EQ(out.size(), 1U);
        if (first == dp::kPortInvalid) {
            first = out[0].meta().egress_port;
        } else {
            EXPECT_EQ(out[0].meta().egress_port, first) << "same flow must pin";
        }
    }
}

// ------------------------------------------------- cross-validation

struct CrossParams {
    std::size_t register_size;
    std::size_t vocab;
    std::size_t packets;
    std::uint64_t seed;
};

class CrossValidation : public ::testing::TestWithParam<CrossParams> {};

/// The dataplane program and the host-side agent are two
/// implementations of the same algorithm: fed the same packet stream,
/// they must hold the same state and flush the same multiset.
TEST_P(CrossValidation, PipelineMatchesReferenceAgent) {
    const auto param = GetParam();
    Config cfg;
    cfg.register_size = param.register_size;
    cfg.max_trees = 1;

    Harness pipeline{cfg};
    SwitchAgent agent{cfg};
    agent.configure_tree(1, AggFnId::kSumI32, 1);

    Rng rng{param.seed};
    std::map<std::string, std::int64_t> pipeline_out;
    std::map<std::string, std::int64_t> agent_out;

    const auto account = [](std::map<std::string, std::int64_t>& sink,
                            const DataPacket& data) {
        for (const auto& p : data.pairs) {
            sink[p.key.to_string()] += i32_from_wire(p.value);
        }
    };

    for (std::size_t n = 0; n < param.packets; ++n) {
        std::vector<KvPair> pairs;
        const auto count = 1 + rng.next_below(10);
        for (std::uint64_t i = 0; i < count; ++i) {
            pairs.push_back(kv("w" + std::to_string(rng.next_below(param.vocab)),
                               static_cast<std::int32_t>(rng.next_int(1, 9))));
        }
        for (const auto& out : pipeline.data(pairs)) {
            const auto frame = sim::parse_frame(out.payload());
            const auto packet = parse_packet(frame->payload_of(out.payload()));
            account(pipeline_out, std::get<DataPacket>(packet));
        }
        for (const auto& flushed : agent.on_data(1, pairs)) {
            account(agent_out, DataPacket{1, flushed});
        }
        EXPECT_EQ(pipeline.program->held_pairs(1), agent.held_pairs(1));
    }

    for (const auto& out : pipeline.end()) {
        const auto frame = sim::parse_frame(out.payload());
        const auto packet = parse_packet(frame->payload_of(out.payload()));
        if (const auto* data = std::get_if<DataPacket>(&packet)) {
            account(pipeline_out, *data);
        }
    }
    const auto end = agent.on_end(1);
    EXPECT_TRUE(end.completed);
    for (const auto& flushed : end.packets) {
        account(agent_out, DataPacket{1, flushed});
    }

    EXPECT_EQ(pipeline_out, agent_out);

    const auto& ps = pipeline.program->tree_stats(1);
    const auto& as = agent.stats(1);
    EXPECT_EQ(ps.pairs_in, as.pairs_in);
    EXPECT_EQ(ps.pairs_stored, as.pairs_stored);
    EXPECT_EQ(ps.pairs_combined, as.pairs_combined);
    EXPECT_EQ(ps.pairs_spilled, as.pairs_spilled);
    EXPECT_EQ(ps.pairs_out, as.pairs_out);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, CrossValidation,
    ::testing::Values(CrossParams{1, 10, 50, 1},     // total collision pressure
                      CrossParams{8, 30, 100, 2},    // heavy collisions
                      CrossParams{128, 60, 200, 3},  // moderate
                      CrossParams{1024, 100, 300, 4},
                      CrossParams{4096, 2000, 400, 5}));

}  // namespace
}  // namespace daiet
