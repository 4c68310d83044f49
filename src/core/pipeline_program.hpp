// DAIET's dataplane program: Algorithm 1 expressed against the
// RMT-style switch model (registers, match-action tables, bounded ops,
// recirculation). This is the code the paper wrote in P4; here it runs
// inside dp::PipelineSwitch instances placed in the network simulator.
//
// Pipeline layout (mirroring the P4 prototype's structure):
//   parser:    Ethernet -> IPv4 -> UDP -> DAIET preamble -> <=N pairs
//              (N = max_pairs_per_packet; the parse budget of real P4
//              hardware is what caps N at ~10, §5)
//   tables:    "daiet_tree"  TreeId -> {slot, fn, out_port, children, dst}
//              "l2_route"    HostAddr -> ECMP ports (the shared FabricRouter;
//              non-DAIET traffic and partial deployments fall through to it)
//   registers: per tree slot: keys[R], values[R], index_stack[R],
//              stack_depth[1], spill[S], spill_count[1], children[1]
//   flush:     END-triggered drain emits one packet per pipeline pass,
//              recirculating until the registers are empty (no loops in
//              the data plane, §2).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/switch_agent.hpp"
#include "core/tenancy.hpp"
#include "dataplane/match_table.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "dataplane/register_array.hpp"
#include "netsim/headers.hpp"
#include "netsim/switch_node.hpp"

namespace daiet {

/// Per-tree flow rule pushed by the controller (paper §4: tree id,
/// output port, aggregation function, number of children).
struct TreeRule {
    std::uint16_t slot{0};  ///< register-slot index on this switch
    AggFnId fn{AggFnId::kSumI32};
    dp::PortId out_port{dp::kPortInvalid};
    std::uint32_t num_children{0};
    sim::HostAddr flush_dst{0};  ///< address emitted flush frames carry (tree root)
};

class DaietSwitchProgram : public TenantProgram {
public:
    /// Allocates all per-tree register state up front from the chip's
    /// SRAM book, as a P4 compile would. Throws dp::ResourceError if the
    /// configuration does not fit the chip. This standalone form owns a
    /// private FabricRouter (single-tenant chip).
    DaietSwitchProgram(Config config, dp::PipelineSwitch& chip);

    /// Co-resident form: resolve ports through the chip's shared router
    /// (the SwitchProgramMux arrangement built by ClusterRuntime).
    DaietSwitchProgram(Config config, dp::PipelineSwitch& chip,
                       std::shared_ptr<FabricRouter> router);

    // --- control plane ------------------------------------------------------
    void configure_tree(TreeId tree, const TreeRule& rule);
    /// Re-arm a completed tree for another round (iterative workloads).
    void reset_tree(TreeId tree, std::uint32_t num_children);
    /// Wipe a tree's registers unconditionally and re-arm it (recovery
    /// path: discards any partial aggregation state, e.g. after loss).
    void clear_tree(TreeId tree, std::uint32_t num_children);

    // --- data plane ---------------------------------------------------------
    bool claims(const sim::ParsedFrame& frame,
                std::span<const std::byte> payload) const override;
    bool on_claimed(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                    std::span<const std::byte> payload) override;
    std::vector<std::uint16_t> claim_ports() const override;
    std::string name() const override { return "daiet"; }
    /// Fixed at construction (every slot's registers are allocated up
    /// front), so a sampler probe reads one field instead of walking
    /// every slot's register arrays of cold memory per scrape.
    std::size_t sram_bytes() const override { return sram_bytes_; }

    // --- observability ------------------------------------------------------
    const AgentTreeStats& tree_stats(TreeId tree) const;
    std::size_t held_pairs(TreeId tree) const;
    const Config& config() const noexcept { return config_; }

private:
    struct Slot {
        dp::RegisterArray<Key16> keys;
        dp::RegisterArray<WireValue> values;
        dp::RegisterArray<std::uint32_t> index_stack;
        dp::RegisterArray<std::uint32_t> stack_depth;   // [1]
        dp::RegisterArray<KvPair> spill;                ///< ring buffer (§4: "a queue of pairs")
        dp::RegisterArray<std::uint32_t> spill_head;    // [1]
        dp::RegisterArray<std::uint32_t> spill_count;   // [1]
        dp::RegisterArray<std::uint32_t> children;      // [1]
        // Loss-detection state (protocol extension; see protocol.hpp).
        dp::RegisterArray<std::uint32_t> pairs_in;      // [1]
        dp::RegisterArray<std::uint32_t> pairs_out;     // [1]
        dp::RegisterArray<std::uint32_t> declared;      // [1]
        dp::RegisterArray<std::uint32_t> dirty;         // [1]
        AgentTreeStats stats;

        Slot(const Config& cfg, std::size_t slot_idx, dp::SramBook& sram);
    };

    void handle_data(dp::PacketContext& ctx, const TreeRule& rule, Slot& slot,
                     const DataPacket& data);
    void handle_end(dp::PacketContext& ctx, TreeId tree, const TreeRule& rule,
                    Slot& slot, const EndPacket& end);

    /// Emit one DAIET DATA frame carrying `pairs` out of the tree port.
    void emit_pairs(dp::PacketContext& ctx, TreeId tree, const TreeRule& rule,
                    Slot& slot, std::span<const KvPair> pairs);
    void emit_end(dp::PacketContext& ctx, TreeId tree, const TreeRule& rule,
                  Slot& slot);

    /// Flush up to one packet's worth of spillover; returns pairs flushed.
    std::size_t flush_spillover(dp::PacketContext& ctx, TreeId tree,
                                const TreeRule& rule, Slot& slot);
    /// Drain up to one packet's worth of the index stack; returns pairs drained.
    std::size_t drain_stack_chunk(dp::PacketContext& ctx, TreeId tree,
                                  const TreeRule& rule, Slot& slot);

    Config config_;
    dp::PipelineSwitch* chip_;
    dp::ExactMatchTable<TreeId, TreeRule> tree_table_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::size_t sram_bytes_{0};
    std::uint16_t next_slot_{0};
};

/// Convenience: create a program and load it into `chip`.
std::shared_ptr<DaietSwitchProgram> load_daiet_program(Config config,
                                                       dp::PipelineSwitch& chip);

}  // namespace daiet
