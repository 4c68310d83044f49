// Pipeline driver: runs a dataplane program over a packet, handling the
// recirculation loop and per-pass operation budgets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/context.hpp"
#include "dataplane/packet.hpp"

namespace daiet::dp {

/// Architectural parameters of the simulated switch pipeline.
struct PipelineConfig {
    /// Primitive operations allowed per pipeline pass (0 = unlimited).
    /// Models the fixed time budget per stage in an RMT pipeline;
    /// the default is sized like a 32-stage pipeline with ~16 primitive
    /// actions per stage.
    std::uint32_t ops_per_pass{512};
    /// How many times a single packet may recirculate before the
    /// pipeline declares the program divergent. DAIET END-flushes drain
    /// one packet's worth of registers per pass, so this bounds
    /// register_size / max_pairs_per_packet.
    std::uint16_t max_recirculations{65535};
};

/// A dataplane program: the P4-equivalent logic bound to a pipeline.
/// Implementations read/modify the packet through the context and may
/// emit new packets or request recirculation.
class PipelineProgram {
public:
    virtual ~PipelineProgram() = default;

    /// Process one pass of one packet.
    virtual void on_packet(PacketContext& ctx) = 0;

    /// Human-readable program name for diagnostics.
    virtual std::string name() const = 0;
};

/// Cumulative pipeline statistics.
struct PipelineStats {
    std::uint64_t packets_in{0};
    std::uint64_t packets_out{0};
    std::uint64_t packets_dropped{0};
    std::uint64_t recirculations{0};
    OpCounters ops{};
};

class Pipeline {
public:
    Pipeline(PipelineConfig config, std::shared_ptr<PipelineProgram> program);

    /// Run `packet` through the program, following recirculation
    /// requests, and return every packet leaving the switch (the
    /// original unless dropped, plus any emitted ones).
    std::vector<Packet> process(Packet packet);

    /// Allocation-free variant: append the leaving packets to `out`
    /// (not cleared), letting callers reuse one scratch vector across
    /// packets instead of allocating a result per hop.
    void process_into(Packet packet, std::vector<Packet>& out);

    const PipelineStats& stats() const noexcept { return stats_; }
    const PipelineConfig& config() const noexcept { return config_; }
    PipelineProgram& program() noexcept { return *program_; }

private:
    PipelineConfig config_;
    std::shared_ptr<PipelineProgram> program_;
    PipelineStats stats_{};
    /// Lazily interned trace label for the program (its name() builds a
    /// string per call); 0 = not yet interned.
    std::uint32_t trace_prog_id_{0};
    /// Reusable per-pipeline context, rebound to each packet.
    std::unique_ptr<PacketContext> scratch_ctx_;
};

}  // namespace daiet::dp
