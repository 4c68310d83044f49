#include "dataplane/pipeline.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "trace/trace.hpp"

namespace daiet::dp {

Pipeline::Pipeline(PipelineConfig config, std::shared_ptr<PipelineProgram> program)
    : config_{config}, program_{std::move(program)} {
    DAIET_EXPECTS(program_ != nullptr);
}

std::vector<Packet> Pipeline::process(Packet packet) {
    std::vector<Packet> out;
    process_into(std::move(packet), out);
    return out;
}

void Pipeline::process_into(Packet packet, std::vector<Packet>& out) {
    ++stats_.packets_in;
    if (!scratch_ctx_) {
        scratch_ctx_ = std::make_unique<PacketContext>(config_.ops_per_pass);
    }
    PacketContext& ctx = *scratch_ctx_;
    ctx.rebind(packet);
    for (;;) {
        ctx.begin_pass();
        if (trace::enabled()) {
            auto& t = trace::tracer();
            if (trace_prog_id_ == 0) trace_prog_id_ = t.intern(program_->name());
            t.record({t.now(), packet.frame().trace_id(), trace_prog_id_,
                      packet.meta().recirc_count, trace_prog_id_,
                      trace::EventKind::kPipelinePass});
        }
        program_->on_packet(ctx);
        for (std::size_t k = 0; k < static_cast<std::size_t>(OpKind::kCount_); ++k) {
            stats_.ops.by_kind[k] += ctx.pass_ops().by_kind[k];
        }
        if (!ctx.recirculate_requested()) break;
        ++stats_.recirculations;
        auto& meta = packet.meta();
        if (++meta.recirc_count > config_.max_recirculations) {
            throw PipelineError{"packet exceeded max_recirculations (" +
                                std::to_string(config_.max_recirculations) +
                                ") in program '" + program_->name() + "'"};
        }
    }

    std::size_t n_out = 0;
    if (packet.meta().drop) {
        ++stats_.packets_dropped;
    } else {
        out.push_back(std::move(packet));
        ++n_out;
    }
    for (auto& extra : ctx.emitted()) {
        out.push_back(std::move(extra));
        ++n_out;
    }
    stats_.packets_out += n_out;
}

}  // namespace daiet::dp
