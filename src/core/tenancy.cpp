#include "core/tenancy.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "trace/trace.hpp"

namespace daiet {

// --------------------------------------------------------- FabricRouter

FabricRouter::FabricRouter(dp::SramBook& book, std::size_t capacity)
    : table_{"l2_route", capacity, book} {}

void FabricRouter::install(sim::HostAddr dst, std::vector<dp::PortId> ports) {
    DAIET_EXPECTS(!ports.empty());
    RoutePorts rp;
    rp.count = static_cast<std::uint8_t>(
        std::min<std::size_t>(ports.size(), rp.ports.size()));
    for (std::size_t i = 0; i < rp.count; ++i) rp.ports[i] = ports[i];
    table_.install(dst, rp);
    if (dst < kDenseLimit) {
        if (dense_.size() <= dst) dense_.resize(dst + 1);
        dense_[dst] = rp;
    }
}

void FabricRouter::forward(dp::PacketContext& ctx,
                           const sim::ParsedFrame& frame) const {
    const RoutePorts* route = apply(ctx, frame.ip.dst);
    if (route == nullptr || route->count == 0) {
        ctx.mark_drop();
        return;
    }
    std::size_t choice = 0;
    if (route->count > 1) {
        // ECMP flow hash over the 5-tuple via the switch hash unit. The
        // serialized tuple layout is fixed, so it goes through a stack
        // buffer (this runs once per frame per hop).
        std::byte tuple[13];
        ByteWriter w{std::span<std::byte>{tuple}};
        w.put_u32(frame.ip.src);
        w.put_u32(frame.ip.dst);
        w.put_u8(frame.ip.protocol);
        if (frame.udp) {
            w.put_u16(frame.udp->src_port);
            w.put_u16(frame.udp->dst_port);
        } else if (frame.tcp) {
            w.put_u16(frame.tcp->src_port);
            w.put_u16(frame.tcp->dst_port);
        }
        // ECMP sets in a fat tree are nearly always a power of two, so
        // the hot modulo strength-reduces to a mask (identical value) and
        // the bounce-back wrap needs no division.
        const std::uint32_t h = ctx.hash(w.bytes());
        const std::uint32_t n = route->count;
        choice = (n & (n - 1)) == 0 ? (h & (n - 1)) : (h % n);
        if (route->ports[choice] == ctx.packet().meta().ingress_port) {
            ++choice;
            if (choice == n) choice = 0;
        }
    }
    ctx.set_egress(route->ports[choice]);
}

// ------------------------------------------------------- shared parser

std::optional<sim::ParsedFrame> parse_frame_with_ops(dp::PacketContext& ctx) {
    ctx.count_op(dp::OpKind::kParse);  // Ethernet
    // The context caches the parse across tenants and recirculation
    // passes of one packet, so only the first entry pays the byte
    // extraction. The kParse op charges land on every pass — the RMT
    // machine still runs its parse stages; the cache removes
    // host-simulation work, not modeled switch work.
    if (const sim::ParsedFrame* cached = ctx.cached_parsed_frame()) {
        ctx.count_op(dp::OpKind::kParse);  // IPv4
        if (cached->udp) {
            ctx.count_op(dp::OpKind::kParse);  // UDP
        }
        return *cached;
    }
    auto frame = sim::parse_frame(ctx.packet().payload());
    if (!frame) {
        ctx.mark_drop();
        return std::nullopt;
    }
    ctx.count_op(dp::OpKind::kParse);  // IPv4
    if (frame->udp) {
        ctx.count_op(dp::OpKind::kParse);  // UDP
    }
    ctx.cache_parsed_frame(*frame);
    return frame;
}

namespace {

/// The one dispatch loop both the mux and standalone tenants run. It
/// iterates borrowed raw pointers (this runs per frame per hop, and the
/// callers own the tenants for the duration of the call); `observers`
/// holds only the tenants with a real observe() tap.
void dispatch(dp::PacketContext& ctx, const FabricRouter& router,
              std::span<TenantProgram* const> observers,
              std::span<TenantProgram* const> tenants,
              const ClaimPortFilter* claim_filter) {
    const auto frame = parse_frame_with_ops(ctx);
    if (!frame) return;
    const auto payload = frame->payload_of(ctx.packet().payload());
    // Stat-keeping stages run first, on every ingress frame (not on
    // recirculated passes — those re-enter mid-pipeline, after the
    // ingress counters, and must not double-count).
    if (ctx.packet().meta().recirc_count == 0) {
        for (TenantProgram* tenant : observers) {
            tenant->observe(ctx, *frame, payload);
        }
    }
    if (frame->udp &&
        (claim_filter == nullptr || claim_filter->hit(frame->udp->dst_port) ||
         claim_filter->hit(frame->udp->src_port))) {
        for (TenantProgram* tenant : tenants) {
            if (!tenant->claims(*frame, payload)) continue;
            if (trace::enabled()) {
                auto& t = trace::tracer();
                // The claiming tenant doubles as the location: the mux
                // has no node handle here, and "kvcache@7" names the
                // chip more usefully than the mux wrapper would.
                const std::uint32_t name_id = t.intern(tenant->name());
                t.record({t.now(), ctx.packet().frame().trace_id(), name_id,
                          0, name_id, trace::EventKind::kTenantClaim});
            }
            if (tenant->on_claimed(ctx, *frame, payload)) return;
            break;  // claimed but declined: fall through to plain forwarding
        }
    }
    router.forward(ctx, *frame);
}

}  // namespace

// ------------------------------------------------------- TenantProgram

TenantProgram::TenantProgram(std::shared_ptr<FabricRouter> router)
    : router_{std::move(router)} {
    DAIET_EXPECTS(router_ != nullptr);
}

void TenantProgram::on_packet(dp::PacketContext& ctx) {
    // Standalone mode: this tenant is the chip's entire pipeline — it
    // sees every frame, so no claim filter, and its own tap always runs.
    TenantProgram* self = this;
    const std::span<TenantProgram* const> all{&self, 1};
    dispatch(ctx, *router_, all, all, nullptr);
}

// ---------------------------------------------------- SwitchProgramMux

SwitchProgramMux::SwitchProgramMux(std::shared_ptr<FabricRouter> router)
    : router_{std::move(router)} {
    DAIET_EXPECTS(router_ != nullptr);
}

void SwitchProgramMux::add_tenant(std::shared_ptr<TenantProgram> tenant) {
    DAIET_EXPECTS(tenant != nullptr);
    DAIET_EXPECTS(tenant->shared_router().get() == router_.get());
    // A duplicate name is a deployment conflict (e.g. two services
    // claiming the same switch), not a programming error: reject it
    // with a catchable exception.
    if (this->tenant(tenant->name()) != nullptr) {
        throw std::runtime_error{"SwitchProgramMux: a tenant named '" +
                                 tenant->name() + "' is already resident"};
    }
    const std::vector<std::uint16_t> ports = tenant->claim_ports();
    if (ports.empty()) {
        claim_filter_valid_ = false;  // unconstrained tenant: filter off
    } else {
        for (const std::uint16_t p : ports) claim_filter_.add(p);
    }
    if (tenant->passive_observer()) observers_raw_.push_back(tenant.get());
    tenants_raw_.push_back(tenant.get());
    tenants_.push_back(std::move(tenant));
}

TenantProgram* SwitchProgramMux::tenant(std::string_view name) const {
    for (const auto& t : tenants_) {
        if (t->name() == name) return t.get();
    }
    return nullptr;
}

void SwitchProgramMux::on_packet(dp::PacketContext& ctx) {
    dispatch(ctx, *router_, observers_raw_, tenants_raw_,
             claim_filter_valid_ ? &claim_filter_ : nullptr);
}

std::vector<std::pair<std::string, std::size_t>> SwitchProgramMux::sram_report()
    const {
    std::vector<std::pair<std::string, std::size_t>> report;
    report.reserve(tenants_.size() + 1);
    for (const auto& t : tenants_) {
        report.emplace_back(t->name(), t->sram_bytes());
    }
    report.emplace_back("shared:router", router_->sram_bytes());
    return report;
}

std::string SwitchProgramMux::name() const {
    std::string n = "mux[";
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (i > 0) n += ",";
        n += tenants_[i]->name();
    }
    return n + "]";
}

}  // namespace daiet
