// Switch-program multi-tenancy: several dataplane programs sharing one
// programmable chip.
//
// The paper's closing argument is that a programmable switch should run
// *application logic in general*, not one hard-wired function; on real
// hardware distinct P4 control blocks are compiled into a single
// pipeline and share the chip's SRAM and its forwarding tables. We
// model that split explicitly:
//
//   * FabricRouter — the one destination-routing table per chip (the
//     "port map"). Plain traffic, DAIET flushes and kv-cache replies
//     all resolve egress ports here, and its SRAM footprint is charged
//     once, not per tenant.
//   * TenantProgram — a dataplane program that claims a slice of the
//     traffic (by UDP port / magic) and handles only that slice. A
//     tenant is still a complete dp::PipelineProgram, so a chip with a
//     single tenant loads it directly, exactly as before.
//   * SwitchProgramMux — the compiled pipeline of a multi-tenant chip:
//     parses once, asks each tenant in registration order to claim the
//     packet, and falls back to plain ECMP forwarding. This is what
//     lets DAIET aggregation and the NetCache-style kv cache coexist
//     on one fabric, arbitrated by a shared SramBook.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/match_table.hpp"
#include "dataplane/pipeline.hpp"
#include "netsim/headers.hpp"
#include "netsim/switch_node.hpp"

namespace daiet {

/// ECMP next-hop set, sized for trivially-copyable table storage.
struct RoutePorts {
    std::array<dp::PortId, 8> ports{};
    std::uint8_t count{0};
};

/// Parser-stage claim pre-filter: a bitmap over the UDP ports any
/// resident tenant might claim traffic on (source or destination). The
/// mux consults it before running the per-tenant claim loop, so frames
/// that no tenant could possibly own — the bulk of plain fabric traffic
/// — skip every tenant's claims() check. This is the classification a
/// P4 compiler folds into parser states; it narrows nothing, because a
/// hit still runs the full claim loop.
struct ClaimPortFilter {
    std::array<std::uint64_t, 1024> bits{};

    void add(std::uint16_t port) noexcept {
        bits[port >> 6] |= std::uint64_t{1} << (port & 63);
    }
    bool hit(std::uint16_t port) const noexcept {
        return ((bits[port >> 6] >> (port & 63)) & 1) != 0;
    }
};

/// The chip's destination-routing table plus the ECMP selection logic
/// every resident program shares. One instance per programmable switch;
/// its SRAM footprint is reserved once from the chip's book.
class FabricRouter {
public:
    explicit FabricRouter(dp::SramBook& book, std::size_t capacity = 4096);

    // --- control plane ------------------------------------------------------
    void install(sim::HostAddr dst, std::vector<dp::PortId> ports);

    // --- data plane ---------------------------------------------------------
    /// Route the current packet: ECMP over the 5-tuple via the switch
    /// hash unit, never bouncing out of the ingress port when an
    /// alternative exists. Sets the egress port or marks a drop.
    void forward(dp::PacketContext& ctx, const sim::ParsedFrame& frame) const;

    /// Table lookup for program-emitted packets (charged as one table
    /// application; at most once per pass like any table).
    const RoutePorts* apply(dp::PacketContext& ctx, sim::HostAddr dst) const {
        if (dst < kDenseLimit) {
            // Dense mirror of the table for low host addresses: same op
            // accounting and single-apply rule, array index instead of a
            // hash lookup on the per-hop path.
            ctx.note_table_application(table_.name());
            if (dst < dense_.size() && dense_[dst].count != 0) {
                return &dense_[dst];
            }
            return nullptr;
        }
        return table_.apply(ctx, dst);
    }

    /// Control-plane lookup (not op-charged).
    const RoutePorts* peek(sim::HostAddr dst) const { return table_.peek(dst); }

    std::size_t size() const noexcept { return table_.size(); }
    /// SRAM charged for the shared routing table (reserved once per
    /// chip, not per tenant).
    std::size_t sram_bytes() const noexcept { return table_.footprint_bytes(); }

private:
    /// Host addresses below this are mirrored into dense_ at install
    /// time (fabric hosts are numbered densely from zero, so in practice
    /// every destination qualifies).
    static constexpr sim::HostAddr kDenseLimit = 1u << 16;

    dp::ExactMatchTable<sim::HostAddr, RoutePorts> table_;
    std::vector<RoutePorts> dense_;
};

/// A co-resident dataplane program: claims its slice of the traffic and
/// processes it against its own registers/tables, resolving ports
/// through the shared FabricRouter. Also a complete PipelineProgram, so
/// a single-tenant chip loads it directly (no mux indirection).
class TenantProgram : public dp::PipelineProgram, public sim::RouteSink {
public:
    explicit TenantProgram(std::shared_ptr<FabricRouter> router);

    /// True when this tenant owns the (UDP) packet — typically a port
    /// plus protocol-magic check, the parser-level classification a P4
    /// compiler turns into parser states.
    virtual bool claims(const sim::ParsedFrame& frame,
                        std::span<const std::byte> payload) const = 0;

    /// Handle a claimed packet. Return false to decline after all (no
    /// matching rule on this switch): the packet then falls through to
    /// plain forwarding, keeping partial deployments correct.
    virtual bool on_claimed(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                            std::span<const std::byte> payload) = 0;

    /// Passive tap run on *every* parsed ingress frame before claim
    /// dispatch — including frames another tenant will consume. This is
    /// how a compiled multi-tenant pipeline really behaves: stat-keeping
    /// control blocks (telemetry) execute on each packet regardless of
    /// which application block terminates it. Ops performed here are
    /// charged to the packet's pass budget. Default: no-op. A tenant
    /// overriding this MUST also override passive_observer() to return
    /// true, or the mux will skip its tap.
    virtual void observe(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                         std::span<const std::byte> payload) {
        (void)ctx;
        (void)frame;
        (void)payload;
    }

    /// True when observe() is non-trivial for this tenant. The mux only
    /// runs the taps of tenants that return true (the compiled pipeline
    /// contains no stage at all for a tenant without one).
    virtual bool passive_observer() const noexcept { return false; }

    /// The UDP ports that can appear — as source or destination — on a
    /// frame this tenant might claim; advertised once at registration
    /// and folded into the mux's ClaimPortFilter. Empty (the default)
    /// means unconstrained: the mux must offer this tenant every UDP
    /// frame, which disables the chip-wide pre-filter.
    virtual std::vector<std::uint16_t> claim_ports() const { return {}; }

    /// SRAM this tenant's private register/table state charges to the
    /// chip's book (the shared FabricRouter is charged once, not here).
    /// The arbiter-pressure observability behind
    /// SwitchProgramMux::sram_report().
    virtual std::size_t sram_bytes() const = 0;

    // --- single-tenant (standalone) operation -------------------------------
    void on_packet(dp::PacketContext& ctx) final;
    void install_route(sim::HostAddr dst, std::vector<dp::PortId> ports) final {
        router_->install(dst, std::move(ports));
    }

    FabricRouter& router() noexcept { return *router_; }
    const FabricRouter& router() const noexcept { return *router_; }
    std::shared_ptr<FabricRouter> shared_router() const noexcept { return router_; }

private:
    std::shared_ptr<FabricRouter> router_;
};

/// The pipeline of a multi-tenant chip: parse once, dispatch to the
/// first tenant that claims the packet, fall back to plain forwarding.
class SwitchProgramMux : public dp::PipelineProgram, public sim::RouteSink {
public:
    explicit SwitchProgramMux(std::shared_ptr<FabricRouter> router);

    /// Register a tenant. Tenants are offered packets in registration
    /// order; they must have been built against this mux's router.
    void add_tenant(std::shared_ptr<TenantProgram> tenant);

    TenantProgram* tenant(std::string_view name) const;
    std::size_t num_tenants() const noexcept { return tenants_.size(); }

    /// Per-tenant SRAM ledger: one (name, bytes) entry per resident
    /// tenant in registration order, plus a trailing "shared:router"
    /// entry for the chip-wide routing table. Summing the bytes yields
    /// exactly what the tenants charged to the chip's SramBook — the
    /// arbiter pressure made visible.
    std::vector<std::pair<std::string, std::size_t>> sram_report() const;

    void on_packet(dp::PacketContext& ctx) override;
    std::string name() const override;
    void install_route(sim::HostAddr dst, std::vector<dp::PortId> ports) override {
        router_->install(dst, std::move(ports));
    }

    FabricRouter& router() noexcept { return *router_; }

private:
    std::shared_ptr<FabricRouter> router_;
    std::vector<std::shared_ptr<TenantProgram>> tenants_;
    /// Borrowed views of tenants_, in registration order — the per-hop
    /// dispatch loop iterates these instead of chasing shared_ptrs.
    std::vector<TenantProgram*> tenants_raw_;
    /// Tenants whose observe() tap is non-trivial (registration order).
    std::vector<TenantProgram*> observers_raw_;
    /// Union of every tenant's claim_ports(); valid only while all
    /// resident tenants advertise a port set.
    ClaimPortFilter claim_filter_;
    bool claim_filter_valid_{true};
};

/// Shared parser front end: Ethernet -> IPv4 -> UDP/TCP with the same
/// per-header op charges a P4 parser would incur. Returns nullopt (and
/// marks a drop) for frames the fabric cannot carry.
std::optional<sim::ParsedFrame> parse_frame_with_ops(dp::PacketContext& ctx);

}  // namespace daiet
