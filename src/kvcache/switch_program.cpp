#include "kvcache/switch_program.hpp"

#include <utility>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "trace/trace.hpp"
#include "transport/request_reply.hpp"

namespace daiet::kv {

namespace {

/// Cell of a (client, seq) tag in a dedup-filter register, derived
/// through the switch hash unit like every other hashed index.
std::size_t tag_cell(dp::PacketContext& ctx, std::uint64_t tag,
                     std::size_t cells) {
    ByteWriter w;
    w.put_u64(tag);
    return register_index_from_crc(ctx.hash(w.bytes()), cells);
}

}  // namespace

KvCacheSwitchProgram::KvCacheSwitchProgram(KvConfig config, sim::HostAddr server,
                                           dp::PipelineSwitch& chip,
                                           std::shared_ptr<FabricRouter> router)
    : TenantProgram{std::move(router)},
      config_{config},
      server_{server},
      slots_{config.cache_slots},
      index_{"kv_cache", std::max<std::size_t>(config.cache_slots, 1), chip.sram()},
      values_{"kv.values", std::max<std::size_t>(config.cache_slots, 1), chip.sram()},
      valid_{"kv.valid", std::max<std::size_t>(config.cache_slots, 1), chip.sram()},
      hits_{"kv.hits", std::max<std::size_t>(config.cache_slots, 1), chip.sram()},
      pending_{"kv.pending", std::max<std::size_t>(config.cache_slots, 1),
               chip.sram()},
      write_flight_{"kv.write_flight",
                    std::max<std::size_t>(config.write_flight_cells, 1), chip.sram()},
      put_seen_{"kv.put_seen", std::max<std::size_t>(config.dedup_cells, 1),
                chip.sram()},
      ack_seen_{"kv.ack_seen", std::max<std::size_t>(config.dedup_cells, 1),
                chip.sram()},
      slot_key_(config.cache_slots) {
    DAIET_EXPECTS(config.cache_slots > 0);
    DAIET_EXPECTS(config.cache_slots <= 0xffff);
    valid_.fill(0);
    hits_.fill(0);
    pending_.fill(0);
    write_flight_.fill(0);
    put_seen_.fill(0);
    ack_seen_.fill(0);
    free_slots_.reserve(slots_);
    for (std::size_t s = slots_; s-- > 0;) {
        free_slots_.push_back(static_cast<std::uint16_t>(s));
    }
}

bool KvCacheSwitchProgram::claims(const sim::ParsedFrame& frame,
                                  std::span<const std::byte> payload) const {
    // Traffic of *this* kv service in either direction: requests
    // addressed to our server, replies coming from it. The address
    // check keeps caches of different services (one per storage rack)
    // from answering for each other's keys on a shared fabric.
    if (!frame.udp) return false;
    const bool to_server = frame.udp->dst_port == config_.server_udp_port &&
                           frame.ip.dst == server_;
    const bool from_server = frame.udp->src_port == config_.server_udp_port &&
                             frame.ip.src == server_;
    return (to_server || from_server) && looks_like_kv(payload);
}

bool KvCacheSwitchProgram::on_claimed(dp::PacketContext& ctx,
                                      const sim::ParsedFrame& frame,
                                      std::span<const std::byte> payload) {
    ctx.count_op(dp::OpKind::kParse);  // kv header
    const KvMessage msg = parse_kv(payload);
    const bool toward_server = frame.udp->dst_port == config_.server_udp_port;

    if (toward_server && msg.op == KvOp::kGet) {
        ++stats_.gets_seen;
        const std::uint16_t* slot = index_.apply(ctx, msg.key);
        ctx.count_op(dp::OpKind::kAlu);  // valid check
        if (slot != nullptr && valid_.read(ctx, *slot) != 0) {
            serve_hit(ctx, frame, msg, *slot);
            return true;
        }
        // Miss: the request travels on to the server, whose per-key
        // access log doubles as the (exact) miss counter the
        // controller promotes from.
        ++stats_.misses;
        if (trace::enabled()) {
            auto& t = trace::tracer();
            if (trace_name_id_ == 0) trace_name_id_ = t.intern(name());
            t.record({t.now(), ctx.packet().frame().trace_id(),
                      transport::request_tag(frame.ip.src, msg.seq), 0, trace_name_id_,
                      trace::EventKind::kCacheMiss});
        }
        return false;
    }

    if (toward_server && msg.op == KvOp::kPut) {
        ++stats_.puts_seen;
        // Count each *distinct* write once: a retransmitted copy (same
        // (client, seq) tag) must not inflate the in-flight counters,
        // because its ACKs will drain them only once. seq 0 never went
        // through the retry transport and always counts.
        bool distinct = true;
        if (msg.seq != 0) {
            const std::uint64_t tag =
                transport::request_tag(frame.ip.src, msg.seq);
            const std::size_t seen = tag_cell(ctx, tag, put_seen_.size());
            ctx.count_op(dp::OpKind::kAlu);
            if (put_seen_.read(ctx, seen) == tag) {
                distinct = false;
                ++stats_.duplicate_puts;
            } else {
                put_seen_.write(ctx, seen, tag);
            }
        }
        if (distinct) {
            // Track the write as in flight until its ACK returns past us.
            const std::size_t cell = register_index_from_crc(
                ctx.hash(msg.key.bytes()), write_flight_.size());
            const std::uint32_t flying = write_flight_.read(ctx, cell);
            ctx.count_op(dp::OpKind::kAlu);
            write_flight_.write(ctx, cell, flying + 1);
        }

        const std::uint16_t* slot = index_.apply(ctx, msg.key);
        if (slot != nullptr) {
            // Write-through coherence, step 1: never serve a value the
            // server has not yet acknowledged. Only distinct copies
            // count as pending, but *every* copy invalidates — always
            // safe, and it covers the tag filter's false-duplicate
            // corner (a colliding tag must not let a new write slip
            // past a still-valid slot).
            if (distinct) {
                const std::uint32_t pending = pending_.read(ctx, *slot);
                ctx.count_op(dp::OpKind::kAlu);
                pending_.write(ctx, *slot, pending + 1);
            }
            if (valid_.read(ctx, *slot) != 0) {
                valid_.write(ctx, *slot, 0);
                ++stats_.invalidations;
            }
        }
        return false;
    }

    if (!toward_server && msg.op == KvOp::kPutAck) {
        ++stats_.replies_seen;
        // Drain on the last *distinct* ACK. The dedup register keys on
        // (client, seq): the first ACK copy to pass this switch drains
        // the counters for its write — whether it is the server's
        // original or a replay sent after the original died between
        // server and switch. Copies whose identity was already drained
        // are skipped outright.
        if (msg.seq != 0) {
            const std::uint64_t tag =
                transport::request_tag(frame.ip.dst, msg.seq);
            const std::size_t seen = tag_cell(ctx, tag, ack_seen_.size());
            ctx.count_op(dp::OpKind::kAlu);
            if (ack_seen_.read(ctx, seen) == tag) {
                ++stats_.duplicate_acks;
                return false;
            }
            ack_seen_.write(ctx, seen, tag);
        }
        const std::size_t cell = register_index_from_crc(
            ctx.hash(msg.key.bytes()), write_flight_.size());
        const std::uint32_t flying = write_flight_.read(ctx, cell);
        ctx.count_op(dp::OpKind::kAlu);
        if (flying > 0) write_flight_.write(ctx, cell, flying - 1);

        const std::uint16_t* slot = index_.apply(ctx, msg.key);
        if (slot != nullptr) {
            const std::uint32_t pending = pending_.read(ctx, *slot);
            ctx.count_op(dp::OpKind::kAlu);
            if (pending > 0) pending_.write(ctx, *slot, pending - 1);
            if (!msg.replayed()) {
                // Step 2: the original ACK carries the value the server
                // serialized for this write, and originals pass this
                // switch exactly once by construction. Only the *last*
                // outstanding write's ACK re-validates — earlier acked
                // values are already superseded by a PUT that passed.
                if (pending <= 1) {
                    values_.write(ctx, *slot, msg.value);
                    valid_.write(ctx, *slot, 1);
                    ++stats_.refreshes;
                }
            } else if (valid_.read(ctx, *slot) != 0) {
                // A replay must never re-validate — its recorded value
                // may predate writes that passed since, and if a
                // colliding tag overwrote our dedup cell this copy may
                // even be double-draining a newer write's pending
                // count. Invalidate instead: always safe, and the next
                // original ACK or controller rebalance restores the
                // slot.
                valid_.write(ctx, *slot, 0);
                ++stats_.invalidations;
            }
        }
        return false;
    }

    if (!toward_server) ++stats_.replies_seen;
    // GET_REPLYs pass through untouched: promotion into the cache is
    // the controller's decision, not the dataplane's.
    return false;
}

void KvCacheSwitchProgram::serve_hit(dp::PacketContext& ctx,
                                     const sim::ParsedFrame& frame,
                                     const KvMessage& msg, std::uint16_t slot) {
    ++stats_.hits;
    const std::uint32_t h = hits_.read(ctx, slot);
    ctx.count_op(dp::OpKind::kAlu);
    hits_.write(ctx, slot, h + 1);
    if (trace::enabled()) {
        auto& t = trace::tracer();
        if (trace_name_id_ == 0) trace_name_id_ = t.intern(name());
        t.record({t.now(), ctx.packet().frame().trace_id(),
                  transport::request_tag(frame.ip.src, msg.seq), 0, trace_name_id_,
                  trace::EventKind::kCacheHit});
    }

    // Impersonate the server: the reply's source is the GET's original
    // destination, and it leaves through the port the GET arrived on —
    // the one port guaranteed to lead back toward the client, with no
    // second routing-table application (a table may only be applied
    // once per pass, and the miss path needs it for the server route).
    KvMessage reply;
    reply.op = KvOp::kGetReply;
    reply.flags = kKvFlagFound | kKvFlagFromSwitch;
    reply.req_id = msg.req_id;
    reply.seq = msg.seq;  // the client's duplicate filter matches on it
    reply.key = msg.key;
    reply.value = values_.read(ctx, slot);

    const auto payload = serialize_kv(reply);
    auto out_frame = sim::build_udp_frame(frame.ip.dst, frame.ip.src,
                                          config_.server_udp_port,
                                          frame.udp->src_port, payload);
    // The in-network reply continues the request's causal trace.
    if (trace::enabled()) out_frame.set_trace_id(ctx.packet().frame().trace_id());
    dp::Packet out{std::move(out_frame)};
    out.meta().egress_port = ctx.packet().meta().ingress_port;
    ctx.emit(std::move(out));
    // The GET itself is consumed by the switch.
    ctx.mark_drop();
}

bool KvCacheSwitchProgram::insert(const Key16& key, WireValue value) {
    const std::uint32_t inflight = outstanding_writes(key);
    if (const std::uint16_t* slot = index_.peek(key)) {
        refresh(*slot, value, inflight);
        return true;
    }
    return install(key, value, inflight);
}

void KvCacheSwitchProgram::refresh(std::size_t slot, WireValue value,
                                   std::uint32_t inflight) {
    // Writes to the key between this switch and their returning ACKs
    // make the control-plane snapshot in `value` unsafe to serve: keep
    // (or make) the entry a *shadow* — invalid, pending set to the
    // conservative in-flight bound — and let the final ACK validate
    // the slot with the server-serialized value. Collisions in the
    // hashed bound can leave pending stuck above zero; the next
    // quiescent refresh repairs it.
    DAIET_EXPECTS(!slot_key_[slot].empty());
    values_.poke(slot, value);
    if (inflight == 0) {
        pending_.poke(slot, 0);
        valid_.poke(slot, 1);
    } else if (pending_.peek(slot) == 0) {
        pending_.poke(slot, inflight);
        valid_.poke(slot, 0);
    }
}

bool KvCacheSwitchProgram::install(const Key16& key, WireValue value,
                                   std::uint32_t inflight) {
    if (free_slots_.empty()) return false;
    const std::uint16_t slot = free_slots_.back();
    free_slots_.pop_back();
    index_.install(key, slot);
    slot_key_[slot] = key;
    values_.poke(slot, value);
    valid_.poke(slot, inflight == 0 ? 1 : 0);
    hits_.poke(slot, 0);
    pending_.poke(slot, inflight);
    return true;
}

bool KvCacheSwitchProgram::erase(const Key16& key) {
    const std::uint16_t* found = index_.peek(key);
    if (found == nullptr) return false;
    erase_slot(*found);
    return true;
}

void KvCacheSwitchProgram::erase_slot(std::size_t slot) {
    DAIET_EXPECTS(!slot_key_[slot].empty());
    index_.remove(slot_key_[slot]);
    slot_key_[slot] = Key16{};
    valid_.poke(slot, 0);
    hits_.poke(slot, 0);
    pending_.poke(slot, 0);
    free_slots_.push_back(static_cast<std::uint16_t>(slot));
}

void KvCacheSwitchProgram::reset_hot_counters() { hits_.fill(0); }

void KvCacheSwitchProgram::reset_flight_state() {
    write_flight_.fill(0);
    put_seen_.fill(0);
    ack_seen_.fill(0);
    pending_.fill(0);
    // Invalidating every slot is what makes the wipe safe with traffic
    // still in flight: anything we forgot about can no longer be
    // served, and original ACKs passing later re-validate with
    // server-serialized values.
    valid_.fill(0);
}

std::uint32_t KvCacheSwitchProgram::outstanding_writes(const Key16& key) const {
    // Note write_flight_ is live in-flight state, not a per-window
    // counter: reset_hot_counters() must never touch it.
    return writes_in_flight(flight_cell(key));
}

std::size_t KvCacheSwitchProgram::flight_cell(const Key16& key) const {
    // Same hash pipeline the dataplane uses, read out of band.
    return register_index_from_crc(Crc32::compute(key.bytes()), write_flight_.size());
}

}  // namespace daiet::kv
