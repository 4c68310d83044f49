// Netsim throughput macro-bench: pooled frames + flat event queue.
//
// One binary, one multi-tenant workload — a fat-tree fabric (k=16 at
// scale 1: 1024 hosts, 320 switches) concurrently carrying a
// closed-loop kv service (switch cache + controller live), a two-round
// DAIET aggregation job, and a cross-pod echo sweep — measured as
// trials, each in its own forked child process:
//
//   * fast — the sequential simulator; each child runs the workload
//     twice (cold pool, then warm pool) so the steady-state allocation
//     gates see a warmed free list. Two children.
//   * traced — the fast trial with the trace/ ring flight recorder live
//     (one child): tracks what recording every hop costs. The fast
//     trials run with tracing disabled, so they price the disabled hooks.
//   * parN — the same workload under the parallel sharded simulator
//     (netsim/parallel.hpp): the fat-tree partitioned one pod per
//     shard, driven by N worker threads through conservative time
//     windows. One child per thread count in {1, 2, 4} (capped by
//     DAIET_THREADS); all parN trials must agree bit-for-bit with each
//     other — the partition fixes the event graph, the thread count
//     must not — and must reproduce the sequential oracle's workload
//     outcomes (kv completions, aggregation results, echo sweep); at
//     full scale on >= 4 hardware threads par4 must also clear 1.8x
//     the sequential fast path.
//   * profN — the parN run with the sim self-profiler and the fabric
//     time-series sampler both live (N = the largest parN that ran):
//     per-shard exec/barrier/drain attribution plus counter tracks
//     sampled at the window barrier. Two trials, interleaved with a
//     second parN base trial; must stay bit-identical with the parN
//     group (the observers may not perturb the schedule), and the best
//     profiled trial must hold 85% of the best base trial's
//     throughput.
//
// Forked children keep one mode's heap churn from contaminating the
// other's measurement, and the overhead gates compare each mode's best
// trial, so a burst of machine noise cannot flip the verdict.
// DAIET_BENCH_PROFILE=fast|traced|parN|profN runs that one trial in
// process instead, for a profiler or a sanitizer.
//
// Gates (any failure exits nonzero — the bench doubles as a CI gate):
//   * golden schedule: at a scale in kGolden (0.05, 0.25 and 1), the
//     sequential run's event count, signature and final sim time equal
//     the committed constants, and the first parN trial's equal
//     kGoldenPar — both schedules are pinned across commits;
//   * determinism: every sequential run repeats the first one's event
//     count, final sim time and value histories bit for bit;
//   * tracing: the ring-traced trial keeps >= 50% of the fast rate;
//   * parallel: parity across parN (see above), par4 >= 1.8x at scale 1
//     on >= 4 hardware threads, and profN within 15% of parN;
//   * zero steady-state allocation on the warm run: no frame slab
//     leaves the heap (pool-stats delta == 0 — every delivered frame
//     rides a recycled slab) and no per-frame event closure is heap-boxed
//     (boxed actions stay within the O(sending hosts) per-round setup
//     closures, which carry a vector of send work and are the only
//     legitimate oversize captures).
//
// Writes BENCH_sim_throughput.json; its root events_per_sec is the best
// sequential fast trial's rate. DAIET_SCALE scales the fabric arity and
// the per-client request count.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "common/framebuf.hpp"
#include "kvcache/service.hpp"
#include "runtime/job_driver.hpp"
#include "runtime/sampler.hpp"
#include "trace/profiler.hpp"
#include "trace/trace.hpp"

namespace {

using namespace daiet;

struct Shape {
    std::size_t k{16};
    std::size_t hosts{1024};
    std::size_t requests{400};
    std::size_t groups{4};
    std::size_t mappers_per_group{32};
    std::size_t pairs_per_mapper{256};
    std::size_t rounds{2};
    /// Serial ping-pong legs per cross-pod echo pair (tenant 3): pure
    /// fabric traffic whose host-side work is a counter decrement, so
    /// most of its cost is the per-hop simulator path itself.
    std::size_t echo_legs{12000};
};

Shape shape_for(double scale) {
    Shape s;
    if (scale >= 1.0) {
        s.k = 16;
        s.groups = 4;
        s.mappers_per_group = 32;
    } else if (scale >= 0.25) {
        s.k = 8;
        s.groups = 4;
        s.mappers_per_group = 16;
    } else {
        s.k = 4;
        s.groups = 2;
        s.mappers_per_group = 4;
    }
    s.hosts = s.k * s.k * s.k / 4;
    s.requests = std::max<std::size_t>(bench::scaled(400), 120);
    s.echo_legs = std::max<std::size_t>(bench::scaled(12000), 600);
    return s;
}

/// The sequential schedule per DAIET_SCALE, captured from the last build
/// whose fast path was gated bit-identical to the pre-fast-path cost
/// model. Pinned constants: update deliberately and record it in
/// CHANGES.md.
struct GoldenSchedule {
    double scale;
    std::uint64_t events;
    std::uint64_t signature;
    sim::SimTime final_time;
};
constexpr GoldenSchedule kGolden[] = {
    {0.05, 11'420, 0xb03edbb7219b4d58ULL, 6'004'400},
    {0.25, 342'145, 0x7ed4bfcc1598bba7ULL, 29'748'212},
    {1.0, 13'469'295, 0x2115566ae397fbb6ULL, 975'969'086},
};
/// The partitioned (one pod per shard) schedule per DAIET_SCALE, as the
/// first parN trial must reproduce it. The parity gate only compares
/// parN trials with each other; this table pins the group across
/// commits. Same update rule as kGolden.
constexpr GoldenSchedule kGoldenPar[] = {
    {0.05, 13'209, 0x97d3c10d56348f68ULL, 6'004'400},
    {0.25, 437'035, 0x0fcca233f91176cdULL, 29'758'212},
    {1.0, 16'683'820, 0xcb138aaa7ebd21a9ULL, 977'299'086},
};

/// Order-sensitive FNV-1a accumulator: any reordering of deliveries,
/// any changed value, any extra or missing event shifts the digest.
struct Signature {
    std::uint64_t h{0xcbf29ce484222325ULL};

    void bytes(std::span<const std::byte> data) noexcept {
        for (const std::byte b : data) {
            h ^= static_cast<std::uint64_t>(b);
            h *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void value(T v) noexcept {
        static_assert(std::is_trivially_copyable_v<T>);
        std::byte buf[sizeof(T)];
        std::memcpy(buf, &v, sizeof(T));
        bytes(buf);
    }
};

struct RunResult {
    std::uint64_t signature{0};
    std::uint64_t events{0};
    sim::SimTime final_time{0};
    double exec_seconds{0};
    double events_per_sec{0};
    /// Slab + oversize heap allocations during the timed region.
    std::uint64_t frame_heap_allocs{0};
    /// Event closures too big for a queue slot's inline buffer.
    std::uint64_t boxed_actions{0};
    /// Allowance for the legitimate boxed closures: the per-round
    /// per-sending-host aggregation setup (not per-frame work).
    std::uint64_t boxed_allowance{0};
    std::uint64_t kv_completed{0};
    std::uint64_t kv_expected{0};
    double hit_rate{0};
    std::uint64_t agg_pairs_sent{0};
    std::uint64_t agg_pairs_received{0};
    std::uint64_t echo_messages{0};
    std::uint64_t echo_expected{0};
    /// Time-series samples the fabric sampler took (profN trials only).
    std::uint64_t ts_samples{0};
};

/// `profiled` arms the continuous observers for this run: the fabric
/// time-series sampler (queue depths, SRAM, kv cache hits) attached to
/// the parallel driver's window barrier. Only meaningful with
/// threads > 0 — the sequential pump mode injects sim events and would
/// change the signature, which the profN parity gate exists to forbid.
RunResult run_workload(const Shape& s, std::size_t threads = 0,
                       bool profiled = false) {
    rt::ClusterOptions copts;
    copts.topology = rt::TopologyKind::kFatTree;
    copts.fat_tree_k = s.k;
    copts.num_hosts = s.hosts;
    copts.seed = 42;
    rt::ClusterRuntime rt{copts};
    // threads > 0: partition the fat tree one pod per shard and drive
    // it with that many workers. All kickoffs below go through each
    // endpoint host's own simulator — under the partition that is its
    // shard's queue; sequentially it is the one global queue either way.
    if (threads > 0) rt.enable_parallel(threads);

    // Tenant 1: the kv service. Server on host 0, clients on every
    // fourth host; the cache tenant lands on the server's edge switch.
    kv::KvServiceOptions kopts;
    kopts.server_host = 0;
    for (std::size_t i = 1; i < s.hosts; i += 4) kopts.client_hosts.push_back(i);
    kv::KvService svc{rt, kopts};

    kv::KvWorkload wl;
    wl.num_keys = 1024;
    wl.zipf_s = 0.99;
    wl.requests_per_client = s.requests;
    wl.get_fraction = 0.8;
    wl.seed = 11;
    svc.preload(wl.num_keys);

    // Closed loop: demand adapts to capacity, so the run measures the
    // simulator, not an open-loop queue artifact. Kickoffs go on each
    // client host's own simulator.
    svc.fleet().start_closed_loop(wl);
    const std::size_t n = svc.num_clients();
    // Promotion windows for the switch cache over the traffic's span.
    // The rebalancer touches the server's store and its edge switch's
    // cache program — both on the server host's shard.
    if (auto* ctl = svc.controller()) {
        sim::Simulator& server_sim = rt.host(kopts.server_host).simulator();
        const sim::SimTime horizon = s.requests * 12 * sim::kMicrosecond;
        for (sim::SimTime at = 100 * sim::kMicrosecond; at <= horizon;
             at += 100 * sim::kMicrosecond) {
            server_sim.schedule_at(at, [ctl] { ctl->rebalance(); });
        }
    }

    // Tenant 2: the aggregation job. Reducers on hosts == 2 (mod 4),
    // mappers drawn from hosts == 3 (mod 4) — disjoint from the kv
    // endpoints, co-resident on the same switches.
    std::vector<std::size_t> mapper_pool;
    for (std::size_t i = 3; i < s.hosts; i += 4) mapper_pool.push_back(i);
    rt::JobSpec spec;
    spec.name = "agg";
    std::set<std::size_t> sender_hosts;
    for (std::size_t g = 0; g < s.groups; ++g) {
        rt::JobGroup group;
        group.reducer = &rt.host(2 + 4 * g);
        for (std::size_t j = 0; j < s.mappers_per_group; ++j) {
            const std::size_t hi =
                mapper_pool[(g * s.mappers_per_group + j) % mapper_pool.size()];
            group.mappers.push_back(&rt.host(hi));
            sender_hosts.insert(hi);
        }
        spec.groups.push_back(std::move(group));
    }
    rt::JobDriver driver{rt, spec};

    // Tenant 3: a cross-pod echo sweep. Hosts == 2 (mod 4) not serving
    // as reducers pair up across the fabric and ping-pong a counter;
    // each leg crosses the core, so nearly all of its cost is per-hop
    // simulator work — the frame copy and event scheduling path this
    // bench exists to measure.
    constexpr std::uint16_t kEchoPort = 47001;
    std::vector<std::size_t> echo_hosts;
    for (std::size_t i = 2 + 4 * s.groups; i < s.hosts; i += 4) {
        echo_hosts.push_back(i);
    }
    const std::size_t echo_pairs = echo_hosts.size() / 2;
    std::vector<std::uint64_t> echo_rx(echo_pairs * 2, 0);
    const auto echo_reply = [&rt](sim::HostAddr to, std::uint16_t to_port,
                                  std::size_t from_host, std::uint32_t remaining) {
        std::byte buf[sizeof remaining];
        std::memcpy(buf, &remaining, sizeof remaining);
        rt.host(from_host).udp_send(to, kEchoPort, to_port, buf);
    };
    for (std::size_t j = 0; j < echo_pairs * 2; ++j) {
        rt.host(echo_hosts[j])
            .udp_bind(kEchoPort, [&echo_rx, &echo_reply, &echo_hosts, j](
                                     sim::HostAddr src, std::uint16_t src_port,
                                     std::span<const std::byte> payload) {
                ++echo_rx[j];
                std::uint32_t remaining = 0;
                std::memcpy(&remaining, payload.data(),
                            std::min(sizeof remaining, payload.size()));
                if (remaining == 0) return;
                echo_reply(src, src_port, echo_hosts[j], remaining - 1);
            });
    }
    const auto echo_legs = static_cast<std::uint32_t>(s.echo_legs);
    for (std::size_t j = 0; j < echo_pairs; ++j) {
        const std::size_t self = echo_hosts[j];
        const std::size_t peer = echo_hosts[j + echo_pairs];
        rt.host(self).simulator().schedule_at(
            (1 + j) * 300 * sim::kNanosecond,
            [&rt, &echo_reply, self, peer, echo_legs] {
                echo_reply(rt.host(peer).addr(), kEchoPort, self,
                           echo_legs - 1);
            });
    }

    // Continuous observers for the profN trial: fabric + service probes
    // sampled in the window barrier's completion step (zero injected
    // events — the parity gate holds the observers to that).
    // Modest ring capacity: a full-scale fat tree carries thousands of
    // link-direction tracks. The cadence is sized to the overhead gate:
    // one sample scrapes every probe (~1k on a fat tree, cache-miss
    // bound, ~100us wall here), all of it inside the completion step
    // where it stalls every worker — the profiler showed 50us cadence
    // costing more wall time than the sim itself earns back at this
    // scale.
    std::unique_ptr<rt::FabricSampler> sampler;
    if (profiled) {
        sampler = std::make_unique<rt::FabricSampler>(
            rt, 250 * sim::kMicrosecond, /*capacity=*/256);
        sampler->add_fabric_probes();
        svc.install_probes(*sampler);
        sampler->start(s.requests * 12 * sim::kMicrosecond);
    }

    Signature sig;
    RunResult out;
    out.boxed_allowance = (sender_hosts.size() + 8) * s.rounds;

    // Shared keys across a group's mappers => real in-network combining.
    const auto produce = [&s](std::size_t g, std::size_t m, MapperSender& tx) {
        for (std::size_t p = 0; p < s.pairs_per_mapper; ++p) {
            const std::uint64_t key = 0x6000 + (g << 8) + (m * 7 + p) % 97;
            tx.send({Key16::from_u64(key),
                     static_cast<WireValue>(1 + ((m + p) & 0xff))});
        }
    };
    const auto consume = [&sig](std::size_t g, ReducerReceiver& rx) {
        sig.value(g);
        for (const KvPair& p : rx.sorted_result()) {
            sig.bytes(p.key.bytes());
            sig.value(p.value);
        }
    };

    const FramePoolStats pool0 = FrameBuf::pool_stats();
    const std::uint64_t events0 = sim::Simulator::process_events_executed();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < s.rounds; ++r) driver.run_round(produce, consume);
    rt.run();  // drain any kv traffic outliving the last round
    const auto t1 = std::chrono::steady_clock::now();
    const FramePoolStats pool1 = FrameBuf::pool_stats();

    out.events = sim::Simulator::process_events_executed() - events0;
    out.exec_seconds = std::chrono::duration<double>(t1 - t0).count();
    out.events_per_sec = out.exec_seconds > 0
                             ? static_cast<double>(out.events) / out.exec_seconds
                             : 0.0;
    out.frame_heap_allocs = (pool1.slab_allocs + pool1.oversize_allocs) -
                            (pool0.slab_allocs + pool0.oversize_allocs);
    out.boxed_actions = rt.network().actions_heap_allocated();
    out.final_time = rt.now();
    if (sampler != nullptr) out.ts_samples = sampler->samples_taken();

    // Value histories, in completion order: the determinism oracle.
    for (std::size_t ci = 0; ci < n; ++ci) {
        for (const auto& rec : svc.client(ci).log()) {
            sig.value(rec.req_id);
            sig.value(static_cast<std::uint8_t>(rec.op));
            sig.bytes(rec.key.bytes());
            sig.value(rec.value);
        }
    }
    const kv::KvRunStats kstats = svc.collect();
    sig.value(kstats.gets_sent);
    sig.value(kstats.puts_sent);
    sig.value(kstats.get_replies);
    sig.value(kstats.put_acks);
    sig.value(kstats.switch_hits);
    sig.value(kstats.server_gets);
    sig.value(kstats.server_puts);
    sig.value(kstats.retransmits);
    for (const rt::RoundStats& r : driver.history()) {
        sig.value(r.attempts);
        sig.value(r.finished);
        sig.value(r.pairs_sent);
        sig.value(r.pairs_received);
        sig.value(r.data_packets_received);
        sig.value(r.payload_bytes_received);
        out.agg_pairs_sent += r.pairs_sent;
        out.agg_pairs_received += r.pairs_received;
    }
    // Per-endpoint echo delivery counts: a lost or reordered sweep leg
    // shows up here even though the sweep carries no payload history.
    for (const std::uint64_t v : echo_rx) {
        sig.value(v);
        out.echo_messages += v;
    }
    out.echo_expected = echo_pairs * s.echo_legs;
    sig.value(out.final_time);
    sig.value(out.events);
    out.signature = sig.h;

    out.kv_completed = kstats.get_replies + kstats.put_acks;
    out.kv_expected = n * s.requests;
    out.hit_rate = kstats.hit_rate();
    return out;
}

// --- forked trial harness -----------------------------------------------
//
// Each measurement trial runs in a forked child: millions of mixed-size
// allocations from one mode leave the heap in a state that measurably
// slows the next mode in the same process, so in-process back-to-back
// trials systematically contaminate each other. The parent never runs a
// workload, so every child starts from the same clean heap. A child
// writes one ChildResult to a pipe; the parent applies the gates.

/// What a trial runs: the sequential simulator with tracing off (fast)
/// or with the ring flight recorder live (traced), or the partitioned
/// simulator bare (par) or with the observers live (prof).
enum class Mode : std::uint8_t { kFast, kTraced, kPar, kProf };

std::string mode_name(Mode mode, std::size_t threads) {
    switch (mode) {
        case Mode::kFast: return "fast";
        case Mode::kTraced: return "traced";
        case Mode::kPar: return "par" + std::to_string(threads);
        case Mode::kProf: return "prof" + std::to_string(threads);
    }
    return {};
}

/// One trial's results, sent from child to parent as raw bytes. A fast
/// or traced trial carries two runs (cold pool, then warm pool); a prof
/// trial also carries the self-profiler's report, its lanes flattened
/// into a fixed array.
struct ChildResult {
    RunResult runs[2]{};
    std::size_t num_runs{0};
    std::uint64_t wall_ns{0}, exec_ns{0}, barrier_ns{0}, drain_ns{0}, events{0};
    double utilization_min{0}, utilization_max{0}, imbalance{1.0};
    std::size_t num_lanes{0};
    trace::Profiler::LaneReport lanes[trace::Profiler::kMaxLanes]{};

    void set_profile(const trace::Profiler::Report& p) noexcept {
        wall_ns = p.wall_ns;
        exec_ns = p.exec_ns;
        barrier_ns = p.barrier_ns;
        drain_ns = p.drain_ns;
        events = p.events;
        utilization_min = p.utilization_min;
        utilization_max = p.utilization_max;
        imbalance = p.imbalance;
        num_lanes = std::min(p.lanes.size(), trace::Profiler::kMaxLanes);
        std::copy_n(p.lanes.begin(), num_lanes, lanes);
    }
    trace::Profiler::Report profile() const {
        trace::Profiler::Report p;
        p.wall_ns = wall_ns;
        p.exec_ns = exec_ns;
        p.barrier_ns = barrier_ns;
        p.drain_ns = drain_ns;
        p.events = events;
        p.utilization_min = utilization_min;
        p.utilization_max = utilization_max;
        p.imbalance = imbalance;
        p.lanes.assign(lanes, lanes + num_lanes);
        return p;
    }
};
static_assert(std::is_trivially_copyable_v<ChildResult>);

/// Runs one trial in this process. A fast or traced trial runs the
/// workload twice — cold pool, then warm pool — so the steady-state
/// allocation gates see a warmed free list.
ChildResult run_mode(const Shape& s, Mode mode, std::size_t threads) {
    ChildResult out;
    switch (mode) {
        case Mode::kTraced:
            // Every hop records a span into a fixed buffer. The fast
            // trials run with tracing disabled — they are the "hooks
            // must be invisible when off" measurement.
            trace::tracer().enable_ring(std::size_t{1} << 16);
            [[fallthrough]];
        case Mode::kFast:
            out.runs[0] = run_workload(s);
            out.runs[1] = run_workload(s);
            out.num_runs = 2;
            break;
        case Mode::kPar:
            out.runs[0] = run_workload(s, threads);
            out.num_runs = 1;
            break;
        case Mode::kProf:
            // The parN run with the observers armed: the self-profiler
            // attributes every shard's windows and the fabric sampler
            // scrapes counter tracks in the barrier's completion step.
            trace::profiler().enable();
            out.runs[0] = run_workload(s, threads, /*profiled=*/true);
            out.num_runs = 1;
            out.set_profile(trace::profiler().report());
            break;
    }
    return out;
}

/// Runs one trial in a forked child and reads its ChildResult back.
/// Returns false, after printing FAIL, if the child threw, died or sent
/// a short result. The child never returns into the caller's loop.
bool fork_trial(const Shape& s, Mode mode, std::size_t threads, ChildResult& out) {
    const std::string name = mode_name(mode, threads);
    int fds[2] = {-1, -1};
    std::fflush(stdout);  // else the child would inherit, and repeat, buffered text
    if (pipe(fds) != 0) {
        std::printf("FAIL: no pipe for the %s trial\n", name.c_str());
        return false;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        std::printf("FAIL: could not fork the %s trial\n", name.c_str());
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        int rc = 1;
        try {
            const ChildResult r = run_mode(s, mode, threads);
            const auto* p = reinterpret_cast<const char*>(&r);
            std::size_t left = sizeof r;
            ssize_t n = 0;
            while (left > 0 && (n = write(fds[1], p, left)) > 0) {
                p += n;
                left -= static_cast<std::size_t>(n);
            }
            rc = left == 0 ? 0 : 1;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s trial threw: %s\n", name.c_str(), e.what());
        } catch (...) {
            std::fprintf(stderr, "%s trial threw\n", name.c_str());
        }
        std::fflush(stdout);
        _exit(rc);
    }
    close(fds[1]);
    auto* p = reinterpret_cast<char*>(&out);
    std::size_t got = 0;
    ssize_t n = 0;
    while (got < sizeof out && (n = read(fds[0], p + got, sizeof out - got)) != 0) {
        if (n > 0) got += static_cast<std::size_t>(n);
        else if (errno != EINTR) break;
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    if (code != 0 || got != sizeof out) {
        std::printf("FAIL: %s trial child exited %d with %zu of %zu result bytes\n",
                    name.c_str(), code, got, sizeof out);
        return false;
    }
    return true;
}

struct Trial {
    std::string label;
    Mode mode{Mode::kFast};
    std::size_t threads{0};  ///< 0 for the sequential modes
    bool warm{false};        ///< a fast/traced trial's second (warm-pool) run
    RunResult r;
};

}  // namespace

int main() {
    const double scale = bench::scale_factor();
    const Shape s = shape_for(scale);

    // Profiling hook: DAIET_BENCH_PROFILE=fast|traced|parN|profN runs
    // that one trial in this process and exits, so a profiler or a
    // sanitizer sees a single clean trial instead of the harness.
    if (const char* knob = std::getenv("DAIET_BENCH_PROFILE")) {
        const std::string_view m{knob};
        Mode mode = Mode::kFast;
        std::size_t threads = 0;
        if (m == "traced") {
            mode = Mode::kTraced;
        } else if (const bool prof = m.rfind("prof", 0) == 0; prof || m.rfind("par", 0) == 0) {
            mode = prof ? Mode::kProf : Mode::kPar;
            threads = static_cast<std::size_t>(std::max(std::atoi(knob + (prof ? 4 : 3)), 1));
        } else if (m != "fast") {
            std::printf("FAIL: DAIET_BENCH_PROFILE=%s (want fast, traced, parN "
                        "or profN)\n", knob);
            return 1;
        }
        const ChildResult c = run_mode(s, mode, threads);
        for (std::size_t i = 0; i < c.num_runs; ++i) {
            const RunResult& r = c.runs[i];
            std::printf("%s%s: %llu events in %.3fs (%.0f events/sec)\n", knob,
                        i == 1 ? "-warm" : "", static_cast<unsigned long long>(r.events),
                        r.exec_seconds, r.events_per_sec);
        }
        return 0;
    }

    std::printf(
        "sim throughput macro-bench: fat-tree k=%zu (%zu hosts), %zu kv "
        "clients x %zu requests (closed-loop window %zu), %zu aggregation "
        "groups x %zu mappers x %zu rounds, cross-pod echo sweep x %zu "
        "legs/pair\n\n",
        s.k, s.hosts, (s.hosts + 2) / 4, s.requests, kv::kClosedLoopWindow, s.groups,
        s.mappers_per_group, s.rounds, s.echo_legs);

    bench::BenchJson json{"sim_throughput"};
    json.config()
        .text("topology", "fat-tree")
        .integer("fat_tree_k", s.k)
        .integer("num_hosts", s.hosts)
        .integer("fabric_seed", 42)
        .integer("kv_seed", 11)
        .integer("num_keys", 1024)
        .number("zipf_s", 0.99)
        .number("get_fraction", 0.8)
        .integer("requests_per_client", s.requests)
        .integer("closed_loop_window", kv::kClosedLoopWindow)
        .integer("agg_groups", s.groups)
        .integer("mappers_per_group", s.mappers_per_group)
        .integer("pairs_per_mapper", s.pairs_per_mapper)
        .integer("agg_rounds", s.rounds)
        .integer("echo_legs_per_pair", s.echo_legs)
        .number("scale", scale);

    std::vector<Trial> trials;
    std::optional<ChildResult> profiled;  // the first profN child's result
    bool healthy = true;
    const auto trial = [&](Mode mode, std::size_t threads, const char* suffix) {
        ChildResult c;
        if (!fork_trial(s, mode, threads, c)) {
            healthy = false;
            return;
        }
        for (std::size_t i = 0; i < c.num_runs; ++i) {
            const bool warm = i == 1;
            trials.push_back({mode_name(mode, threads) + (warm ? "-warm" : "") + suffix,
                              mode, threads, warm, c.runs[i]});
        }
        if (mode == Mode::kProf && !profiled) profiled = c;
    };
    trial(Mode::kFast, 0, "");
    trial(Mode::kFast, 0, "#2");
    trial(Mode::kTraced, 0, "");
    // Parallel trials: one child per thread count. DAIET_THREADS caps
    // the set (the CI smoke runs with DAIET_THREADS=2 to keep it
    // cheap); the partition — and so the parN event graph — is the
    // same for every N, which is exactly what the parity gate checks.
    std::size_t max_threads = 4;
    if (const char* env = std::getenv("DAIET_THREADS")) {
        const int parsed = std::atoi(env);
        if (parsed > 0) max_threads = static_cast<std::size_t>(parsed);
    }
    std::size_t prof_threads = 0;
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        if (n > max_threads) break;
        trial(Mode::kPar, n, "");
        prof_threads = n;
    }
    // Profiled trials at the widest parN that ran: the parN schedule
    // with the self-profiler and the fabric sampler both live, so the
    // observer cost and the utilization split are tracked numbers. Two
    // trials of each side, interleaved — the overhead gate compares best
    // against best, so one noisy trial on a shared box cannot fake (or
    // mask) a regression. The attribution folded into the JSON comes
    // from the first profiled child only.
    if (prof_threads > 0) {
        trial(Mode::kProf, prof_threads, "");
        trial(Mode::kPar, prof_threads, "#2");
        trial(Mode::kProf, prof_threads, "#2");
    }
    if (trials.empty()) {
        std::puts("FAIL: no trials completed");
        return 1;
    }

    std::printf("%-12s %12s %10s %14s %18s\n", "run", "events", "wall_s",
                "events/sec", "signature");
    for (const Trial& t : trials) {
        const RunResult& r = t.r;
        std::printf("%-12s %12llu %10.3f %14.0f %018llx\n", t.label.c_str(),
                    static_cast<unsigned long long>(r.events), r.exec_seconds,
                    r.events_per_sec,
                    static_cast<unsigned long long>(r.signature));
        json.push("runs")
            .text("run", t.label)
            .integer("events", r.events)
            .number("wall_clock_seconds", r.exec_seconds)
            .number("events_per_sec", r.events_per_sec)
            .integer("signature", r.signature)
            .integer("final_sim_time_ns", r.final_time)
            .integer("frame_heap_allocs", r.frame_heap_allocs)
            .integer("boxed_actions", r.boxed_actions)
            .integer("kv_completed", r.kv_completed)
            .number("kv_hit_rate", r.hit_rate)
            .integer("agg_pairs_sent", r.agg_pairs_sent)
            .integer("agg_pairs_received", r.agg_pairs_received)
            .integer("echo_messages", r.echo_messages);
    }

    // Every rate gate compares best trial against best trial; an empty
    // RunResult (rate 0) stands in for a mode that never completed.
    const auto best = [&trials](Mode mode, std::size_t threads) {
        RunResult out;
        for (const Trial& t : trials) {
            if (t.mode == mode && t.threads == threads &&
                t.r.events_per_sec > out.events_per_sec) {
                out = t.r;
            }
        }
        return out;
    };
    const auto partitioned = [](const Trial& t) {
        return t.mode == Mode::kPar || t.mode == Mode::kProf;
    };
    const RunResult best_fast = best(Mode::kFast, 0);
    const double fast_eps = best_fast.events_per_sec;
    const double traced_eps = best(Mode::kTraced, 0).events_per_sec;
    const double par1_eps = best(Mode::kPar, 1).events_per_sec;
    const double par4_eps = best(Mode::kPar, 4).events_per_sec;
    const double prof_eps = best(Mode::kProf, prof_threads).events_per_sec;
    const double prof_base_eps = best(Mode::kPar, prof_threads).events_per_sec;
    const RunResult* warm = nullptr;
    std::vector<const Trial*> par_trials;  // prof trials share parN's schedule
    for (const Trial& t : trials) {
        if (partitioned(t)) par_trials.push_back(&t);
        if (t.mode == Mode::kFast && t.warm) warm = &t.r;
    }
    std::printf("\nsequential fast: %.0f events/sec (best trial)\n", fast_eps);

    // Tracing cost with the recorder on: the ring-traced trial must keep
    // most of the fast trials' rate (every hop records a 40-byte span).
    const double traced_overhead =
        fast_eps > 0 ? 1.0 - traced_eps / fast_eps : 1.0;
    std::printf("ring-traced fast path: %.1f%% overhead vs untraced "
                "(gate: <= 50%%)\n",
                100.0 * traced_overhead);
    if (traced_eps < 0.5 * fast_eps) {
        std::puts("FAIL: ring tracing cost the fast path more than half "
                  "its throughput");
        healthy = false;
    }

    // Parallel speedup: the 4-thread partitioned run against the
    // sequential fast path. The gate is enforced only where the number
    // can be honest — full scale on a machine with >= 4 hardware
    // threads; on smaller containers (the CI smoke) the parity gates
    // below still pin correctness and the ratio is reported untested.
    const double par_speedup = fast_eps > 0 ? par4_eps / fast_eps : 0.0;
    const bool par_gate_active = scale >= 1.0 && par4_eps > 0 &&
                                 std::thread::hardware_concurrency() >= 4;
    if (par4_eps > 0) {
        std::printf("parallel 4-thread speedup vs sequential fast: %.2fx "
                    "(gate >= 1.8x %s)\n",
                    par_speedup, par_gate_active ? "active" : "informational");
    }
    if (par_gate_active && par_speedup < 1.8) {
        std::puts("FAIL: the 4-thread parallel run did not clear 1.8x over "
                  "the sequential fast path");
        healthy = false;
    }

    // Observer overhead: the profiled trial replays the parN schedule
    // with the self-profiler and the fabric sampler both live. Continuous
    // observability is only continuous if it is cheap enough to leave on,
    // so the cost is a hard gate, not a report.
    double prof_overhead = 0.0;
    if (prof_eps > 0 && prof_base_eps > 0) {
        prof_overhead = 1.0 - prof_eps / prof_base_eps;
        std::printf("profiled prof%zu: %.1f%% overhead vs par%zu "
                    "(gate: <= 15%%)\n",
                    prof_threads, 100.0 * prof_overhead, prof_threads);
        if (prof_eps < 0.85 * prof_base_eps) {
            std::puts("FAIL: profiling + sampling cost the parallel run "
                      "more than 15% of its throughput");
            healthy = false;
        }
    } else if (prof_threads > 0) {
        std::puts("FAIL: the profiled trial did not complete");
        healthy = false;
    }

    // Fold the first profiled child's per-shard attribution into the
    // JSON and its summary onto the root, under the same field names
    // in-process profiled benches write.
    std::uint64_t prof_samples = 0;
    if (profiled) {
        const trace::Profiler::Report prof = profiled->profile();
        prof_samples = profiled->runs[0].ts_samples;
        for (const trace::Profiler::LaneReport& lane : prof.lanes) {
            json.push("profile")
                .integer("shard", lane.lane)
                .integer("exec_ns", lane.exec_ns)
                .integer("barrier_ns", lane.barrier_ns)
                .integer("drain_ns", lane.drain_ns)
                .integer("windows", lane.windows)
                .integer("events", lane.events)
                .number("utilization", lane.utilization);
        }
        std::printf("profile: wall %.3f ms, exec %.3f ms, barrier "
                    "%.3f ms, drain %.3f ms, utilization %.0f%%..%.0f%%, "
                    "imbalance %.2fx, %llu counter samples\n",
                    prof.wall_ns / 1e6, prof.exec_ns / 1e6, prof.barrier_ns / 1e6,
                    prof.drain_ns / 1e6, 100.0 * prof.utilization_min,
                    100.0 * prof.utilization_max, prof.imbalance,
                    static_cast<unsigned long long>(prof_samples));
        bench::stamp_profile(json, prof);
    }
    if (prof_threads > 0 && prof_samples == 0) {
        std::puts("FAIL: the fabric sampler took no counter samples");
        healthy = false;
    }

    // Determinism: every sequential trial must repeat the first fast
    // trial bit for bit, and at a golden scale that trial must match the
    // committed schedule (kGolden) — the cross-commit oracle. The parN
    // trials form their own parity group — each shard-boundary delivery
    // adds one bookkeeping event, and same-tick arrivals at a switch
    // drain in (shard, FIFO) order rather than global schedule order,
    // so their event counts, signatures and (through retry timing) even
    // the final simulated time may differ from the sequential runs by
    // construction. What must hold: every parN trial is bit-identical
    // to every other (the thread count must never leak into the
    // schedule — the shard plan alone fixes the event graph), and the
    // workload-level outcomes match the sequential oracle exactly (same
    // requests completed, same aggregation results, same echo sweep).
    const RunResult& oracle = trials.front().r;
    bool deterministic = true;
    for (const Trial& t : trials) {
        if (partitioned(t)) continue;
        if (t.r.signature != oracle.signature || t.r.events != oracle.events ||
            t.r.final_time != oracle.final_time) {
            std::printf("FAIL: %s diverged from %s "
                        "(signature/events/final time)\n",
                        t.label.c_str(), trials.front().label.c_str());
            deterministic = false;
            healthy = false;
        }
    }
    const auto check_golden = [&](const auto& table, const Trial& t) {
        for (const GoldenSchedule& g : table) {
            if (g.scale != scale) continue;
            std::printf("golden schedule (%s): events=%llu sig=%016llx final=%llu\n",
                        t.label.c_str(), static_cast<unsigned long long>(g.events),
                        static_cast<unsigned long long>(g.signature),
                        static_cast<unsigned long long>(g.final_time));
            if (t.r.events != g.events || t.r.signature != g.signature ||
                t.r.final_time != g.final_time) {
                std::printf("FAIL: %s left the golden schedule (final=%llu)\n",
                            t.label.c_str(),
                            static_cast<unsigned long long>(t.r.final_time));
                deterministic = false;
                healthy = false;
            }
        }
    };
    check_golden(kGolden, trials.front());
    if (!par_trials.empty()) check_golden(kGoldenPar, *par_trials.front());
    for (const Trial* t : par_trials) {
        const RunResult& par_oracle = par_trials.front()->r;
        if (t->r.signature != par_oracle.signature ||
            t->r.events != par_oracle.events ||
            t->r.final_time != par_oracle.final_time) {
            std::printf("FAIL: %s diverged from %s — the thread count "
                        "leaked into the schedule\n",
                        t->label.c_str(), par_trials.front()->label.c_str());
            deterministic = false;
            healthy = false;
        }
        if (t->r.kv_completed != oracle.kv_completed ||
            t->r.kv_expected != oracle.kv_expected ||
            t->r.agg_pairs_sent != oracle.agg_pairs_sent ||
            t->r.agg_pairs_received != oracle.agg_pairs_received ||
            t->r.echo_messages != oracle.echo_messages ||
            t->r.echo_expected != oracle.echo_expected) {
            std::printf("FAIL: %s workload outcomes diverged from the "
                        "sequential oracle (kv/aggregation/echo)\n",
                        t->label.c_str());
            deterministic = false;
            healthy = false;
        }
    }

    // Steady state (warm pool): frames ride recycled slabs and every
    // per-frame closure fits a queue slot inline.
    if (warm == nullptr) {
        std::puts("FAIL: no warm fast trial completed");
        healthy = false;
    } else {
        if (warm->frame_heap_allocs != 0) {
            std::printf("FAIL: warm run heap-allocated %llu frame slabs\n",
                        static_cast<unsigned long long>(warm->frame_heap_allocs));
            healthy = false;
        }
        if (warm->boxed_actions > warm->boxed_allowance) {
            std::printf("FAIL: %llu heap-boxed event closures (allowance %llu "
                        "for round setup)\n",
                        static_cast<unsigned long long>(warm->boxed_actions),
                        static_cast<unsigned long long>(warm->boxed_allowance));
            healthy = false;
        }
    }

    // Workload sanity: the closed loop completed everything, the
    // aggregation delivered, and (at full scale) the run was actually
    // macro-sized.
    for (const Trial& t : trials) {
        const RunResult* r = &t.r;
        if (r->kv_completed != r->kv_expected) {
            std::printf("FAIL: kv run completed %llu of %llu requests\n",
                        static_cast<unsigned long long>(r->kv_completed),
                        static_cast<unsigned long long>(r->kv_expected));
            healthy = false;
        }
        if (r->agg_pairs_received == 0 ||
            r->agg_pairs_received >= r->agg_pairs_sent) {
            std::puts("FAIL: aggregation job saw no in-network reduction");
            healthy = false;
        }
        if (r->echo_messages != r->echo_expected) {
            std::printf("FAIL: echo sweep delivered %llu of %llu legs\n",
                        static_cast<unsigned long long>(r->echo_messages),
                        static_cast<unsigned long long>(r->echo_expected));
            healthy = false;
        }
    }
    if (scale >= 1.0 && oracle.events < 1'000'000) {
        std::puts("FAIL: full-scale run executed under a million events");
        healthy = false;
    }

    // The root rate is the best sequential fast trial's (what
    // tools/bench_compare tracks), not a rate over every child trial.
    json.root()
        .integer("events_executed", best_fast.events)
        .number("wall_clock_seconds", best_fast.exec_seconds)
        .number("events_per_sec", fast_eps)
        .integer("threads", 1)
        .number("fast_events_per_sec", fast_eps)
        .number("traced_events_per_sec", traced_eps)
        .number("par1_events_per_sec", par1_eps)
        .number("par4_events_per_sec", par4_eps)
        .number("prof_events_per_sec", prof_eps)
        .number("prof_overhead_pct", 100.0 * prof_overhead)
        .integer("prof_counter_samples", prof_samples)
        .number("parallel_speedup_4t", par_speedup)
        .integer("parallel_gate_enforced", par_gate_active ? 1 : 0)
        .number("tracing_ring_overhead_pct", 100.0 * traced_overhead)
        .integer("deterministic", deterministic ? 1 : 0)
        .integer("warm_frame_heap_allocs",
                 warm != nullptr ? warm->frame_heap_allocs : 0)
        .integer("warm_boxed_actions",
                 warm != nullptr ? warm->boxed_actions : 0);
    json.write();
    std::puts("\nwrote BENCH_sim_throughput.json");
    return healthy ? 0 : 1;
}
