// Shared pieces of the repository benchmark: the workload interface,
// the span ledger of the traced pass, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/framebuf.hpp"
#include "netsim/host.hpp"
#include "netsim/network.hpp"
#include "netsim/time.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Link deliveries over the whole fabric, both directions.
inline std::uint64_t frame_hops(const daiet::sim::Network& net) {
    std::uint64_t hops = 0;
    for (const auto& link : net.links()) {
        hops += link->stats(0).frames_delivered + link->stats(1).frames_delivered;
    }
    return hops;
}

/// Frame slabs the pool had to take from the heap since `before`.
inline std::uint64_t frame_heap_allocs_since(const daiet::FramePoolStats& before) {
    const daiet::FramePoolStats now = daiet::FrameBuf::pool_stats();
    return (now.slab_allocs + now.oversize_allocs) -
           (before.slab_allocs + before.oversize_allocs);
}

/// Frames delivered into switches: the number of switch pipeline passes.
inline std::uint64_t switch_arrivals(daiet::sim::Network& net) {
    std::uint64_t n = 0;
    for (const auto& link : net.links()) {
        for (int side = 0; side < 2; ++side) {
            if (dynamic_cast<daiet::sim::Host*>(&link->peer_of(side)) == nullptr) {
                n += link->stats(side).frames_delivered;
            }
        }
    }
    return n;
}

/// Order-sensitive FNV-1a digest of a workload's simulated outputs: two
/// repetitions of one seed must produce the same digest.
struct Signature {
    std::uint64_t h{0xcbf29ce484222325ULL};

    void bytes(std::span<const std::byte> data) noexcept {
        for (const std::byte b : data) {
            h ^= static_cast<std::uint64_t>(b);
            h *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void value(const T& v) noexcept {
        static_assert(std::is_trivially_copyable_v<T>);
        std::byte buf[sizeof(T)];
        std::memcpy(buf, &v, sizeof(T));
        bytes(buf);
    }
};

/// Outcome of one timed repetition (or one traced repetition).
struct RepResult {
    double wall_s{0};                  ///< timed phase only
    std::uint64_t ops{0};              ///< application operations completed
    std::uint64_t attempted{0};        ///< operations attempted
    std::uint64_t failed{0};           ///< wrong, missing or abandoned
    std::uint64_t frame_hops{0};       ///< link deliveries, both directions
    std::uint64_t events{0};           ///< simulator events executed
    daiet::sim::SimTime sim_completion{0};
    std::uint64_t sink_payload_bytes{0};
    std::uint64_t signature{0};        ///< digest of the simulated outputs
    /// False when a property of the outputs beyond per-operation
    /// correctness fails (a split that disagrees with its job).
    bool consistent{true};
};

/// Per-layer metric values of the traced pass, by metric name.
using Layers = std::map<std::string, double>;

/// In-memory span ledger of the traced pass.
///
/// Discrete spans (set-up steps, the event loop, reduce) are recorded
/// one by one with their parent. Callback spans, which fire hundreds of
/// thousands of times inside the event loop, are summed per name into
/// the enclosing discrete span instead, so recording them costs two
/// clock reads and no allocation. A layer's self time is its spans'
/// durations minus what their children cover. A disabled ledger records
/// nothing, which gives the untraced reference for trace.overhead.
class Ledger {
public:
    explicit Ledger(bool enabled) : enabled_{enabled} {}

    bool enabled() const noexcept { return enabled_; }

    class Scope {
    public:
        Scope(Ledger& ledger, const char* name) : ledger_{&ledger} {
            if (ledger.enabled_) index_ = ledger.open(name);
        }
        ~Scope() {
            if (index_ >= 0) ledger_->close(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Ledger* ledger_;
        int index_{-1};
    };

    /// Time one callback body and charge it to `name` under the span
    /// that is open when it runs.
    template <typename F>
    void hot(const char* name, F&& body) {
        if (!enabled_) {
            body();
            return;
        }
        const auto t0 = Clock::now();
        body();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                .count());
        for (auto it = hot_.rbegin(); it != hot_.rend(); ++it) {
            if (it->parent == open_ && it->name == name) {
                ++it->count;
                it->ns += ns;
                return;
            }
        }
        hot_.push_back(HotSum{name, open_, 1, ns});
    }

    /// Mark the start and end of one traced repetition (wall clock the
    /// spans are checked against).
    void begin_rep() { rep_t0_ = Clock::now(); }
    void end_rep() { rep_ns_ += ns_since(rep_t0_); }

    /// Self seconds of every discrete span named `name`, plus the
    /// seconds of callback spans of that name.
    double seconds(std::string_view name) const {
        std::uint64_t ns = 0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].name != name) continue;
            ns += spans_[i].t1_ns - spans_[i].t0_ns;
            for (const Span& child : spans_) {
                if (child.parent == static_cast<int>(i)) ns -= child.t1_ns - child.t0_ns;
            }
            for (const HotSum& h : hot_) {
                if (h.parent == static_cast<int>(i)) ns -= h.ns;
            }
        }
        for (const HotSum& h : hot_) {
            if (h.name == name) ns += h.ns;
        }
        return static_cast<double>(ns) * 1e-9;
    }
    /// Share of the repetitions' wall time that no top-level span or
    /// top-level callback covers.
    double unattributed_share() const {
        std::uint64_t covered = 0;
        for (const Span& s : spans_) {
            if (s.parent < 0) covered += s.t1_ns - s.t0_ns;
        }
        for (const HotSum& h : hot_) {
            if (h.parent < 0) covered += h.ns;
        }
        if (rep_ns_ == 0) return 0.0;
        const double share = 1.0 - static_cast<double>(covered) /
                                       static_cast<double>(rep_ns_);
        return std::max(share, 0.0);
    }
    double rep_seconds() const { return static_cast<double>(rep_ns_) * 1e-9; }

    /// Write every span and callback sum as JSON lines.
    void write(const std::string& path) const {
        std::ofstream out{path};
        for (const Span& s : spans_) {
            out << "{\"span\":\"" << s.name << "\",\"parent\":" << s.parent
                << ",\"t0_ns\":" << s.t0_ns << ",\"t1_ns\":" << s.t1_ns << "}\n";
        }
        for (const HotSum& h : hot_) {
            out << "{\"callbacks\":\"" << h.name << "\",\"parent\":" << h.parent
                << ",\"count\":" << h.count << ",\"ns\":" << h.ns << "}\n";
        }
    }

private:
    struct Span {
        const char* name;
        int parent;
        std::uint64_t t0_ns;
        std::uint64_t t1_ns;
    };
    struct HotSum {
        const char* name;
        int parent;
        std::uint64_t count;
        std::uint64_t ns;
    };

    std::uint64_t ns_since(Clock::time_point t0) const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                .count());
    }
    std::uint64_t now_ns() const { return ns_since(origin_); }
    int open(const char* name) {
        spans_.push_back(Span{name, open_, now_ns(), 0});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }
    void close(int index) {
        spans_[static_cast<std::size_t>(index)].t1_ns = now_ns();
        open_ = spans_[static_cast<std::size_t>(index)].parent;
    }

    bool enabled_;
    Clock::time_point origin_{Clock::now()};
    Clock::time_point rep_t0_{};
    std::uint64_t rep_ns_{0};
    int open_{-1};
    std::vector<Span> spans_;
    std::vector<HotSum> hot_;
};

/// The traced pass of one workload: per-layer values plus the cost
/// estimates printed next to netsim.run_s.
struct TraceReport {
    Layers layers;
    RepResult rep;  ///< the traced repetition's outcome (attempted/failed)
    bool correct{true};
    std::vector<std::string> notes;  ///< human-readable lines
    /// Per-unit micro costs times the traced rep's counts: an estimate
    /// of how netsim.run_s divides, as (component, ns).
    std::vector<std::pair<std::string, double>> estimates;
};

/// The traced pass's repetitions: untraced, traced, untraced, traced,
/// so trace.overhead compares like with like. `rep(ledger)` runs one
/// repetition and returns the digest of its simulated outputs; every
/// digest must equal the first, else `consistent` turns false. Returns
/// the wall seconds of the two untraced repetitions together.
template <typename Rep>
double alternate_reps(Ledger& traced, bool& consistent, Rep&& rep) {
    Ledger off{false};
    double untraced_s = 0;
    std::vector<std::uint64_t> digests;
    for (int pass = 0; pass < 2; ++pass) {
        for (Ledger* ledger : {&off, &traced}) {
            const auto t0 = Clock::now();
            ledger->begin_rep();
            digests.push_back(rep(*ledger));
            ledger->end_rep();
            if (!ledger->enabled()) untraced_s += seconds_since(t0);
        }
    }
    for (const std::uint64_t d : digests) consistent = consistent && d == digests.front();
    return untraced_s;
}

/// The per-layer rows every workload fills the same way from its two
/// traced repetitions and the last one's counts.
inline void common_layers(const Ledger& traced, double untraced_s, std::uint64_t hops,
                          std::uint64_t events, std::uint64_t frame_heap_allocs,
                          Layers& layers) {
    for (const char* span : {"inputs.build", "runtime.build", "service.deploy",
                             "netsim.run", "host.app"}) {
        layers[std::string{span} + "_s"] = traced.seconds(span) / 2;
    }
    layers["netsim.ns_per_hop"] =
        ratio(layers["netsim.run_s"] * 1e9, static_cast<double>(hops));
    layers["netsim.events_per_hop"] =
        ratio(static_cast<double>(events), static_cast<double>(hops));
    layers["netsim.frame_heap_allocs"] = static_cast<double>(frame_heap_allocs);
    layers["ledger.unattributed_share"] = traced.unattributed_share();
    layers["trace.overhead"] = ratio(traced.rep_seconds(), untraced_s);
}

class Workload {
public:
    virtual ~Workload() = default;
    /// Build inputs, fabric and deployment from nothing (tearing down
    /// the previous ones) and return the seconds this took. The last
    /// set-up is the one the next run_rep() uses.
    virtual double setup() = 0;
    /// Whether each repetition consumes its set-up (the fabric's state
    /// is spent by one run), so set-up runs again before every rep.
    virtual bool setup_per_rep() const = 0;
    /// Set-ups to take before the first rep, so setup_s is a median.
    virtual std::size_t min_setups() const = 0;
    /// One timed repetition plus the output checks.
    virtual RepResult run_rep() = 0;
    /// The traced pass: spans around the workload's public steps,
    /// module counters, and micro-timed public calls.
    virtual TraceReport trace(const std::string& ledger_path) = 0;
};

std::unique_ptr<Workload> make_wordcount(std::uint64_t seed);
std::unique_ptr<Workload> make_kv_sharded(std::uint64_t seed);
std::unique_ptr<Workload> make_fabric(std::uint64_t seed);

}  // namespace perfbench
