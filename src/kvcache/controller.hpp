// Hot-key cache controller: NetCache's control-plane half.
//
// The dataplane only counts — per-slot hit registers at the switch, a
// per-key access log at the server (every access the cache failed to
// absorb). The controller periodically merges the two views, keeps the
// hottest cache_slots keys cached, and writes values through from the
// server's authoritative store. Promotion/eviction thus never races
// the dataplane's coherence protocol: a newly promoted key starts from
// the server's current value, and a PUT arriving later still
// invalidates it in-line.
//
// Two promotion modes share the install/heal machinery:
//   * EWMA (default): smoothed per-key scores folded from the switch
//     hit counters and the server access log.
//   * sketch-driven: when a hot-key source is set (telemetry — the
//     count-min sketch + heavy-hitter log the ToR keeps over the kv
//     stream), the target hot set is the source's latest window,
//     ranked by sketch estimate. The ToR sees every GET at line rate —
//     hits, misses and keys the EWMA view only learns about a window
//     later — so promotion tracks hot-set drift as fast as the
//     telemetry poll cadence, with no smoothing inertia.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/key_index.hpp"
#include "kvcache/store.hpp"
#include "kvcache/switch_program.hpp"

namespace daiet::kv {

class KvCacheController {
public:
    struct Stats {
        std::uint64_t rebalances{0};
        std::uint64_t promotions{0};
        std::uint64_t evictions{0};
        /// Promotions installed invalid (a write was in flight); the
        /// write's own ACK validates them with the serialized value.
        std::uint64_t shadow_promotions{0};
        /// Times the controller wiped the switch's in-flight state
        /// because promotion stayed blocked across kStuckWindows
        /// rebalances (counter residue from an abandoned write or a
        /// dedup-filter collision — see reset_flight_state()).
        std::uint64_t flight_resets{0};
    };

    /// Keys the promotion target draws from, hottest first (estimate
    /// descending, key ascending on ties). An empty result means "no
    /// fresh information" — the controller keeps the current hot set
    /// rather than evicting everything on a lost telemetry window.
    using HotKeySource =
        std::function<std::vector<std::pair<Key16, std::uint32_t>>()>;

    KvCacheController(KvCacheSwitchProgram& cache, KvStoreServer& server)
        : cache_{&cache}, server_{&server} {}

    /// Switch promotion to sketch-driven mode, fed by an in-network
    /// telemetry view (TelemetryCollector::hot_key_source_for). Pass
    /// nullptr to return to EWMA mode.
    void set_hot_key_source(HotKeySource source) {
        hot_source_ = std::move(source);
    }
    bool sketch_mode() const noexcept { return hot_source_ != nullptr; }

    /// Close the current observation window: compute the target hot
    /// set (EWMA scores or the sketch source's latest window), install
    /// the top-K keys, and reset the window counters. In EWMA mode the
    /// smoothing is what keeps short windows from thrashing the cache —
    /// a hot key's score persists across windows it happens to sit
    /// out. Fully deterministic (score-desc, key-asc tie-break).
    void rebalance();

    const Stats& stats() const noexcept { return stats_; }

    /// Per-window decay of the hotness scores (0 = only the last
    /// window counts, 1 = never forget).
    static constexpr double kScoreDecay = 0.95;

    /// Extra decay for keys that went completely dead. kScoreDecay
    /// alone lets a once-hot key that stops appearing entirely outrank
    /// genuinely warm keys for dozens of windows (0.95^w falls
    /// slowly); a dead key's score now halves every window on top of
    /// the base decay, so demoted-but-dead keys cannot linger above
    /// the promotion threshold. "Dead" must mean more than "absent
    /// this window", though: a smoothed score s implies roughly
    /// s * (1 - kScoreDecay) arrivals per window, so only once a key's
    /// absent streak has swallowed kIdleEvidence expected arrivals is
    /// its silence evidence of death rather than sampling noise —
    /// sparse-but-steady keys in a thin request stream are spared
    /// (halving them on chance absences would collapse the smoothed
    /// ranking into pure recency).
    static constexpr double kIdleDecay = 0.5;
    static constexpr double kIdleEvidence = 3.0;

    /// A wanted key whose hashed in-flight bound stays nonzero for this
    /// many consecutive rebalances is considered wedged by counter
    /// residue, not by live traffic (real in-flight time is bounded by
    /// the clients' RTO budget, far below a rebalance window), and
    /// triggers a reset_flight_state().
    static constexpr std::uint32_t kStuckWindows = 3;

private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffU;

    /// EWMA state of one scored key.
    struct Scored {
        Key16 key{};
        double score{0};
        /// Consecutive windows absent from both hotness views.
        std::uint32_t absent_streak{0};
        /// Last window either view saw the key.
        std::uint32_t seen{0};
        /// The key's flight_cell() (computed once per Scored).
        std::uint32_t cell{0};
        /// The cache slot holding the key, valid when slot_window is
        /// the current window.
        std::uint32_t slot{0};
        std::uint32_t slot_window{0};
        /// false once the score decayed away (the record is free).
        bool live{true};
        /// The key's store entry (nullptr: not in the store), valid
        /// while the store's key_set_version() is `store_version`.
        const WireValue* value{nullptr};
        std::uint64_t store_version{~std::uint64_t{0}};
    };

    /// One key of the window's target hot set.
    struct Target {
        Key16 key{};
        WireValue value{0};
        std::uint32_t cell{0};
        std::uint32_t slot{kNoSlot};  ///< cache slot, when cached
    };

    /// A sketch-driven candidate.
    struct Candidate {
        double score{0};
        Key16 key{};
        std::uint32_t slot{kNoSlot};  ///< cache slot, when cached
        /// The key's store entry, once looked up.
        const WireValue* value{nullptr};
    };

    /// EWMA mode: age and fold the two hotness views into scored_,
    /// then rank them into target_.
    void select_ewma();
    /// Sketch-driven mode: rank the source's window and the cache's
    /// hit counters into target_. False when the window is empty.
    bool select_sketch();
    /// Shared tail of both modes: evict cached keys outside target_,
    /// (re-)install every target key, heal wedged in-flight state.
    void apply_target();

    KvCacheSwitchProgram* cache_;
    KvStoreServer* server_;
    HotKeySource hot_source_;
    /// The current window (stamps Scored::seen and slot_window).
    std::uint32_t window_{0};
    std::vector<Scored> scored_;
    KeyIndex scored_index_;
    /// Dead records of scored_, reused before it grows.
    std::vector<std::uint32_t> free_;
    /// The live records of scored_, ranked score-desc, key-asc as of
    /// the last window.
    std::vector<std::uint32_t> order_;
    /// Consecutive rebalances each wanted key spent blocked by
    /// outstanding_writes(), sorted by key (a key leaves the moment
    /// it unblocks).
    std::vector<std::pair<Key16, std::uint32_t>> blocked_streak_;
    // Per-window scratch, kept to reuse its capacity.
    std::vector<Candidate> candidates_;
    std::vector<std::uint32_t> ranked_;
    std::vector<Target> target_;
    std::vector<std::uint8_t> keep_;
    std::vector<std::pair<Key16, std::uint32_t>> still_blocked_;
    KeyIndex sketch_index_;
    Stats stats_;
};

}  // namespace daiet::kv
