#include "kvcache/controller.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace daiet::kv {

namespace {

/// Key16's lexicographic byte order (operator<), on two big-endian
/// words instead of a memcmp call: ties on score fall through to this.
bool key_less(const Key16& a, const Key16& b) noexcept {
    const auto word = [](const Key16& k, std::size_t i) {
        std::uint64_t w = 0;
        std::memcpy(&w, k.bytes().data() + 8 * i, sizeof w);
        if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
        return w;
    };
    const std::uint64_t a0 = word(a, 0);
    const std::uint64_t b0 = word(b, 0);
    return a0 != b0 ? a0 < b0 : word(a, 1) < word(b, 1);
}

/// The ranking both modes use: score-desc, key-asc.
template <typename Record>
bool ranks_before(const Record& a, const Record& b) noexcept {
    if (a.score != b.score) return a.score > b.score;
    return key_less(a.key, b.key);
}

}  // namespace

void KvCacheController::rebalance() {
    ++stats_.rebalances;
    ++window_;
    target_.clear();
    if (hot_source_ == nullptr) {
        select_ewma();
    } else if (!select_sketch()) {
        // An empty telemetry window (no report yet, or one lost on a
        // lossy fabric) carries no information: keep the current hot
        // set instead of evicting it.
        const auto& store = server_->store();
        for (std::size_t s = 0; s < cache_->capacity(); ++s) {
            const Key16& key = cache_->slot_key(s);
            if (key.empty()) continue;
            const auto it = store.find(key);
            if (it == store.end()) continue;  // its range moved away
            target_.push_back({key, it->second,
                               static_cast<std::uint32_t>(cache_->flight_cell(key)),
                               static_cast<std::uint32_t>(s)});
        }
    }

    apply_target();

    // Open the next observation window.
    cache_->reset_hot_counters();
    server_->clear_access_log();
}

void KvCacheController::select_ewma() {
    // Fold this window's two hotness views — a cached key's switch hit
    // counter (plus any server accesses it took while invalidated) and
    // every candidate's misses that reached the server — into the
    // smoothed scores, after aging them.
    const std::uint32_t window = window_;
    const std::size_t slots = cache_->capacity();
    const auto key_of = [this](std::uint32_t i) -> const Key16& { return scored_[i].key; };
    const auto mark_seen = [this, window, &key_of](const Key16& key) {
        const std::uint32_t pos = scored_index_.find(key, key_of);
        if (pos != KeyIndex::kNone) scored_[pos].seen = window;
    };
    for (std::size_t s = 0; s < slots; ++s) {
        if (cache_->slot_hits(s) > 0 && !cache_->slot_key(s).empty()) {
            mark_seen(cache_->slot_key(s));
        }
    }
    for (const auto& [key, count] : server_->access_log()) mark_seen(key);

    for (std::uint32_t i = 0; i < scored_.size(); ++i) {
        Scored& e = scored_[i];
        if (!e.live) continue;
        e.score *= kScoreDecay;
        // A key whose absent streak has swallowed kIdleEvidence
        // score-implied arrivals went completely dead; decay it hard so
        // it cannot shadow warm keys for dozens of windows on
        // yesterday's score. Below that evidence bar, absence is
        // sampling noise at thin request rates (see kIdleDecay in the
        // header).
        if (e.seen == window) {
            e.absent_streak = 0;
        } else {
            ++e.absent_streak;
            const double missed =
                e.score * (1.0 - kScoreDecay) * static_cast<double>(e.absent_streak);
            if (missed >= kIdleEvidence) e.score *= kIdleDecay;
        }
        if (e.score < 1.0 / 64.0) {
            scored_index_.erase(e.key, key_of);
            e.live = false;
            free_.push_back(i);
        }
    }
    std::erase_if(order_, [this](std::uint32_t i) { return !scored_[i].live; });

    const auto fold = [this, &key_of](const Key16& key, double add) -> Scored& {
        const auto id = free_.empty() ? static_cast<std::uint32_t>(scored_.size()) : free_.back();
        const std::uint32_t pos = scored_index_.emplace(key, id, key_of);
        if (pos == id) {
            Scored fresh;
            fresh.key = key;
            fresh.cell = static_cast<std::uint32_t>(cache_->flight_cell(key));
            if (free_.empty()) {
                scored_.push_back(fresh);
            } else {
                scored_[id] = fresh;
                free_.pop_back();
            }
            order_.push_back(id);
        }
        Scored& e = scored_[pos];
        e.score += add;
        return e;
    };
    for (std::size_t s = 0; s < slots; ++s) {
        const Key16& key = cache_->slot_key(s);
        if (key.empty()) continue;
        Scored& e = fold(key, static_cast<double>(cache_->slot_hits(s)));
        e.slot = static_cast<std::uint32_t>(s);
        e.slot_window = window;
    }
    for (const auto& [key, count] : server_->access_log()) {
        fold(key, static_cast<double>(count));
    }

    // Re-rank. Decay scales every score alike, so last window's order
    // only breaks where a view touched a key, a key went idle, or a key
    // is new: one pass finds those few, and a binary search puts each
    // one back in place.
    const auto before = [this](std::uint32_t a, std::uint32_t b) {
        return ranks_before(scored_[a], scored_[b]);
    };
    for (std::size_t i = 1; i < order_.size(); ++i) {
        const std::uint32_t id = order_[i];
        if (!before(id, order_[i - 1])) continue;
        const auto it = order_.begin() + static_cast<std::ptrdiff_t>(i);
        const auto place = std::upper_bound(order_.begin(), it - 1, id, before);
        std::move_backward(place, it, it + 1);
        *place = id;
    }

    // The target hot set: the top-K keys that exist in the store (a
    // missing key has nothing to cache).
    const auto& store = server_->store();
    const std::uint64_t version = server_->key_set_version();
    for (const std::uint32_t id : order_) {
        if (target_.size() >= slots) break;
        Scored& e = scored_[id];
        if (e.score <= 0.0) break;
        if (e.store_version != version) {
            const auto it = store.find(e.key);
            e.value = it == store.end() ? nullptr : &it->second;
            e.store_version = version;
        }
        if (e.value == nullptr) continue;
        target_.push_back({e.key, *e.value, e.cell, e.slot_window == window ? e.slot : kNoSlot});
    }
}

bool KvCacheController::select_sketch() {
    // The telemetry view already ranked this window's heavy hitters;
    // one candidate pool, one scale. A sketch estimate counts a key's
    // GETs at the ToR this window; a cached key's hit counter counts
    // the same thing (the switch served them). Rank the union by
    // whichever view saw the key hotter: freshly hot keys enter on
    // their estimates, warm cached keys defend their slots with their
    // hit counts, and keys gone dead hold neither and fall out.
    const auto hot = hot_source_();
    if (hot.empty()) return false;
    const auto& store = server_->store();
    const std::size_t slots = cache_->capacity();
    candidates_.clear();
    sketch_index_.reset(slots + hot.size());
    const auto key_of = [this](std::uint32_t i) -> const Key16& { return candidates_[i].key; };
    for (std::size_t s = 0; s < slots; ++s) {
        const Key16& key = cache_->slot_key(s);
        if (key.empty()) continue;
        sketch_index_.emplace(key, static_cast<std::uint32_t>(candidates_.size()), key_of);
        candidates_.push_back({static_cast<double>(cache_->slot_hits(s)), key,
                               static_cast<std::uint32_t>(s), nullptr});
    }
    for (const auto& [key, estimate] : hot) {
        const auto it = store.find(key);
        if (it == store.end()) continue;
        const auto next = static_cast<std::uint32_t>(candidates_.size());
        const std::uint32_t pos = sketch_index_.emplace(key, next, key_of);
        if (pos == next) candidates_.push_back({0.0, key, kNoSlot, nullptr});
        Candidate& c = candidates_[pos];
        c.score = std::max(c.score, static_cast<double>(estimate));
        c.value = &it->second;
    }
    // Order only as many candidates as the target still wants (a
    // partial sort); go round again when some of them were turned down.
    ranked_.resize(candidates_.size());
    for (std::size_t i = 0; i < ranked_.size(); ++i) ranked_[i] = static_cast<std::uint32_t>(i);
    const auto before = [this](std::uint32_t a, std::uint32_t b) {
        return ranks_before(candidates_[a], candidates_[b]);
    };
    auto first = ranked_.begin();
    while (target_.size() < slots && first != ranked_.end()) {
        const auto mid = first + std::min<std::ptrdiff_t>(
                                     static_cast<std::ptrdiff_t>(slots - target_.size()),
                                     ranked_.end() - first);
        std::partial_sort(first, mid, ranked_.end(), before);
        for (; first != mid; ++first) {
            const Candidate& c = candidates_[*first];
            const WireValue* value = c.value;
            if (value == nullptr) {  // a cached key the sketch did not report
                const auto it = store.find(c.key);
                if (it == store.end()) continue;  // its range moved away
                value = &it->second;
            }
            target_.push_back({c.key, *value,
                               static_cast<std::uint32_t>(cache_->flight_cell(c.key)), c.slot});
        }
    }
    return true;
}

void KvCacheController::apply_target() {
    const std::size_t slots = cache_->capacity();
    keep_.assign(slots, 0);
    for (const Target& t : target_) {
        if (t.slot != kNoSlot) keep_[t.slot] = 1;
    }
    // Evict cold entries first so their slots are free for promotions.
    for (std::size_t s = 0; s < slots; ++s) {
        if (keep_[s] == 0 && !cache_->slot_key(s).empty()) {
            cache_->erase_slot(s);
            ++stats_.evictions;
        }
    }

    // (Re-)install every target key. For already-cached keys this
    // refreshes the snapshot and repairs collision-stuck pending
    // counters; keys with writes in flight go in as shadow entries
    // that the final ACK validates (see KvCacheSwitchProgram::insert).
    //
    // Then self-healing for wedged in-flight state. write_flight_
    // residue — a write abandoned before any of its ACKs crossed the
    // switch, or a dedup-filter cell overwritten between a PUT and its
    // retransmission — never drains in the dataplane and would block
    // promotion of every key hashing onto the cell forever. Live
    // writes clear within a client's RTO budget, well inside one
    // rebalance window, so a wanted key still blocked after
    // kStuckWindows consecutive windows is wedged: wipe the flight
    // state (safe at any time; slots re-validate from their next
    // original ACK or the next rebalance).
    const auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
    bool wedged = false;
    still_blocked_.clear();
    for (const Target& t : target_) {
        const std::uint32_t inflight = cache_->writes_in_flight(t.cell);
        if (t.slot != kNoSlot) {
            cache_->refresh(t.slot, t.value, inflight);
        } else if (cache_->install(t.key, t.value, inflight)) {
            ++stats_.promotions;
            if (inflight != 0) ++stats_.shadow_promotions;
        }
        if (inflight == 0) continue;
        const std::pair<Key16, std::uint32_t> probe{t.key, 0};
        const auto it = std::lower_bound(blocked_streak_.begin(), blocked_streak_.end(),
                                         probe, by_key);
        const std::uint32_t streak =
            (it != blocked_streak_.end() && it->first == t.key ? it->second : 0) + 1;
        still_blocked_.emplace_back(t.key, streak);
        wedged |= streak >= kStuckWindows;
    }
    std::sort(still_blocked_.begin(), still_blocked_.end(), by_key);
    blocked_streak_.swap(still_blocked_);
    if (wedged) {
        cache_->reset_flight_state();
        blocked_streak_.clear();
        ++stats_.flight_resets;
    }
}

}  // namespace daiet::kv
