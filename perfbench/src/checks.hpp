// Output checks of the repository benchmark.
//
// Every check compares what the program produced against a result the
// benchmark computes on its own from the generated inputs, never against
// a reference the program itself provides. Each returns the number of
// operations that failed, so a run can report attempted vs failed.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "kvcache/service.hpp"

namespace perfbench::checks {

// ---------------------------------------------------------------- wordcount

using WordCounts = std::unordered_map<std::string, std::int64_t>;

/// Count the words of mapper input splits, tokenizing on spaces.
inline void count_words(std::string_view text, WordCounts& counts) {
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = std::min(text.find(' ', pos), text.size());
        if (end > pos) ++counts[std::string{text.substr(pos, end - pos)}];
        pos = end + 1;
    }
}

/// An operation is one map-output pair. A word whose count is wrong,
/// missing or reported twice fails every pair that carried it; a word
/// that should not exist fails as many pairs as it claims.
inline std::uint64_t wordcount_failures(
    const WordCounts& expected,
    const std::vector<std::pair<std::string, std::int64_t>>& output) {
    std::uint64_t failed = 0;
    std::unordered_map<std::string_view, std::int64_t> got;
    for (const auto& [word, count] : output) {
        if (!got.emplace(word, count).second) {
            failed += static_cast<std::uint64_t>(std::llabs(count));
        }
    }
    for (const auto& [word, count] : expected) {
        const auto it = got.find(word);
        if (it == got.end() || it->second != count) {
            failed += static_cast<std::uint64_t>(count);
        }
    }
    for (const auto& [word, count] : got) {
        if (!expected.contains(std::string{word})) {
            failed += static_cast<std::uint64_t>(std::llabs(count));
        }
    }
    return failed;
}

// ------------------------------------------------------------------- kv

/// The reply a client observed for one op of its stream.
struct Answer {
    std::uint32_t replies{0};  ///< 1 when answered exactly once
    bool found{false};
    daiet::WireValue value{0};
};

/// Serial replay of one client's op stream over the preloaded store:
/// the value each GET must return when the client is the only writer of
/// its keys. Entries for PUTs are unused.
inline std::vector<daiet::WireValue> replay_gets(
    const std::vector<daiet::kv::KvOpSpec>& ops) {
    std::map<daiet::Key16, daiet::WireValue> store;
    std::vector<daiet::WireValue> expected(ops.size(), 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto& op = ops[i];
        if (op.is_get) {
            const auto it = store.find(op.key);
            expected[i] = it != store.end()
                              ? it->second
                              : daiet::kv::KvService::preload_value_of(op.key.to_u64() - 1);
        } else {
            store[op.key] = op.value;
        }
    }
    return expected;
}

/// Single-writer check: every op answered exactly once, every GET found
/// its key with the replayed value.
inline std::uint64_t kv_replay_failures(const std::vector<daiet::kv::KvOpSpec>& ops,
                                        const std::vector<daiet::WireValue>& expected,
                                        const std::vector<Answer>& answers) {
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Answer& a = i < answers.size() ? answers[i] : Answer{};
        if (a.replies != 1 ||
            (ops[i].is_get && (!a.found || a.value != expected[i]))) {
            ++failed;
        }
    }
    return failed;
}

/// Values a GET of each key may legally return when several clients
/// write it: the preload value or any value some client PUT there.
using AllowedValues = std::map<daiet::Key16, std::set<daiet::WireValue>>;

inline void allow_puts(const std::vector<daiet::kv::KvOpSpec>& ops,
                       AllowedValues& allowed) {
    for (const auto& op : ops) {
        auto& values = allowed[op.key];
        values.insert(daiet::kv::KvService::preload_value_of(op.key.to_u64() - 1));
        if (!op.is_get) values.insert(op.value);
    }
}

/// Multi-writer check: every op answered exactly once, every GET found
/// its key with a value that was preloaded or PUT to that key.
inline std::uint64_t kv_membership_failures(const std::vector<daiet::kv::KvOpSpec>& ops,
                                            const AllowedValues& allowed,
                                            const std::vector<Answer>& answers) {
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Answer& a = i < answers.size() ? answers[i] : Answer{};
        bool ok = a.replies == 1;
        if (ok && ops[i].is_get) {
            const auto it = allowed.find(ops[i].key);
            ok = a.found && it != allowed.end() && it->second.contains(a.value);
        }
        if (!ok) ++failed;
    }
    return failed;
}

// ------------------------------------------------------------ aggregation

/// Per-group sums of the produced pairs, sorted by key (the order
/// ReducerReceiver::sorted_result reports).
using GroupSums = std::vector<daiet::KvPair>;

inline GroupSums sum_pairs(const std::vector<daiet::KvPair>& produced) {
    std::map<daiet::Key16, daiet::WireValue> sums;
    for (const auto& p : produced) sums[p.key] += p.value;  // i32 sum, wrapping
    GroupSums out;
    out.reserve(sums.size());
    for (const auto& [key, value] : sums) out.push_back({key, value});
    return out;
}

/// A group whose result differs fails every pair it was sent.
inline std::uint64_t group_failures(const GroupSums& expected, const GroupSums& actual,
                                    std::uint64_t pairs_in_group) {
    return expected == actual ? 0 : pairs_in_group;
}

// ----------------------------------------------------------------- echo

/// Endpoint j < pairs starts a ping-pong of `legs` messages with
/// endpoint j + pairs: the peer receives the odd legs, the initiator the
/// even ones. Every missing or extra leg is one failed operation.
inline std::uint64_t echo_failures(const std::vector<std::uint64_t>& received,
                                   std::size_t pairs, std::uint64_t legs) {
    std::uint64_t failed = 0;
    for (std::size_t j = 0; j < received.size(); ++j) {
        const std::uint64_t want = j < pairs ? legs / 2 : (legs + 1) / 2;
        failed += received[j] > want ? received[j] - want : want - received[j];
    }
    if (received.size() != 2 * pairs) failed += legs;
    return failed;
}

// ----------------------------------------------------------- determinism

/// Repetitions of one seed whose simulated outputs differ from the
/// first repetition's.
inline std::size_t determinism_violations(const std::vector<std::uint64_t>& signatures) {
    std::size_t bad = 0;
    if (signatures.empty()) return bad;
    for (const std::uint64_t s : signatures) bad += s != signatures.front();
    return bad;
}

}  // namespace perfbench::checks
