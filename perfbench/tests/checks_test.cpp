// Feeds every output check of the benchmark a correct result, then a
// corrupted one, and expects the check to pass the first and fail the
// second. Exits non-zero on the first check that does not.
#include <cstdio>
#include <cstdlib>

#include "checks.hpp"

namespace {

using namespace daiet;
using namespace perfbench::checks;

int failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

void wordcount() {
    WordCounts expected;
    count_words("apple pear apple  fig", expected);
    expect(expected.size() == 3 && expected["apple"] == 2, "tokenizer counts words");
    std::vector<std::pair<std::string, std::int64_t>> out{
        {"apple", 2}, {"fig", 1}, {"pear", 1}};
    expect(wordcount_failures(expected, out) == 0, "wordcount accepts the right counts");
    auto wrong = out;
    wrong[0].second = 3;
    expect(wordcount_failures(expected, wrong) == 2, "wordcount flags a wrong count");
    auto missing = out;
    missing.pop_back();
    expect(wordcount_failures(expected, missing) == 1, "wordcount flags a missing word");
    auto extra = out;
    extra.emplace_back("plum", 4);
    expect(wordcount_failures(expected, extra) == 4, "wordcount flags an extra word");
    auto twice = out;
    twice.push_back(out[1]);
    expect(wordcount_failures(expected, twice) > 0, "wordcount flags a duplicate word");
}

std::vector<kv::KvOpSpec> op_stream() {
    const Key16 a = kv::KvService::key_of(3);
    const Key16 b = kv::KvService::key_of(4);
    return {{true, a, 0, 0}, {false, a, 77, 0}, {true, a, 0, 0}, {true, b, 0, 0}};
}

std::vector<Answer> serial_answers() {
    return {{1, true, kv::KvService::preload_value_of(3)},
            {1, false, 0},
            {1, true, 77},
            {1, true, kv::KvService::preload_value_of(4)}};
}

void kv_replay() {
    const auto ops = op_stream();
    const auto expected = replay_gets(ops);
    expect(kv_replay_failures(ops, expected, serial_answers()) == 0,
           "replay accepts serial values");
    auto stale = serial_answers();
    stale[2].value = kv::KvService::preload_value_of(3);
    expect(kv_replay_failures(ops, expected, stale) == 1, "replay flags a stale read");
    auto unanswered = serial_answers();
    unanswered[1].replies = 0;
    expect(kv_replay_failures(ops, expected, unanswered) == 1,
           "replay flags an unanswered request");
    auto duplicated = serial_answers();
    duplicated[3].replies = 2;
    expect(kv_replay_failures(ops, expected, duplicated) == 1,
           "replay flags a request answered twice");
    auto not_found = serial_answers();
    not_found[0].found = false;
    expect(kv_replay_failures(ops, expected, not_found) == 1, "replay flags a lost key");
}

void kv_membership() {
    const auto ops = op_stream();
    AllowedValues allowed;
    allow_puts(ops, allowed);
    auto answers = serial_answers();
    // Another writer's interleaving may return the preload after the PUT.
    answers[2].value = kv::KvService::preload_value_of(3);
    expect(kv_membership_failures(ops, allowed, answers) == 0,
           "membership accepts preloaded and written values");
    answers[3].value = 77;  // written to key 3, never to key 4
    expect(kv_membership_failures(ops, allowed, answers) == 1,
           "membership flags a value from another key");
    answers = serial_answers();
    answers[0].replies = 0;
    expect(kv_membership_failures(ops, allowed, answers) == 1,
           "membership flags an unanswered request");
}

void groups() {
    const Key16 k1 = Key16::from_u64(1);
    const Key16 k2 = Key16::from_u64(2);
    const GroupSums expected = sum_pairs({{k2, 5}, {k1, 1}, {k2, 7}});
    const GroupSums right{{k1, 1}, {k2, 12}};
    expect(expected == right, "sum_pairs sums per key in key order");
    expect(group_failures(expected, right, 3) == 0, "groups accept the right sums");
    GroupSums wrong = right;
    wrong[1].value = 11;
    expect(group_failures(expected, wrong, 3) == 3, "groups flag a wrong sum");
    expect(group_failures(expected, {right[0]}, 3) == 3, "groups flag a missing key");
}

void echo() {
    // 2 pairs, 5 legs: initiators receive 2 legs each, peers 3.
    const std::vector<std::uint64_t> right{2, 2, 3, 3};
    expect(echo_failures(right, 2, 5) == 0, "echo accepts exact leg counts");
    expect(echo_failures({2, 2, 3, 2}, 2, 5) == 1, "echo flags a missing leg");
    expect(echo_failures({2, 3, 3, 3}, 2, 5) == 1, "echo flags an extra leg");
}

void determinism() {
    expect(determinism_violations({7, 7, 7}) == 0, "determinism accepts equal digests");
    expect(determinism_violations({7, 7, 8}) == 1, "determinism flags a differing rep");
}

}  // namespace

int main() {
    wordcount();
    kv_replay();
    kv_membership();
    groups();
    echo();
    determinism();
    if (failures == 0) std::puts("all checks catch their corrupted results");
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
