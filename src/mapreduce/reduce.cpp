#include "mapreduce/reduce.hpp"

#include <algorithm>
#include <chrono>
#include <queue>
#include <unordered_map>

#include "common/contracts.hpp"

namespace daiet::mr {

std::vector<KvPair> reduce_pairs(const std::vector<KvPair>& pairs, AggFnId fn) {
    std::unordered_map<Key16, WireValue> table;
    table.reserve(pairs.size());
    for (const KvPair& p : pairs) {
        const auto [it, inserted] = table.try_emplace(p.key, first_value(fn, p.value));
        if (!inserted) it->second = combine(fn, it->second, p.value);
    }
    std::vector<KvPair> out;
    out.reserve(table.size());
    for (const auto& [key, value] : table) out.push_back(KvPair{key, value});
    std::sort(out.begin(), out.end(),
              [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
    return out;
}

std::vector<KvPair> merge_sorted_runs(const std::vector<std::vector<KvPair>>& runs,
                                      AggFnId fn) {
    struct Cursor {
        const std::vector<KvPair>* run;
        std::size_t pos;
    };
    const auto greater = [](const Cursor& a, const Cursor& b) {
        return (*b.run)[b.pos].key < (*a.run)[a.pos].key;
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap{greater};
    std::size_t total = 0;
    for (const auto& run : runs) {
        DAIET_EXPECTS(std::is_sorted(run.begin(), run.end(),
                                     [](const KvPair& a, const KvPair& b) {
                                         return a.key < b.key;
                                     }));
        total += run.size();
        if (!run.empty()) heap.push(Cursor{&run, 0});
    }

    std::vector<KvPair> out;
    out.reserve(total);
    while (!heap.empty()) {
        Cursor c = heap.top();
        heap.pop();
        const KvPair& p = (*c.run)[c.pos];
        if (!out.empty() && out.back().key == p.key) {
            out.back().value = combine(fn, out.back().value, p.value);
        } else {
            out.push_back(KvPair{p.key, first_value(fn, p.value)});
        }
        if (++c.pos < c.run->size()) heap.push(c);
    }
    return out;
}

std::vector<KvPair> sort_scan_combine(std::vector<KvPair> all, AggFnId fn) {
    std::sort(all.begin(), all.end(),
              [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
    std::vector<KvPair> out;
    out.reserve(all.size() / 4 + 16);
    for (const KvPair& p : all) {
        if (!out.empty() && out.back().key == p.key) {
            out.back().value = combine(fn, out.back().value, p.value);
        } else {
            out.push_back(KvPair{p.key, first_value(fn, p.value)});
        }
    }
    return out;
}

std::vector<KvPair> reduce_daiet_payloads(
    const std::vector<std::vector<std::byte>>& payloads, AggFnId fn) {
    std::vector<KvPair> all;
    for (const auto& payload : payloads) {
        // In-place deserialization (fixed-size pairs make offsets pure
        // arithmetic; same Section-4 property the packetizer relies on).
        DAIET_EXPECTS(payload.size() >= kPreambleSize);
        const auto n = static_cast<std::size_t>(static_cast<std::uint8_t>(payload[5]));
        DAIET_EXPECTS(payload.size() == data_packet_size(n));
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t off = kPreambleSize + i * kPairWireSize;
            KvPair p;
            p.key = Key16{std::span{payload}.subspan(off, Key16::width)};
            WireValue v = 0;
            for (std::size_t b = 0; b < 4; ++b) {
                v = v << 8 | static_cast<WireValue>(payload[off + Key16::width + b]);
            }
            p.value = v;
            all.push_back(p);
        }
    }
    return sort_scan_combine(std::move(all), fn);
}

std::vector<KvPair> parse_record_stream(std::span<const std::byte> stream) {
    DAIET_EXPECTS(stream.size() % kPairWireSize == 0);
    std::vector<KvPair> run;
    run.reserve(stream.size() / kPairWireSize);
    for (std::size_t off = 0; off + kPairWireSize <= stream.size();
         off += kPairWireSize) {
        KvPair p;
        p.key = Key16{stream.subspan(off, Key16::width)};
        WireValue v = 0;
        for (std::size_t b = 0; b < 4; ++b) {
            v = v << 8 | static_cast<WireValue>(stream[off + Key16::width + b]);
        }
        p.value = v;
        run.push_back(p);
    }
    return run;
}

std::vector<KvPair> reduce_streams(const std::vector<std::vector<std::byte>>& streams,
                                   AggFnId fn) {
    std::vector<KvPair> all;
    for (const auto& stream : streams) {
        auto run = parse_record_stream(stream);
        all.insert(all.end(), run.begin(), run.end());
    }
    return sort_scan_combine(std::move(all), fn);
}

std::vector<KvPair> reduce_sorted_streams(
    const std::vector<std::vector<std::byte>>& streams, AggFnId fn) {
    std::vector<std::vector<KvPair>> runs;
    runs.reserve(streams.size());
    for (const auto& stream : streams) {
        runs.push_back(parse_record_stream(stream));
    }
    return merge_sorted_runs(runs, fn);
}

double time_seconds(const std::function<void()>& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

}  // namespace daiet::mr
