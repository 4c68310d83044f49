// Reducer-side final computation, in the two shapes the paper compares:
//
//  * merge_sorted_runs: the classic baseline — each mapper pre-sorts its
//    partition, the reducer k-way merges the sorted runs, combining
//    values of equal keys (what the TCP baseline reducer does);
//  * reduce_pairs: the DAIET-side reducer — the network delivers
//    *unordered*, partially aggregated pairs, so the reducer folds them
//    through a hash table and then sorts the (much smaller) result
//    ("the intermediate results must be sorted at the reducer", §4).
//
// Both are pure functions; benchmarks wrap them in a timer to reproduce
// Figure 3's "Reduce time" box.
#pragma once

#include <functional>
#include <vector>

#include "core/aggregation.hpp"
#include "core/protocol.hpp"

namespace daiet::mr {

/// Hash-aggregate then sort by key.
std::vector<KvPair> reduce_pairs(const std::vector<KvPair>& pairs, AggFnId fn);

/// K-way merge of key-sorted runs, combining equal keys.
std::vector<KvPair> merge_sorted_runs(const std::vector<std::vector<KvPair>>& runs,
                                      AggFnId fn);

/// Sort-based grouping: sort `all` by key, then combine equal adjacent
/// keys in one scan. This is the reducer's grouping step in every mode
/// (the paper's DAIET reducer performs "a complete sort operation", §5;
/// the baselines run the same code on more data).
std::vector<KvPair> sort_scan_combine(std::vector<KvPair> all, AggFnId fn);

/// The complete DAIET-side reduce: deserialize raw DAIET DATA payloads,
/// then sort-scan-combine. This is the function Figure 3 times.
std::vector<KvPair> reduce_daiet_payloads(
    const std::vector<std::vector<std::byte>>& payloads, AggFnId fn);

/// The complete baseline reduce: deserialize fixed-size records from
/// per-mapper byte streams, then sort-scan-combine. Also timed.
std::vector<KvPair> reduce_streams(const std::vector<std::vector<std::byte>>& streams,
                                   AggFnId fn);

/// Ablation variant of the baseline reduce that *exploits* mapper-side
/// sorting: deserialize, then k-way merge the sorted runs (cheaper per
/// item than sorting; see EXPERIMENTS.md ablation A8).
std::vector<KvPair> reduce_sorted_streams(
    const std::vector<std::vector<std::byte>>& streams, AggFnId fn);

/// Deserialize a flat byte stream of fixed-size records.
std::vector<KvPair> parse_record_stream(std::span<const std::byte> stream);

/// Wall-clock one run of the callable, in seconds.
double time_seconds(const std::function<void()>& fn);

}  // namespace daiet::mr
