// The repository benchmark: one workload per process.
//
//   perfbench --workload {wordcount,kv_sharded,fabric} --seed N
//             --seconds S --trace {0,1} [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing, profiling and
// sampling off: set-up is repeated and its median reported, then whole
// repetitions of the workload run until S seconds have passed and the
// medians of their rates are reported. --trace 1 runs the traced pass
// instead and reports the per-layer metrics; its span ledger is written
// to DIR/spans-<workload>.jsonl. Either way every repetition's outputs
// are checked, and the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"

namespace {

using namespace perfbench;

struct Metric {
    const char* name;
    const char* unit;
};

/// Per-layer rows: every traced pass prints all of them, with 0 for a
/// count, ratio or rate whose layer does no work on the workload.
constexpr Metric kLayerMetrics[] = {
    {"inputs.build_s", "s"},
    {"runtime.build_s", "s"},
    {"service.deploy_s", "s"},
    {"mapreduce.map_pairs_per_s", "pairs/s"},
    {"mapreduce.reduce_pairs_per_s", "pairs/s"},
    {"netsim.run_s", "s"},
    {"host.app_s", "s"},
    {"netsim.ns_per_hop", "ns"},
    {"netsim.events_per_hop", "ratio"},
    {"netsim.frame_heap_allocs", "count"},
    {"netsim.queue.ns_per_event", "ns"},
    {"core.router.ns_per_forward", "ns"},
    {"core.daiet.ns_per_data_pkt", "ns"},
    {"core.daiet.pair_reduction", "ratio"},
    {"dataplane.recirculations", "count"},
    {"kvcache.ns_per_get_hit", "ns"},
    {"kvcache.hit_ratio", "ratio"},
    {"kvcache.get_p50_sim_us", "sim_us"},
    {"kvcache.get_p99_sim_us", "sim_us"},
    {"directory.edge_hit_ratio", "ratio"},
    {"directory.nacks", "count"},
    {"directory.invalidations", "count"},
    {"transport.retransmits_per_request", "ratio"},
    {"telemetry.report_frames", "count"},
    {"parallel.speedup", "ratio"},
    {"parallel.barrier_share", "ratio"},
    {"parallel.drain_share", "ratio"},
    {"parallel.events_per_window", "events"},
    {"parallel.imbalance", "ratio"},
    {"ledger.unattributed_share", "ratio"},
    {"trace.overhead", "ratio"},
};

struct Args {
    std::string workload;
    std::uint64_t seed{0};
    double seconds{0};
    int trace{-1};
    std::string out_dir{"."};
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload {wordcount,kv_sharded,"
                 "fabric} --seed N --seconds S --trace {0,1} [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            a.trace = std::atoi(value);
        } else if (flag == "--out-dir") {
            a.out_dir = value;
        } else {
            usage("unknown flag");
        }
    }
    if (argc % 2 == 0) usage("flags take one value each");
    if (a.seconds <= 0) usage("--seconds must be positive");
    if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
    return a;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Printed {
    std::string name;
    double value;
    std::string unit;
};

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Printed>& metrics) {
    for (const Printed& m : metrics) {
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("operations attempted %llu failed %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int run_end_to_end(Workload& w, const Args& a) {
    std::vector<double> setups;
    for (std::size_t i = 0; i < w.min_setups(); ++i) setups.push_back(w.setup());

    std::vector<double> ops_rate;
    std::vector<double> hop_rate;
    std::vector<std::uint64_t> signatures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool consistent = true;
    RepResult last;
    const auto t0 = Clock::now();
    for (;;) {
        last = w.run_rep();
        ops_rate.push_back(ratio(static_cast<double>(last.ops), last.wall_s));
        hop_rate.push_back(ratio(static_cast<double>(last.frame_hops), last.wall_s));
        signatures.push_back(last.signature);
        attempted += last.attempted;
        failed += last.failed;
        consistent = consistent && last.consistent;
        std::fprintf(stderr, "rep %zu: %.4f s, %llu ops, %llu hops, %llu failed\n",
                     ops_rate.size(), last.wall_s,
                     static_cast<unsigned long long>(last.ops),
                     static_cast<unsigned long long>(last.frame_hops),
                     static_cast<unsigned long long>(last.failed));
        if (seconds_since(t0) >= a.seconds) break;
        if (w.setup_per_rep()) setups.push_back(w.setup());
    }
    const bool deterministic = checks::determinism_violations(signatures) == 0;
    std::printf("workload %s seed %llu: %zu reps, %zu set-ups\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), ops_rate.size(), setups.size());
    emit(consistent && deterministic, attempted, failed,
         {{"setup_s", median(setups), "s"},
          {"ops_per_s", median(ops_rate), "ops/s"},
          {"frame_hops_per_s", median(hop_rate), "hops/s"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"},
          {"sim_completion_us", static_cast<double>(last.sim_completion) / 1e3, "sim_us"},
          {"sink_payload_bytes", static_cast<double>(last.sink_payload_bytes), "bytes"}});
    return 0;
}

int run_traced(Workload& w, const Args& a) {
    const std::string ledger_path = a.out_dir + "/spans-" + a.workload + ".jsonl";
    TraceReport r = w.trace(ledger_path);
    std::printf("workload %s seed %llu: traced pass, spans in %s\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), ledger_path.c_str());
    for (const std::string& note : r.notes) std::printf("note: %s\n", note.c_str());
    const double run_s = r.layers["netsim.run_s"];
    std::printf("netsim.run_s %.4f s; micro cost x count estimates:\n", run_s);
    double estimated = 0;
    for (const auto& [what, ns] : r.estimates) {
        estimated += ns * 1e-9;
        std::printf("  %-24s %.4f s (%.0f%% of netsim.run_s)\n", what.c_str(), ns * 1e-9,
                    100.0 * ratio(ns * 1e-9, run_s));
    }
    std::printf("  %-24s %.4f s\n", "sum of estimates", estimated);
    std::vector<Printed> metrics;
    for (const Metric& m : kLayerMetrics) {
        const auto it = r.layers.find(m.name);
        metrics.push_back({m.name, it == r.layers.end() ? 0.0 : it->second, m.unit});
        if (it != r.layers.end()) r.layers.erase(it);
    }
    for (const auto& [name, value] : r.layers) {
        std::fprintf(stderr, "perfbench: workload set unlisted metric %s\n", name.c_str());
        return 1;
    }
    emit(r.correct && r.rep.consistent, r.rep.attempted, r.rep.failed, metrics);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse(argc, argv);
    std::unique_ptr<Workload> w;
    if (a.workload == "wordcount") {
        w = make_wordcount(a.seed);
    } else if (a.workload == "kv_sharded") {
        w = make_kv_sharded(a.seed);
    } else if (a.workload == "fabric") {
        w = make_fabric(a.seed);
    } else {
        usage("unknown workload");
    }
    try {
        return a.trace == 0 ? run_end_to_end(*w, a) : run_traced(*w, a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
