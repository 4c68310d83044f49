// Workload `wordcount`: the paper's §5 Figure 3 DAIET shuffle.
//
// 1.2M words over a 144K vocabulary, 24 mappers and 12 reducers on one
// programmable ToR, shuffled through in-network aggregation. Timed reps
// call the public entry point mr::run_wordcount_job; the traced pass
// splits the job into the public steps it takes (run_wordcount_map,
// ClusterRuntime + JobDriver, RawCollector, reduce_daiet_payloads) and
// checks that the split reproduces the job's simulated outputs.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "common/framebuf.hpp"
#include "mapreduce/collector.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/reduce.hpp"
#include "mapreduce/wordcount.hpp"
#include "micro.hpp"
#include "runtime/job_driver.hpp"

namespace perfbench {

namespace {

using namespace daiet;

/// What the job and its split must agree on: output, data volume at the
/// reducers, simulated duration and switch recirculations.
std::uint64_t outcome_signature(
    const std::vector<std::pair<std::string, std::int64_t>>& output,
    std::uint64_t sink_bytes, std::uint64_t frames_at_reducers,
    sim::SimTime duration, std::uint64_t recirculations) {
    Signature sig;
    for (const auto& [word, count] : output) {
        sig.bytes(std::as_bytes(std::span{word.data(), word.size()}));
        sig.value(count);
    }
    sig.value(sink_bytes);
    sig.value(frames_at_reducers);
    sig.value(duration);
    sig.value(recirculations);
    return sig.h;
}

/// Reducer slots interleave with mapper slots exactly as the job places
/// them, so the split runs the job's fabric.
bool is_reducer_slot(std::size_t i, std::size_t total, std::size_t reducers) {
    return (i + 1) * reducers / total > i * reducers / total;
}

/// One run of the job split into its public steps. The state stays
/// alive after the run so the micro rows can use its chip and tree.
struct Split {
    std::vector<mr::MapOutput> maps;
    std::unique_ptr<rt::ClusterRuntime> runtime;
    std::vector<sim::Host*> mappers;
    std::vector<sim::Host*> reducers;
    std::unique_ptr<rt::JobDriver> driver;
    std::vector<std::unique_ptr<mr::RawCollector>> collectors;
    std::vector<std::pair<std::string, std::int64_t>> output;
    std::uint64_t pairs_shuffled{0};
    std::uint64_t pairs_received{0};
    std::uint64_t sink_bytes{0};
    std::uint64_t frames_at_reducers{0};
    std::uint64_t frame_heap_allocs{0};
    sim::SimTime duration{0};
    bool complete{true};

    std::uint64_t signature() const {
        return outcome_signature(output, sink_bytes, frames_at_reducers, duration,
                                 runtime->total_recirculations());
    }
};

std::unique_ptr<Split> run_split(const mr::Corpus& corpus, std::uint64_t seed,
                                 Ledger& ledger) {
    auto s = std::make_unique<Split>();
    const std::size_t m = corpus.config().num_mappers;
    const std::size_t r = corpus.config().num_reducers;
    const mr::JobOptions job;  // the job's defaults: DAIET on a star
    {
        Ledger::Scope span{ledger, "mapreduce.map"};
        for (std::size_t mi = 0; mi < m; ++mi) {
            s->maps.push_back(mr::run_wordcount_map(corpus.split_text(mi), corpus, r));
            for (const auto& file : s->maps.back().partitions) {
                s->pairs_shuffled += file.record_count();
            }
        }
    }
    {
        Ledger::Scope span{ledger, "runtime.build"};
        rt::ClusterOptions copts;
        copts.topology = job.topology;
        copts.num_hosts = m + r;
        copts.daiet = true;
        copts.config = job.daiet;
        copts.link = job.link;
        copts.seed = seed;
        s->runtime = std::make_unique<rt::ClusterRuntime>(copts);
    }
    {
        Ledger::Scope span{ledger, "service.deploy"};
        for (std::size_t i = 0; i < m + r; ++i) {
            (is_reducer_slot(i, m + r, r) ? s->reducers : s->mappers)
                .push_back(&s->runtime->host(i));
        }
        rt::JobSpec spec;
        spec.name = "wordcount";
        for (std::size_t t = 0; t < r; ++t) {
            rt::JobGroup group;
            group.reducer = s->reducers[t];
            group.mappers = s->mappers;
            spec.groups.push_back(std::move(group));
        }
        s->driver = std::make_unique<rt::JobDriver>(*s->runtime, std::move(spec));
        s->driver->begin_round();
        for (std::size_t i = 0; i < r; ++i) {
            s->collectors.push_back(std::make_unique<mr::RawCollector>(
                *s->reducers[i], job.daiet, s->driver->tree(i),
                s->driver->expected_ends(i)));
        }
    }
    const FramePoolStats pool = FrameBuf::pool_stats();
    {
        Ledger::Scope span{ledger, "runtime.schedule"};
        s->driver->schedule_sends([&](std::size_t group, std::size_t mapper,
                                      MapperSender& tx) {
            ledger.hot("host.app", [&] {
                tx.send_serialized(s->maps[mapper].partitions[group].bytes());
            });
        });
    }
    {
        Ledger::Scope span{ledger, "netsim.run"};
        s->duration = s->driver->run_to_quiescence();
    }
    s->frame_heap_allocs = frame_heap_allocs_since(pool);
    std::vector<std::vector<KvPair>> reduced(r);
    {
        Ledger::Scope span{ledger, "mapreduce.reduce"};
        for (std::size_t i = 0; i < r; ++i) {
            reduced[i] = mr::reduce_daiet_payloads(s->collectors[i]->payloads(),
                                                   AggFnId::kSumI32);
        }
    }
    {
        Ledger::Scope span{ledger, "runtime.collect"};
        for (std::size_t i = 0; i < r; ++i) {
            const mr::RawCollector& c = *s->collectors[i];
            s->complete = s->complete && c.complete() && c.clean();
            s->pairs_received += c.pair_count();
            s->sink_bytes += c.payload_bytes();
            s->frames_at_reducers += s->reducers[i]->counters().frames_rx;
            for (const KvPair& p : reduced[i]) {
                s->output.emplace_back(p.key.to_string(), i32_from_wire(p.value));
            }
        }
        std::sort(s->output.begin(), s->output.end());
    }
    return s;
}

class Wordcount final : public Workload {
public:
    explicit Wordcount(std::uint64_t seed) : seed_{seed} {}

    double setup() override {
        corpus_.reset();
        expected_.clear();
        const auto t0 = Clock::now();
        mr::CorpusConfig cc;  // paper scale: 1.2M words, 144K vocabulary, 24x12
        cc.seed = seed_;
        corpus_ = std::make_unique<mr::Corpus>(cc);
        return seconds_since(t0);
    }
    bool setup_per_rep() const override { return false; }
    std::size_t min_setups() const override { return 7; }

    RepResult run_rep() override {
        prepare_reference();
        mr::JobOptions options;
        options.seed = seed_;
        RepResult out;
        out.attempted = corpus_->config().total_words;  // one map-output pair per word
        const auto t0 = Clock::now();
        mr::JobResult job;
        try {
            job = mr::run_wordcount_job(*corpus_, options);
        } catch (const std::exception&) {
            // The job throws on a lost END or a reducer mismatch: every
            // pair of the rep counts as failed.
            out.wall_s = seconds_since(t0);
            out.failed = out.attempted;
            return out;
        }
        out.wall_s = seconds_since(t0);
        out.ops = job.total_pairs_shuffled;
        out.failed = checks::wordcount_failures(expected_, job.output);
        out.frame_hops = split_hops_;
        out.events = split_events_;
        out.sim_completion = job.sim_duration;
        out.sink_payload_bytes = job.total_payload_bytes_at_reducers();
        out.signature = outcome_signature(job.output, out.sink_payload_bytes,
                                          job.total_frames_at_reducers(),
                                          job.sim_duration, job.switch_recirculations);
        // The split is the job's own steps: it must reproduce its outcome.
        out.consistent = out.signature == split_signature_;
        return out;
    }

    TraceReport trace(const std::string& ledger_path) override;

private:
    /// The benchmark's own word counts, and the split run that supplies
    /// the job's hop count (run once per corpus, untimed).
    void prepare_reference() {
        if (!expected_.empty()) return;
        for (std::size_t mi = 0; mi < corpus_->config().num_mappers; ++mi) {
            checks::count_words(corpus_->split_text(mi), expected_);
        }
        Ledger off{false};
        const auto split = run_split(*corpus_, seed_, off);
        split_hops_ = frame_hops(split->runtime->network());
        split_events_ = split->runtime->network().events_executed();
        split_signature_ = split->signature();
    }

    std::uint64_t seed_;
    std::unique_ptr<mr::Corpus> corpus_;
    checks::WordCounts expected_;
    std::uint64_t split_hops_{0};
    std::uint64_t split_events_{0};
    std::uint64_t split_signature_{0};
};

TraceReport Wordcount::trace(const std::string& ledger_path) {
    TraceReport report;
    Ledger ledger{true};
    std::unique_ptr<Split> last;
    const double untraced_s = alternate_reps(ledger, report.correct, [&](Ledger& l) {
        {
            Ledger::Scope span{l, "teardown"};
            last.reset();
            corpus_.reset();
        }
        {
            Ledger::Scope span{l, "inputs.build"};
            mr::CorpusConfig cc;
            cc.seed = seed_;
            corpus_ = std::make_unique<mr::Corpus>(cc);
        }
        last = run_split(*corpus_, seed_, l);
        report.correct = report.correct && last->complete;
        return last->signature();
    });
    ledger.write(ledger_path);

    // The traced split against the public entry point and the
    // benchmark's own word counts.
    expected_.clear();
    const RepResult job = run_rep();
    report.correct = report.correct && job.consistent;
    report.rep.attempted = job.attempted;
    report.rep.failed = job.failed;

    Split& s = *last;
    sim::Network& net = s.runtime->network();
    const std::uint64_t hops = frame_hops(net);
    const std::uint64_t events = net.events_executed();
    Layers& L = report.layers;
    common_layers(ledger, untraced_s, hops, events, s.frame_heap_allocs, L);
    L["mapreduce.map_pairs_per_s"] =
        ratio(2.0 * static_cast<double>(s.pairs_shuffled), ledger.seconds("mapreduce.map"));
    L["mapreduce.reduce_pairs_per_s"] = ratio(2.0 * static_cast<double>(s.pairs_received),
                                              ledger.seconds("mapreduce.reduce"));
    L["core.daiet.pair_reduction"] = ratio(static_cast<double>(s.pairs_shuffled),
                                           static_cast<double>(s.pairs_received));
    L["dataplane.recirculations"] = static_cast<double>(s.runtime->total_recirculations());
    report.notes.push_back(
        "run_wordcount_job " + std::to_string(job.wall_s) +
        " s vs its split into public steps (one reduce pass, no internal reference) " +
        std::to_string(untraced_s / 2 - L["inputs.build_s"]) +
        " s");

    // Micro rows on the ToR the job ran on, with its trees still leased.
    micro::Targets t;
    const sim::Node* tor = net.edge_switch_of(*s.reducers[0]);
    dp::PipelineSwitch& chip = s.runtime->chip_at(tor->id());
    t.forward_chip = t.daiet_chip = t.kv_chip = &chip;
    t.forward_frames.push_back(
        micro::plain_udp_frame(s.mappers[0]->addr(), s.mappers[1]->addr()));
    const auto records = s.maps[0].partitions[0].all_records();
    t.daiet_frames = micro::daiet_data_frames(
        s.mappers[0]->addr(), s.reducers[0]->addr(), s.driver->tree(0),
        std::vector<KvPair>(records.begin(),
                            records.begin() + std::min<std::size_t>(records.size(), 10'000)),
        mr::JobOptions{}.daiet);
    t.kv_frames.push_back(micro::kv_get_frame(s.mappers[0]->addr(), s.mappers[1]->addr(),
                                              kv::KvService::key_of(0), 1));
    micro::time_rows(t, L);
    report.estimates = {
        {"event queue", L["netsim.queue.ns_per_event"] * static_cast<double>(events)},
        {"switch passes",
         L["core.router.ns_per_forward"] * static_cast<double>(switch_arrivals(net))},
        {"daiet data packets",
         L["core.daiet.ns_per_data_pkt"] * static_cast<double>(s.pairs_shuffled) /
             static_cast<double>(mr::JobOptions{}.daiet.max_pairs_per_packet)},
    };
    return report;
}

}  // namespace

std::unique_ptr<Workload> make_wordcount(std::uint64_t seed) {
    return std::make_unique<Wordcount>(seed);
}

}  // namespace perfbench
