// Machine-readable bench output.
//
// Every figure/ablation harness writes a BENCH_<slug>.json file beside
// its stdout tables so the perf trajectory can be tracked across PRs by
// tooling (CI uploads these as artifacts). Deliberately tiny: flat
// metrics on a root object plus named arrays of flat records.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "netsim/simulator.hpp"
#include "trace/metrics.hpp"
#include "trace/profiler.hpp"

namespace daiet::bench {

inline std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// One flat JSON object; values are stored pre-serialized.
class JsonObject {
public:
    JsonObject& number(const std::string& key, double value) {
        std::ostringstream os;
        os << value;
        return raw(key, os.str());
    }
    JsonObject& integer(const std::string& key, std::uint64_t value) {
        return raw(key, std::to_string(value));
    }
    JsonObject& text(const std::string& key, const std::string& value) {
        return raw(key, "\"" + json_escape(value) + "\"");
    }

    std::string serialize() const {
        std::string out = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i > 0) out += ", ";
            out += "\"" + json_escape(items_[i].first) + "\": " + items_[i].second;
        }
        return out + "}";
    }

private:
    JsonObject& raw(const std::string& key, std::string value) {
        items_.emplace_back(key, std::move(value));
        return *this;
    }
    std::vector<std::pair<std::string, std::string>> items_;
};

class BenchJson {
public:
    /// `slug` names the output file: BENCH_<slug>.json.
    explicit BenchJson(std::string slug) : slug_{std::move(slug)} {
        root_.text("bench", slug_);
        // Build provenance, so a bench trajectory is attributable
        // run-to-run: which commit, which build type, which compiler.
        // The macros come from CMake (see bench/ in CMakeLists.txt);
        // "unknown" keeps JSON written by out-of-tree builds valid.
#ifdef DAIET_GIT_SHA
        config_.text("git_sha", DAIET_GIT_SHA);
#else
        config_.text("git_sha", "unknown");
#endif
#ifdef DAIET_BUILD_TYPE
        config_.text("build_type", DAIET_BUILD_TYPE);
#else
        config_.text("build_type", "unknown");
#endif
#if defined(__clang__)
        config_.text("compiler", std::string{"clang "} + __VERSION__);
#elif defined(__GNUC__)
        config_.text("compiler", std::string{"gcc "} + __VERSION__);
#else
        config_.text("compiler", "unknown");
#endif
    }

    JsonObject& root() { return root_; }

    /// The workload-parameter block every bench must stamp: the knobs
    /// and RNG seeds that produced the results, serialized as a nested
    /// "config" object so bench trajectories are comparable across PRs
    /// (a metric shift means nothing without the config that moved —
    /// or didn't move — with it).
    JsonObject& config() { return config_; }

    /// Append a record to the named array (created on first use).
    JsonObject& push(const std::string& array) {
        for (auto& [name, records] : arrays_) {
            if (name == array) {
                records.emplace_back();
                return records.back();
            }
        }
        arrays_.emplace_back(array, std::vector<JsonObject>{1});
        return arrays_.back().second.back();
    }

    /// Write BENCH_<slug>.json in the current working directory.
    void write() const {
        std::ofstream out{"BENCH_" + slug_ + ".json"};
        std::string body = root_.serialize();
        body.pop_back();  // reopen the root object to splice arrays in
        body += ", \"config\": " + config_.serialize();
        for (const auto& [name, records] : arrays_) {
            body += ", \"" + json_escape(name) + "\": [";
            for (std::size_t i = 0; i < records.size(); ++i) {
                if (i > 0) body += ", ";
                body += records[i].serialize();
            }
            body += "]";
        }
        // Splice in the process-wide metrics registry when anything
        // published into it: every BENCH_*.json then carries the run's
        // counters and latency distributions alongside the bench's own
        // numbers, at zero per-bench plumbing.
        if (!trace::metrics().empty()) {
            body += ", \"metrics\": " + trace::metrics().to_json();
        }
        out << body << "}\n";
    }

private:
    std::string slug_;
    JsonObject root_;
    JsonObject config_;
    std::vector<std::pair<std::string, std::vector<JsonObject>>> arrays_;
};

/// Writes a self-profile's summary onto the root as the prof_* fields.
inline void stamp_profile(BenchJson& json, const trace::Profiler::Report& prof) {
    json.root()
        .integer("prof_wall_ns", prof.wall_ns)
        .integer("prof_exec_ns", prof.exec_ns)
        .integer("prof_barrier_ns", prof.barrier_ns)
        .integer("prof_drain_ns", prof.drain_ns)
        .number("prof_utilization_min", prof.utilization_min)
        .number("prof_utilization_max", prof.utilization_max)
        .number("prof_imbalance", prof.imbalance);
}

/// Stamps simulator speed onto a bench's JSON so sim throughput is
/// tracked PR-over-PR across every bench, not just the dedicated
/// macro-bench. Captures wall-clock and the process-wide event counter
/// at construction — build it first thing in main() so every simulated
/// event the bench drives is covered — then stamp() writes
/// events_executed, wall_clock_seconds and derived events_per_sec onto
/// the root object. Wall-clock includes setup/teardown around the sim
/// loops, so treat events_per_sec here as a trend signal; the controlled
/// number lives in BENCH_sim_throughput.json, which stamps these fields
/// from its best sequential trial instead.
class SimSpeedMeter {
public:
    SimSpeedMeter()
        : start_{std::chrono::steady_clock::now()},
          start_events_{sim::Simulator::process_events_executed()} {}

    void stamp(BenchJson& json) const {
        const std::uint64_t events =
            sim::Simulator::process_events_executed() - start_events_;
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();
        // Every bench stamped here drives the sequential simulator.
        json.root()
            .integer("events_executed", events)
            .number("wall_clock_seconds", seconds)
            .number("events_per_sec",
                    seconds > 0 ? static_cast<double>(events) / seconds : 0.0)
            .integer("threads", 1);
        // When the bench ran with the self-profiler on, the utilization
        // breakdown lands next to sim_speed: the root gets the summary,
        // publish() puts the per-shard exec/barrier/drain split into the
        // spliced "metrics" array.
        if (trace::profiling()) {
            stamp_profile(json, trace::profiler().report());
            trace::profiler().publish();
        }
    }

private:
    std::chrono::steady_clock::time_point start_;
    std::uint64_t start_events_;
};

}  // namespace daiet::bench
