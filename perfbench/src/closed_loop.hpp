// Closed-loop kv clients for the benchmark's kv workloads.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "kvcache/store.hpp"
#include "netsim/simulator.hpp"

namespace perfbench {

/// Each client keeps `window` requests in flight and issues the next op
/// of its stream the moment one completes, recording every reply
/// against the op it answers. Reply handlers hold this object's
/// address, so it is neither copied nor moved, and its destructor
/// unbinds them.
class ClosedLoop {
public:
    ClosedLoop(const std::vector<std::vector<daiet::kv::KvOpSpec>>& ops, std::size_t window,
               Ledger& ledger)
        : ops_{&ops}, window_{window}, ledger_{&ledger}, clients_(ops.size()) {}
    ~ClosedLoop() {
        for (Client& c : clients_) {
            if (c.client != nullptr) c.client->on_reply = nullptr;
        }
    }
    ClosedLoop(const ClosedLoop&) = delete;
    ClosedLoop& operator=(const ClosedLoop&) = delete;

    /// Drive stream `ci` through `client`, starting at `at` on `sim` (the
    /// client host's own simulator).
    void start(std::size_t ci, daiet::kv::KvClient& client, daiet::sim::Simulator& sim,
               daiet::sim::SimTime at) {
        Client& c = clients_[ci];
        c.client = &client;
        c.answers.assign((*ops_)[ci].size(), {});
        client.on_reply = [this, ci](const daiet::kv::KvClient::OpRecord& rec) {
            ledger_->hot("host.app", [&] { on_reply(ci, rec); });
        };
        sim.schedule_at(at, [this, ci] { pump(ci); });
    }

    const std::vector<checks::Answer>& answers(std::size_t ci) const {
        return clients_[ci].answers;
    }

private:
    struct Client {
        daiet::kv::KvClient* client{nullptr};
        std::size_t next{0};
        std::size_t inflight{0};
        std::unordered_map<std::uint32_t, std::uint32_t> op_of_req;
        std::vector<checks::Answer> answers;
    };

    void pump(std::size_t ci) {
        Client& c = clients_[ci];
        const auto& ops = (*ops_)[ci];
        while (c.inflight < window_ && c.next < ops.size()) {
            const daiet::kv::KvOpSpec& op = ops[c.next];
            ++c.inflight;
            const std::uint32_t req =
                op.is_get ? c.client->get(op.key) : c.client->put(op.key, op.value);
            c.op_of_req[req] = static_cast<std::uint32_t>(c.next++);
        }
    }

    void on_reply(std::size_t ci, const daiet::kv::KvClient::OpRecord& rec) {
        Client& c = clients_[ci];
        const auto it = c.op_of_req.find(rec.req_id);
        if (it != c.op_of_req.end()) {
            checks::Answer& a = c.answers[it->second];
            ++a.replies;
            a.found = rec.found;
            a.value = rec.value;
        }
        --c.inflight;
        pump(ci);
    }

    const std::vector<std::vector<daiet::kv::KvOpSpec>>* ops_;
    std::size_t window_;
    Ledger* ledger_;
    std::vector<Client> clients_;
};

/// Fold a client's completed requests, in completion order, into `sig`.
inline void sign_replies(const daiet::kv::KvClient& client, Signature& sig) {
    for (const auto& rec : client.log()) {
        sig.value(rec.req_id);
        sig.value(rec.op);
        sig.value(rec.key);
        sig.value(rec.value);
        sig.value(rec.completed);
    }
}

}  // namespace perfbench
