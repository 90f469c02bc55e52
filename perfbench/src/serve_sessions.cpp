// serve_sessions: an in-process svc::service_server on a Unix socket and
// nproc closed-loop svc::client sessions, each submitting small screening
// lots back to back (a tester waits for its lot before the next).  One
// request runs from submit to its done frame; every streamed record must
// equal the unit_stream record of the same manifest.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "shard/unit_stream.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

using bistna::shard::lot_manifest;
using bistna::store::record;

constexpr std::size_t kManifests = 32;
constexpr std::uint64_t kMinDice = 16;
constexpr std::uint64_t kMaxDice = 48;
constexpr std::size_t kSizeSteps = 5; // lot sizes 16, 24, 32, 40, 48
constexpr std::size_t kLanes = 8;

struct session_totals {
    std::uint64_t requests = 0;
    std::uint64_t dice = 0;
    std::uint64_t verified = 0;
    std::uint64_t shed = 0;
    std::uint64_t frames = 0;
    double decode_ns = 0.0;
    std::vector<double> latencies_ms;
    std::vector<double> first_record_ms;
    std::vector<std::string> problems;

    void merge(const session_totals& o) {
        requests += o.requests;
        dice += o.dice;
        verified += o.verified;
        shed += o.shed;
        frames += o.frames;
        decode_ns += o.decode_ns;
        latencies_ms.insert(latencies_ms.end(), o.latencies_ms.begin(), o.latencies_ms.end());
        first_record_ms.insert(first_record_ms.end(), o.first_record_ms.begin(),
                               o.first_record_ms.end());
        problems.insert(problems.end(), o.problems.begin(), o.problems.end());
    }
};

struct window_totals {
    session_totals sessions;
    double seconds = 0.0;
};

class service_bench {
public:
    service_bench(const run_options& options, workload_result& result)
        : options_(options), result_(result), socket_path_(options.run_dir + "/svc.sock") {
        // Sizes are a fixed ladder and every session walks shuffled decks of
        // all manifests, so each seed offers the same mix of work; the seed
        // picks the dice, evaluator seeds and the order.
        for (std::size_t i = 0; i < kManifests; ++i) {
            lot_manifest m = lot_scale_manifest(options.seed, kMinDice, options.nproc, kLanes);
            m.dice = kMinDice + (i % kSizeSteps) * (kMaxDice - kMinDice) / (kSizeSteps - 1);
            m.first_seed += i * 1000;
            manifests_.push_back(m);
        }
        for (std::size_t s = 0; s < options.nproc; ++s) {
            decks_.emplace_back(options.seed, 0x5E55 + s);
            deck_positions_.push_back(kManifests);
            order_.emplace_back(kManifests);
            next_ids_.push_back(0);
        }
    }

    /// unit_stream records of every manifest, computed on one pool.
    void compute_references() {
        const auto queue = std::make_shared<bistna::core::job_queue>(options_.nproc);
        for (const auto& m : manifests_) {
            bistna::shard::unit_stream stream(m, 0, m.dice, queue);
            std::vector<record> records;
            while (auto item = stream.next()) {
                records.push_back(std::move(item->record));
            }
            references_.push_back(std::move(records));
        }
    }

    /// Server start, nproc connects with hello, one warm request each.
    double start() {
        clients_.clear();
        server_.reset();
        const auto begin = steady::now();
        bistna::svc::server_options server_options;
        server_options.listen_path = socket_path_;
        server_options.worker_threads = options_.nproc;
        server_ = std::make_unique<bistna::svc::service_server>(server_options);
        server_->start();
        clients_.resize(options_.nproc);
        std::vector<session_totals> warm(options_.nproc);
        std::vector<std::thread> threads;
        for (std::size_t s = 0; s < options_.nproc; ++s) {
            threads.emplace_back([this, s, &warm] {
                try {
                    clients_[s] = std::make_unique<bistna::svc::client>(socket_path_);
                } catch (const std::exception& e) {
                    warm[s].problems.push_back(std::string("connect: ") + e.what());
                    return;
                }
                request(s, warm[s]);
            });
        }
        for (auto& t : threads) {
            t.join();
        }
        const double seconds = seconds_since(begin);
        for (const auto& w : warm) {
            account(w);
        }
        return seconds;
    }

    window_totals window(double seconds) {
        std::vector<session_totals> per_session(options_.nproc);
        std::vector<std::thread> threads;
        const auto begin = steady::now();
        for (std::size_t s = 0; s < options_.nproc; ++s) {
            threads.emplace_back([this, s, seconds, begin, &per_session] {
                while (seconds_since(begin) < seconds && request(s, per_session[s])) {
                }
            });
        }
        for (auto& t : threads) {
            t.join();
        }
        window_totals w;
        w.seconds = seconds_since(begin);
        for (const auto& s : per_session) {
            w.sessions.merge(s);
            account(s);
        }
        return w;
    }

    void stop() {
        clients_.clear();
        if (server_) {
            server_->stop();
        }
    }

    /// Every manifest in full: each served record equals its reference, so
    /// this puts every served die through the oracle.
    std::vector<oracle_sample> samples() const {
        std::vector<oracle_sample> out;
        for (std::size_t i = 0; i < manifests_.size(); ++i) {
            out.push_back(oracle_sample{manifests_[i], 0, references_[i]});
        }
        return out;
    }

private:
    /// One closed-loop request on session `s`, verified record by record;
    /// false once the session is unusable (hang-up or a transport error).
    bool request(std::size_t s, session_totals& t) {
        if (!clients_[s]) {
            return false; // never connected; reported by start()
        }
        const std::size_t index = next_manifest(s);
        try {
            return request_or_throw(s, index, t);
        } catch (const std::exception& e) {
            ++t.requests;
            t.dice += manifests_[index].dice; // attempted, none verified
            t.problems.push_back("session " + std::to_string(s) + ": " + e.what());
            return false;
        }
    }

    bool request_or_throw(std::size_t s, std::size_t index, session_totals& t) {
        bistna::svc::client& c = *clients_[s];
        const lot_manifest& m = manifests_[index];
        const std::vector<record>& expected = references_[index];
        const std::uint64_t id = ++next_ids_[s];

        const auto begin = steady::now();
        c.submit(id, m);
        std::uint64_t next_unit = 0;
        std::uint64_t good = 0;
        std::string problem;
        bool done = false;
        bool hung_up = false;
        double first_ms = -1.0;
        while (!done) {
            const auto t0 = steady::now();
            auto ev = c.next_event();
            t.decode_ns += seconds_since(t0) * 1e9;
            ++t.frames;
            if (!ev) {
                problem = "server hung up";
                hung_up = true;
                break;
            }
            using kind = bistna::svc::client::event::kind;
            switch (ev->type) {
            case kind::progress:
                break;
            case kind::result:
                if (first_ms < 0.0) {
                    first_ms = seconds_since(begin) * 1e3;
                }
                if (ev->result.request != id || ev->result.unit != next_unit ||
                    next_unit >= expected.size() || !(ev->result.record == expected[next_unit])) {
                    if (problem.empty()) {
                        problem = "record " + std::to_string(ev->result.unit) +
                                  " differs from unit_stream";
                    }
                } else {
                    ++good;
                }
                ++next_unit;
                break;
            case kind::error: {
                using code = bistna::svc::error_code;
                const code e = ev->error.code;
                if (e == code::overloaded || e == code::slow_reader || e == code::idle_timeout) {
                    ++t.shed;
                }
                problem = std::string("error frame: ") + bistna::svc::error_code_name(e) +
                          ": " + ev->error.message;
                done = true;
                break;
            }
            case kind::done:
                done = true;
                break;
            }
        }
        const double ms = seconds_since(begin) * 1e3;
        ++t.requests;
        t.dice += m.dice;
        if (problem.empty() && good != m.dice) {
            problem = std::to_string(m.dice - good) + " dice missing";
        }
        if (problem.empty()) {
            t.verified += m.dice;
            t.latencies_ms.push_back(ms);
            t.first_record_ms.push_back(first_ms);
        } else {
            t.problems.push_back("request on session " + std::to_string(s) + ": " + problem);
        }
        return !hung_up;
    }

    /// The next manifest of session `s`: a fresh seeded shuffle of all
    /// manifests each time the previous one is used up.
    std::size_t next_manifest(std::size_t s) {
        auto& order = order_[s];
        if (deck_positions_[s] == order.size()) {
            for (std::size_t i = 0; i < order.size(); ++i) {
                order[i] = i;
            }
            for (std::size_t i = order.size(); i > 1; --i) {
                std::swap(order[i - 1], order[decks_[s].below(i)]);
            }
            deck_positions_[s] = 0;
        }
        return order[deck_positions_[s]++];
    }

    void account(const session_totals& t) {
        result_.attempted += t.dice;
        result_.failed += t.dice - t.verified;
        for (const auto& p : t.problems) {
            result_.checks_passed = false;
            result_.notes.push_back("CHECK FAILED: " + p);
        }
    }

    const run_options& options_;
    workload_result& result_;
    std::string socket_path_;
    std::vector<lot_manifest> manifests_;
    std::vector<std::vector<record>> references_;
    std::vector<seed_stream> decks_;
    std::vector<std::vector<std::size_t>> order_;
    std::vector<std::size_t> deck_positions_;
    std::vector<std::uint64_t> next_ids_;
    std::unique_ptr<bistna::svc::service_server> server_;
    std::vector<std::unique_ptr<bistna::svc::client>> clients_;
};

} // namespace

void run_serve_sessions(const run_options& options, workload_result& result) {
    service_bench bench(options, result);
    bench.compute_references();

    std::vector<double> setups;
    for (int i = 0; i < setup_repeats; ++i) {
        setups.push_back(bench.start());
    }
    result.notes.push_back(std::to_string(options.nproc) +
                           " closed-loop sessions, lots of " + std::to_string(kMinDice) +
                           " to " + std::to_string(kMaxDice) + " dice x " +
                           std::to_string(kLanes) + " lanes, " + std::to_string(kManifests) +
                           " distinct manifests");

    if (!options.trace) {
        const window_totals w = bench.window(options.seconds);
        result.set("peak_rss_mb", peak_rss_mb());
        bench.stop();
        const auto& s = w.sessions;
        result.set("setup_s", median(setups));
        result.set("dice_per_s", static_cast<double>(s.verified) / w.seconds);
        set_request_latency(result, s.latencies_ms, "requests");
    } else {
        const window_totals plain = bench.window(options.seconds / 2);
        window_totals traced;
        const traced_stretch stretch =
            run_traced(false, [&] { traced = bench.window(options.seconds / 2); });
        bench.stop();
        trace_totals totals;
        totals.ingest(stretch.snapshot);
        const auto& s = traced.sessions;
        const auto requests = static_cast<double>(s.requests);
        add_module_metrics(result, totals, requests, traced.seconds, options.nproc,
                           "request");
        result.set("core.cpu_util",
                   stretch.cpu_s / (traced.seconds * static_cast<double>(options.nproc)));
        const auto server = totals.instances_ms.find("svc.request");
        const double server_ms =
            server == totals.instances_ms.end() ? 0.0 : median(server->second);
        result.set("svc.server_request_ms", server_ms);
        result.set("svc.client_overhead_ms", median(s.latencies_ms) - server_ms);
        result.set("svc.first_record_ms", median(s.first_record_ms));
        result.set("svc.decode_us",
                   s.frames > 0 ? s.decode_ns / 1e3 / static_cast<double>(s.frames) : 0.0);
        result.set("svc.shed_ratio", static_cast<double>(s.shed) / requests);
        result.set("telemetry.overhead_ratio",
                   (traced.seconds / static_cast<double>(s.dice)) /
                       (plain.seconds / static_cast<double>(plain.sessions.dice)));
        check_items(result, totals, s.dice);
    }

    check_oracle(result, bench.samples(), options.nproc);
}

} // namespace perfbench
