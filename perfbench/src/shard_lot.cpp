// shard_lot: shard::run_lot over nproc single-threaded worker processes
// (this binary, re-entered as the shard worker) on lots of the screen_lot
// shape.  One request is one run_lot call plus the read-back of its merged
// store, which must equal the single-process store byte for byte.  The
// single-process stores are written on the scalar batch_lanes = 1 path,
// so the comparison is also the oracle check, for every die of every lot.
#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker.hpp"
#include "store/record_io.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

using bistna::shard::lot_manifest;

constexpr std::uint64_t kDicePerLot = 1024;
constexpr std::size_t kLanes = 16;
constexpr std::size_t kFlushInterval = 32;
constexpr std::uint64_t kDistinctLots = 4; // lots cycle through this many seed ranges

struct window_totals {
    double seconds = 0.0;
    double lot_seconds = 0.0;
    std::uint64_t dice = 0;
    std::uint64_t verified = 0;
    double scan_ns = 0.0;
    std::uint64_t retries = 0;
    std::uint64_t duplicates = 0;
    std::vector<double> latencies_ms;
    /// steady-clock interval of each lot, to group the coordinator's spans
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lot_intervals;
    std::vector<bistna::telemetry::telemetry_snapshot> worker_snapshots;
};

class shard_runner {
public:
    shard_runner(const run_options& options, workload_result& result)
        : options_(options), result_(result),
          base_(lot_scale_manifest(options.seed, kDicePerLot, 1, kLanes)) {
        supervisor_.worker_command = {options.self_exe, "--perfbench-shard-worker"};
        supervisor_.shards = options.nproc;
        supervisor_.max_processes = options.nproc;
        supervisor_.shard_dir = options.run_dir + "/shards";
        supervisor_.flush_interval = kFlushInterval;
        out_path_ = options.run_dir + "/merged.store";
    }

    lot_manifest lot(std::uint64_t k) const {
        lot_manifest m = base_;
        m.first_seed = base_.first_seed + (k % kDistinctLots) * kDicePerLot;
        return m;
    }

    /// The single-process scalar stores every merged store must equal.
    void write_references() {
        for (std::uint64_t k = 0; k < kDistinctLots; ++k) {
            lot_manifest m = lot(k);
            m.threads = options_.nproc; // neither threads nor lanes change the bytes
            m.batch_lanes = 1;
            bistna::shard::worker_shard_options w;
            w.units = m.dice;
            w.flush_interval = kFlushInterval;
            bistna::shard::run_worker_shard(m, reference_path(k), w);
        }
    }

    std::string reference_path(std::uint64_t k) const {
        return options_.run_dir + "/reference-" + std::to_string(k % kDistinctLots) + ".store";
    }

    /// One run_lot request; returns its latency in seconds.
    double request(std::uint64_t k, window_totals* w, bool sidecars) {
        const lot_manifest m = lot(k);
        supervisor_.telemetry_sidecars = sidecars;
        const std::uint64_t start_ns = bistna::telemetry::now_ns();
        const auto start = steady::now();
        bistna::shard::coordinator_report report;
        try {
            report = bistna::shard::run_lot(m, out_path_, supervisor_);
        } catch (const std::exception& e) {
            result_.attempted += m.dice;
            result_.fail_check("run_lot at die seed " + std::to_string(m.first_seed) + ": " +
                                   e.what(),
                               m.dice);
            return seconds_since(start);
        }
        double scan_ns = 0.0;
        std::vector<bistna::store::record> merged;
        {
            bistna::store::record_reader reader(out_path_);
            for (;;) {
                const auto t = steady::now();
                auto r = reader.next();
                scan_ns += seconds_since(t) * 1e9;
                if (!r) {
                    break;
                }
                merged.push_back(std::move(*r));
            }
        }
        const bool identical = same_file_bytes(out_path_, reference_path(k));
        const double seconds = seconds_since(start);
        workers_peak_mb_ = std::max(workers_peak_mb_, workers_peak_mb(report));

        result_.attempted += m.dice;
        std::uint64_t failed = 0;
        if (!identical || merged.size() != m.dice) {
            const auto reference = bistna::store::record_reader::read_all(reference_path(k));
            const record_check check = check_records(reference, merged);
            failed = std::max<std::uint64_t>(check.failed_units(), 1);
            result_.fail_check("merged store of lot at die seed " + std::to_string(m.first_seed) +
                                   " differs from the single-process scalar store (" +
                                   (check.ok() ? std::string("framing") : check.first_problem) +
                                   ", " + std::to_string(check.failed_units()) + " records)",
                               failed);
        }
        if (w != nullptr) {
            w->lot_seconds += seconds;
            w->latencies_ms.push_back(seconds * 1e3);
            w->dice += m.dice;
            w->verified += m.dice - failed;
            w->scan_ns += scan_ns;
            w->retries += report.shards.retries;
            w->duplicates += report.merge.duplicates_dropped;
            w->lot_intervals.emplace_back(start_ns, bistna::telemetry::now_ns());
            for (auto& s : report.worker_snapshots) {
                w->worker_snapshots.push_back(std::move(s));
            }
        }
        return seconds;
    }

    /// Sum of the lot's worker peaks, as each worker logged it: the fleet
    /// runs all shards at once, so this bounds their joint peak.
    static double workers_peak_mb(const bistna::shard::coordinator_report& report) {
        double total = 0.0;
        const std::string tag = worker_peak_rss_tag;
        for (const auto& attempt : report.shards.attempts) {
            std::ifstream log(attempt.log_path);
            std::string line;
            while (std::getline(log, line)) {
                if (line.rfind(tag, 0) == 0) {
                    total += std::stod(line.substr(tag.size()));
                }
            }
        }
        return total;
    }

    /// The largest workers_peak_mb of any lot so far.
    double workers_peak_mb() const { return workers_peak_mb_; }

    window_totals window(double seconds, bool sidecars) {
        window_totals w;
        const auto start = steady::now();
        while (seconds_since(start) < seconds) {
            request(next_lot_++, &w, sidecars);
        }
        w.seconds = seconds_since(start);
        return w;
    }

private:
    const run_options& options_;
    workload_result& result_;
    lot_manifest base_;
    bistna::shard::supervisor_options supervisor_;
    std::string out_path_;
    std::uint64_t next_lot_ = 1; // lot 0 is the warm pass
    double workers_peak_mb_ = 0.0;
};

} // namespace

void run_shard_lot(const run_options& options, workload_result& result) {
    shard_runner runner(options, result);
    runner.write_references();

    // Set-up: the first fleet run (worker binary paged in, shard directory
    // created) -- timed setup_repeats times.
    std::vector<double> setups;
    for (int i = 0; i < setup_repeats; ++i) {
        setups.push_back(runner.request(0, nullptr, false));
    }
    result.notes.push_back("lot: " + std::to_string(kDicePerLot) + " dice over " +
                           std::to_string(options.nproc) + " worker processes x 1 thread x " +
                           std::to_string(kLanes) + " lanes");

    if (!options.trace) {
        const window_totals w = runner.window(options.seconds, false);
        result.set("peak_rss_mb", peak_rss_mb() + runner.workers_peak_mb());
        result.set("setup_s", median(setups));
        result.set("dice_per_s", static_cast<double>(w.verified) / w.seconds);
        set_request_latency(result, w.latencies_ms, "lots");
        result.notes.push_back("peak_rss_mb: this process plus the largest sum of one "
                               "lot's worker peaks (" + show(runner.workers_peak_mb(), "MiB") +
                               ")");
    } else {
        const window_totals plain = runner.window(options.seconds / 2, false);
        window_totals traced;
        const traced_stretch stretch =
            run_traced(true, [&] { traced = runner.window(options.seconds / 2, true); });
        const auto& coordinator = stretch.snapshot;
        trace_totals totals;
        totals.ingest(coordinator);
        for (const auto& s : traced.worker_snapshots) {
            totals.ingest(s);
        }
        const auto dice = static_cast<double>(traced.dice);
        add_module_metrics(result, totals, dice, traced.seconds, options.nproc, "die");
        result.set("core.cpu_util",
                   stretch.cpu_s / (traced.seconds * static_cast<double>(options.nproc)));
        result.set("store.scan_us", per_unit_us(traced.scan_ns, dice));
        result.set("store.bytes_per_die",
                   static_cast<double>(totals.counter("store.bytes")) / dice);
        result.set("shard.retries", static_cast<double>(traced.retries));
        result.set("shard.duplicates_dropped", static_cast<double>(traced.duplicates));
        result.set("telemetry.overhead_ratio", (traced.lot_seconds / dice) /
                                                   (plain.lot_seconds / plain.dice));

        // The slowest attempt of each lot, and how far it trails the median.
        std::vector<double> slowest;
        std::vector<double> imbalance;
        for (const auto& [from, to] : traced.lot_intervals) {
            std::vector<double> attempts;
            for (const auto& span : coordinator.spans) {
                if (span.name == "shard.attempt" && span.start_ns >= from &&
                    span.start_ns + span.duration_ns <= to) {
                    attempts.push_back(static_cast<double>(span.duration_ns) / 1e9);
                }
            }
            if (!attempts.empty()) {
                const double max = *std::max_element(attempts.begin(), attempts.end());
                slowest.push_back(max);
                imbalance.push_back(max / median(attempts));
            }
        }
        result.set("shard.attempt_max_s", median(slowest));
        result.set("shard.imbalance", median(imbalance));
        const auto merges = totals.instances_ms.find("shard.merge");
        result.set("shard.merge_s",
                   merges == totals.instances_ms.end() ? 0.0 : median(merges->second) / 1e3);
        check_items(result, totals, traced.dice);
    }
    result.notes.push_back("oracle: every merged store compared with the single-process "
                           "batch_lanes = 1 store");
}

} // namespace perfbench
