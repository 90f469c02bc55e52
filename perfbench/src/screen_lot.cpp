// screen_lot: the production-throughput path.  Lot after lot of a
// lot-scale screening manifest streams through shard::unit_stream on one
// nproc-thread pool; every record is appended to a lot_store at the
// production flush cadence, read back and compared with what was
// delivered.  One request is one lot, from stream creation to its last
// record verified on disk.
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "shard/unit_stream.hpp"
#include "store/lot_store.hpp"
#include "store/record_io.hpp"
#include "store/records.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

using bistna::shard::lot_manifest;
using bistna::store::record;

constexpr std::uint64_t kDicePerLot = 768;
constexpr std::size_t kLanes = 16;
constexpr std::size_t kFlushInterval = 32; // the shard worker's cadence

struct lot_outcome {
    double seconds = 0.0;
    std::uint64_t verified = 0;
    std::uint64_t failed = 0;
    double drain_ns = 0.0;  ///< blocked in unit_stream::next()
    double append_ns = 0.0; ///< in lot_store::append
    double scan_ns = 0.0;   ///< in record_reader::next on read-back
    std::string problem;
    std::vector<record> delivered;
};

double ns_since(steady::time_point start) { return seconds_since(start) * 1e9; }

lot_outcome run_one_lot(const lot_manifest& manifest,
                        const std::shared_ptr<bistna::core::job_queue>& queue,
                        const std::string& store_path) {
    lot_outcome out;
    out.delivered.reserve(manifest.dice);
    const auto start = steady::now();
    {
        bistna::shard::unit_stream stream(manifest, 0, manifest.dice, queue);
        bistna::store::lot_store_options store_options;
        store_options.flush_interval = kFlushInterval;
        auto store = bistna::store::lot_store::create(store_path, store_options);
        for (;;) {
            auto t = steady::now();
            auto item = stream.next();
            out.drain_ns += ns_since(t);
            if (!item) {
                break;
            }
            if (item->unit != out.delivered.size()) {
                out.problem = "unit " + std::to_string(item->unit) + " delivered out of order";
            }
            t = steady::now();
            store.append(item->record);
            out.append_ns += ns_since(t);
            out.delivered.push_back(std::move(item->record));
        }
        store.flush();
        if (stream.error() != nullptr) {
            out.problem = "the stream reported a worker error";
        }
    }
    std::vector<record> back;
    back.reserve(out.delivered.size());
    {
        bistna::store::record_reader reader(store_path);
        for (;;) {
            const auto t = steady::now();
            auto r = reader.next();
            out.scan_ns += ns_since(t);
            if (!r) {
                break;
            }
            back.push_back(std::move(*r));
        }
    }
    out.seconds = seconds_since(start);

    const record_check check = check_records(out.delivered, back);
    const std::uint64_t undelivered = manifest.dice - out.delivered.size();
    out.failed = undelivered + check.failed_units() + (out.problem.empty() ? 0 : 1);
    out.failed = std::min<std::uint64_t>(out.failed, manifest.dice);
    out.verified = manifest.dice - out.failed;
    if (out.problem.empty() && !check.ok()) {
        out.problem = "read-back: " + check.first_problem;
    }
    if (out.problem.empty() && undelivered > 0) {
        out.problem = std::to_string(undelivered) + " dice never delivered";
    }
    return out;
}

struct window_totals {
    double seconds = 0.0;      ///< wall time of the whole window
    double lot_seconds = 0.0;  ///< summed lot latencies
    std::uint64_t dice = 0;
    std::uint64_t verified = 0;
    double drain_ns = 0.0, append_ns = 0.0, scan_ns = 0.0;
    std::vector<double> latencies_ms;
};

/// Lots back to back until `seconds` of wall time are spent.
window_totals run_window(double seconds, const lot_manifest& base, std::uint64_t& next_lot,
                         const std::shared_ptr<bistna::core::job_queue>& queue,
                         const std::string& store_path, seed_stream& picks,
                         std::vector<oracle_sample>& samples, workload_result& result) {
    window_totals w;
    const auto start = steady::now();
    while (seconds_since(start) < seconds) {
        lot_manifest m = base;
        m.first_seed = base.first_seed + next_lot++ * kDicePerLot;
        lot_outcome lot = run_one_lot(m, queue, store_path);
        w.lot_seconds += lot.seconds;
        w.latencies_ms.push_back(lot.seconds * 1e3);
        w.dice += m.dice;
        w.verified += lot.verified;
        w.drain_ns += lot.drain_ns;
        w.append_ns += lot.append_ns;
        w.scan_ns += lot.scan_ns;
        if (!lot.problem.empty()) {
            result.fail_check("lot at die seed " + std::to_string(m.first_seed) + ": " +
                                  lot.problem,
                              lot.failed);
        }
        const std::uint64_t pick = picks.below(m.dice);
        if (pick < lot.delivered.size()) {
            samples.push_back(oracle_sample{m, pick, {lot.delivered[pick]}});
        }
    }
    w.seconds = seconds_since(start);
    result.attempted += w.dice;
    return w;
}

} // namespace

void run_screen_lot(const run_options& options, workload_result& result) {
    const lot_manifest base =
        lot_scale_manifest(options.seed, kDicePerLot, options.nproc, kLanes);
    const std::string store_path = options.run_dir + "/lot.store";
    seed_stream picks(options.seed, 0x5C4EE7);
    std::vector<oracle_sample> samples;
    std::uint64_t next_lot = 1; // lot 0 is the warm pass

    // Set-up: the pool, then one warm lot (stimulus cache, demod tables,
    // calibration snapshots, arenas, store file) -- timed setup_repeats times.
    std::vector<double> setups;
    std::shared_ptr<bistna::core::job_queue> queue;
    lot_outcome warm;
    for (int i = 0; i < setup_repeats; ++i) {
        queue.reset();
        const auto start = steady::now();
        queue = std::make_shared<bistna::core::job_queue>(options.nproc);
        warm = run_one_lot(base, queue, store_path);
        setups.push_back(seconds_since(start));
        result.attempted += base.dice;
        if (!warm.problem.empty()) {
            result.fail_check("warm lot: " + warm.problem, warm.failed);
        }
    }
    std::uint64_t failing = 0;
    for (const auto& r : warm.delivered) {
        failing += bistna::store::report_from_record(r).report.passed ? 0 : 1;
    }
    // The oracle re-screens the whole warm lot (every lane position of
    // every group) plus one seeded die of each lot of the window.
    samples.push_back(oracle_sample{base, 0, std::move(warm.delivered)});
    result.notes.push_back("lot: " + std::to_string(kDicePerLot) + " dice, " +
                           std::to_string(options.nproc) + " threads x " +
                           std::to_string(kLanes) + " lanes, " +
                           std::to_string(failing) + " failing in the warm lot");

    if (!options.trace) {
        const window_totals w = run_window(options.seconds, base, next_lot, queue,
                                           store_path, picks, samples, result);
        result.set("peak_rss_mb", peak_rss_mb());
        result.set("setup_s", median(setups));
        result.set("dice_per_s", static_cast<double>(w.verified) / w.seconds);
        set_request_latency(result, w.latencies_ms, "lots");
    } else {
        const window_totals plain = run_window(options.seconds / 2, base, next_lot, queue,
                                               store_path, picks, samples, result);
        window_totals traced;
        const traced_stretch stretch = run_traced(false, [&] {
            traced = run_window(options.seconds / 2, base, next_lot, queue, store_path, picks,
                                samples, result);
        });
        trace_totals totals;
        totals.ingest(stretch.snapshot);

        const auto dice = static_cast<double>(traced.dice);
        add_module_metrics(result, totals, dice, traced.seconds, options.nproc, "die");
        result.set("core.cpu_util",
                   stretch.cpu_s / (traced.seconds * static_cast<double>(options.nproc)));
        result.set("core.drain_wait_us", per_unit_us(traced.drain_ns, dice));
        result.set("store.append_us", per_unit_us(traced.append_ns, dice));
        result.set("store.scan_us", per_unit_us(traced.scan_ns, dice));
        result.set("store.bytes_per_die",
                   static_cast<double>(totals.counter("store.bytes")) / dice);
        result.set("telemetry.overhead_ratio", (traced.lot_seconds / dice) /
                                                   (plain.lot_seconds / plain.dice));
        check_items(result, totals, traced.dice);
    }

    check_oracle(result, samples, options.nproc);
}

} // namespace perfbench
