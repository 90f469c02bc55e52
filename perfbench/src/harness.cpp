#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include <sys/resource.h>

#include "shard/unit_stream.hpp"

namespace perfbench {

namespace {

double read_status_kib(const char* field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            return std::stod(line.substr(key.size()));
        }
    }
    return 0.0;
}

double timeval_seconds(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

double peak_rss_mb() { return read_status_kib("VmHWM") / 1024.0; }

double cpu_seconds(bool children) {
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    double total = timeval_seconds(self.ru_utime) + timeval_seconds(self.ru_stime);
    if (children) {
        rusage kids{};
        getrusage(RUSAGE_CHILDREN, &kids);
        total += timeval_seconds(kids.ru_utime) + timeval_seconds(kids.ru_stime);
    }
    return total;
}

seed_stream::seed_stream(std::uint64_t seed, std::uint64_t purpose) : state_(seed) {
    std::uint64_t mix = purpose * 0xD6E8FEB86659FD93ULL;
    state_ ^= splitmix64(mix);
}

std::uint64_t seed_stream::next() { return splitmix64(state_); }

std::uint64_t seed_stream::below(std::uint64_t bound) { return next() % bound; }

double seed_stream::unit() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

bistna::shard::lot_manifest lot_scale_manifest(std::uint64_t seed, std::uint64_t dice,
                                               std::size_t threads,
                                               std::size_t batch_lanes) {
    seed_stream draws(seed, 0x107);
    bistna::shard::lot_manifest m;
    m.workload = bistna::shard::workload_kind::screening;
    m.sigma = 0.035;
    m.periods = 48;
    m.settle_periods = 8;
    m.distortion_periods = 96;
    m.calibration_periods = 1024;
    m.offset = bistna::eval::offset_mode::calibrated;
    m.measure_distortion = true;
    // Manifest integers travel as JSON numbers: keep them below 2^53.
    m.evaluator_seed = 1 + draws.below(std::uint64_t{1} << 40);
    m.first_seed = 1 + draws.below(std::uint64_t{1} << 40);
    m.dice = dice;
    m.threads = threads;
    m.batch_lanes = batch_lanes;
    return m;
}

void check_oracle(workload_result& result, const std::vector<oracle_sample>& samples,
                  std::size_t threads) {
    // All samples are submitted up front so they share the pool's workers.
    const auto queue = std::make_shared<bistna::core::job_queue>(threads);
    std::vector<std::unique_ptr<bistna::shard::unit_stream>> streams;
    streams.reserve(samples.size());
    for (const auto& sample : samples) {
        bistna::shard::lot_manifest scalar = sample.manifest;
        scalar.batch_lanes = 1;
        streams.push_back(std::make_unique<bistna::shard::unit_stream>(
            scalar, sample.first_unit, sample.delivered.size(), queue));
    }
    record_check total;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        std::vector<bistna::store::record> expected;
        while (auto item = streams[i]->next()) {
            expected.push_back(std::move(item->record));
        }
        const record_check check = check_records(expected, samples[i].delivered);
        total.compared += check.compared + check.extra;
        total.mismatched += check.mismatched;
        total.missing += check.missing + check.extra;
        if (total.first_problem.empty() && !check.ok()) {
            total.first_problem = "die seed " +
                                  std::to_string(samples[i].manifest.record_id(
                                      samples[i].first_unit)) +
                                  " onwards: " + check.first_problem;
        }
    }
    result.notes.push_back("oracle: " + std::to_string(total.compared) +
                           " delivered dice re-screened at batch_lanes = 1");
    if (!total.ok()) {
        result.fail_check("oracle: " + total.first_problem, total.failed_units());
    }
}

void set_request_latency(workload_result& result, const std::vector<double>& latencies_ms,
                         const std::string& requests) {
    const double p50 = median(latencies_ms);
    const auto tail = tail_percentile(latencies_ms);
    result.set("request_p50_ms", p50);
    result.set("request_tail_ms", tail ? tail->value : p50);
    result.notes.push_back(tail ? "request tail: p" + show(tail->percentile, "") + "of " +
                                      std::to_string(tail->samples) + " " + requests
                                : "request tail: fewer than 20 " + requests +
                                      "; the median stands in");
}

void check_items(workload_result& result, const trace_totals& totals, std::uint64_t units) {
    const std::uint64_t items = totals.counter("job_queue.items_computed");
    if (items != units) {
        result.fail_check("core.items " + std::to_string(items) + " != units attempted " +
                              std::to_string(units),
                          0);
    }
}

void trace_totals::ingest(const bistna::telemetry::telemetry_snapshot& snapshot) {
    for (const auto& [name, t] : span_times(snapshot.spans)) {
        auto& acc = spans[name];
        acc.count += t.count;
        acc.total_ns += t.total_ns;
        acc.self_ns += t.self_ns;
    }
    for (const auto& span : snapshot.spans) {
        if (span.name == "svc.request" || span.name == "shard.attempt" ||
            span.name == "shard.merge") {
            instances_ms[span.name].push_back(static_cast<double>(span.duration_ns) / 1e6);
        }
    }
    for (const auto& c : snapshot.counters) {
        counters[c.name] += c.value;
    }
    for (const auto& h : snapshot.histograms) {
        histogram_sums[h.name] += h.sum;
    }
    for (const auto& thread : snapshot.threads) {
        dropped_spans += thread.dropped_spans;
    }
}

std::uint64_t trace_totals::counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

std::uint64_t trace_totals::histogram_sum(const std::string& name) const {
    const auto it = histogram_sums.find(name);
    return it == histogram_sums.end() ? 0 : it->second;
}

void workload_result::fail_check(const std::string& what, std::uint64_t units) {
    checks_passed = false;
    failed += units;
    notes.push_back("CHECK FAILED: " + what);
}

void workload_result::set(const std::string& name, double value) {
    for (auto& m : metrics) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
        for (const auto& spec : *specs) {
            if (name == spec.name) {
                metrics.push_back(metric{name, value, spec.unit});
                return;
            }
        }
    }
    throw std::logic_error("unknown metric " + name);
}

const std::vector<metric_spec>& end_to_end_specs() {
    static const std::vector<metric_spec> specs = {
        {"dice_per_s", "dice/s"},   {"request_p50_ms", "ms"}, {"request_tail_ms", "ms"},
        {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
    };
    return specs;
}

const std::vector<metric_spec>& per_layer_specs() {
    static const std::vector<metric_spec> specs = {
        {"core.task_run_us", "us"},
        {"core.task_wait_us", "us"},
        {"core.items", "count"},
        {"core.stimulus_hit_ratio", "ratio"},
        {"core.drain_wait_us", "us"},
        {"core.cpu_util", "ratio"},
        {"core.bode_points_per_s", "points/s"},
        {"dut.render_us", "us"},
        {"eval.calibrate_us", "us"},
        {"eval.evaluate_us", "us"},
        {"eval.thd_us", "us"},
        {"sd.modulate_us", "us"},
        {"dsp.demod_us", "us"},
        {"store.append_us", "us"},
        {"store.flush_us", "us"},
        {"store.scan_us", "us"},
        {"store.bytes_per_die", "B"},
        {"store.dict_map_ms", "ms"},
        {"diag.build_us", "us"},
        {"diag.classify_us", "us"},
        {"diag.top1_ratio", "ratio"},
        {"diag.dict_items_per_s", "items/s"},
        {"shard.attempt_max_s", "s"},
        {"shard.imbalance", "ratio"},
        {"shard.merge_s", "s"},
        {"shard.retries", "count"},
        {"shard.duplicates_dropped", "count"},
        {"svc.server_request_ms", "ms"},
        {"svc.client_overhead_ms", "ms"},
        {"svc.first_record_ms", "ms"},
        {"svc.decode_us", "us"},
        {"svc.shed_ratio", "ratio"},
        {"telemetry.overhead_ratio", "ratio"},
        {"telemetry.dropped_spans", "count"},
        {"error_ratio", "ratio"},
    };
    return specs;
}

std::string show(double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4g %s", value, unit);
    return buf;
}

void add_module_metrics(workload_result& result, const trace_totals& totals, double units,
                        double traced_wall_s, std::size_t worker_threads,
                        const std::string& unit_name) {
    const auto total_ns = [&](const char* span) {
        const auto it = totals.spans.find(span);
        return it == totals.spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    const auto self_ns = [&](const char* span) {
        const auto it = totals.spans.find(span);
        return it == totals.spans.end() ? 0.0 : static_cast<double>(it->second.self_ns);
    };
    const auto hist_us = [&](const char* name) {
        return per_unit_us(static_cast<double>(totals.histogram_sum(name)), units);
    };

    result.set("core.task_run_us", hist_us("job_queue.task.run_ns"));
    result.set("core.task_wait_us", hist_us("job_queue.task.wait_ns"));
    result.set("core.items", static_cast<double>(totals.counter("job_queue.items_computed")));
    const double hits = static_cast<double>(totals.counter("engine.stimulus.hits"));
    const double misses = static_cast<double>(totals.counter("engine.stimulus.misses"));
    result.set("core.stimulus_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    result.set("dut.render_us", per_unit_us(total_ns("engine.render"), units));
    result.set("eval.calibrate_us", per_unit_us(total_ns("engine.calibrate"), units));
    result.set("eval.evaluate_us", per_unit_us(total_ns("engine.evaluate"), units));
    result.set("eval.thd_us", per_unit_us(total_ns("engine.thd"), units));
    result.set("sd.modulate_us", per_unit_us(total_ns("eval.modulate"), units));
    result.set("dsp.demod_us", per_unit_us(self_ns("engine.evaluate"), units));
    result.set("store.flush_us", hist_us("store.flush_ns"));
    result.set("telemetry.dropped_spans", static_cast<double>(totals.dropped_spans));

    // The per-module table: self time per unit and its share of the
    // worker threads' wall time over the traced stretch.
    const double worker_ns = traced_wall_s * 1e9 * static_cast<double>(worker_threads);
    std::vector<std::pair<std::string, span_time>> rows(totals.spans.begin(),
                                                        totals.spans.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.self_ns > b.second.self_ns;
    });
    char line[160];
    std::snprintf(line, sizeof line, "%-18s %10s %14s %14s %8s", "span", "count",
                  ("self us/" + unit_name).c_str(), ("total us/" + unit_name).c_str(),
                  "share");
    result.notes.push_back("module time over the traced stretch (" +
                           show(units, unit_name.c_str()) + ", " +
                           std::to_string(worker_threads) + " worker threads):");
    result.notes.push_back(line);
    for (const auto& [name, t] : rows) {
        std::snprintf(line, sizeof line, "%-18s %10llu %14.3f %14.3f %7.1f%%", name.c_str(),
                      static_cast<unsigned long long>(t.count),
                      per_unit_us(static_cast<double>(t.self_ns), units),
                      per_unit_us(static_cast<double>(t.total_ns), units),
                      worker_ns > 0.0 ? 100.0 * static_cast<double>(t.self_ns) / worker_ns
                                      : 0.0);
        result.notes.push_back(line);
    }
}

} // namespace perfbench
