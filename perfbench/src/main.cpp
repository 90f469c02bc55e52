// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// NAME is screen_lot, characterize, serve_sessions or shard_lot.  The run
// prints notes and every metric by name and unit, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A failed correctness check is reported in that line and makes the exit
// code 1; a run that cannot measure at all exits 2 without a result line.
//
// The binary doubles as the shard worker the shard_lot workload spawns
// (behind --perfbench-shard-worker), so the fleet runs the same build.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "harness.hpp"
#include "shard/worker.hpp"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

const char* arg_value(int argc, char** argv, const char* name) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) {
            return argv[i + 1];
        }
    }
    return nullptr;
}

std::string self_executable() {
    std::error_code ec;
    const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
    return ec ? std::string() : path.string();
}

std::string json_number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int usage() {
    std::fprintf(stderr, "usage: perfbench --workload screen_lot|characterize|"
                         "serve_sessions|shard_lot --seed N --seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--perfbench-shard-worker") == 0) {
            // The worker's own peak goes to its log, where shard_lot reads it.
            const int rc = bistna::shard::worker_main(argc, argv);
            std::printf("%s%.17g\n", worker_peak_rss_tag, peak_rss_mb());
            return rc;
        }
    }

    const char* workload = arg_value(argc, argv, "--workload");
    const char* seed = arg_value(argc, argv, "--seed");
    const char* seconds = arg_value(argc, argv, "--seconds");
    const char* trace = arg_value(argc, argv, "--trace");
    if (workload == nullptr || seed == nullptr || seconds == nullptr || trace == nullptr) {
        return usage();
    }

    // Timings from an unoptimised or instrumented build mean nothing.
    if (kSanitized || !kAssertsOff) {
        std::fprintf(stderr, "perfbench: refusing to measure a %s build (build type %s); "
                             "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     kSanitized ? "sanitizer" : "debug", PERFBENCH_BUILD_TYPE);
        return 2;
    }

    run_options options;
    options.workload = workload;
    try {
        options.seed = std::stoull(seed);
        options.seconds = std::stod(seconds);
    } catch (const std::exception&) {
        return usage();
    }
    options.trace = std::strcmp(trace, "1") == 0;
    if (!(options.seconds > 0.0) || (!options.trace && std::strcmp(trace, "0") != 0)) {
        return usage();
    }
    options.self_exe = self_executable();
    options.nproc = std::max(1u, std::thread::hardware_concurrency());
    options.run_dir = ".bench_run/" + options.workload + "-" + std::to_string(::getpid());

    void (*run)(const run_options&, workload_result&) = nullptr;
    if (options.workload == "screen_lot") {
        run = run_screen_lot;
    } else if (options.workload == "characterize") {
        run = run_characterize;
    } else if (options.workload == "serve_sessions") {
        run = run_serve_sessions;
    } else if (options.workload == "shard_lot") {
        run = run_shard_lot;
    } else {
        return usage();
    }

    const char* rev = std::getenv("PERFBENCH_REV");
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
                "compiler=\"g++ %s\" build=%s rev=%s\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.nproc, __VERSION__,
                PERFBENCH_BUILD_TYPE, rev != nullptr ? rev : "unknown");
    std::fflush(stdout);

    workload_result result;
    try {
        std::filesystem::create_directories(options.run_dir);
        run(options, result);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
        std::error_code ec;
        std::filesystem::remove_all(options.run_dir, ec);
        return 2;
    }
    std::error_code ec;
    std::filesystem::remove_all(options.run_dir, ec);

    const auto& specs = options.trace ? per_layer_specs() : end_to_end_specs();
    if (options.trace) {
        // Layers a workload never enters spend no time there: report 0.
        for (const auto& spec : specs) {
            bool present = false;
            for (const auto& m : result.metrics) {
                present = present || m.name == spec.name;
            }
            if (!present) {
                result.set(spec.name, 0.0);
            }
        }
    }
    result.set("error_ratio", result.attempted > 0 ? static_cast<double>(result.failed) /
                                                         static_cast<double>(result.attempted)
                                                   : 1.0);
    if (result.attempted == 0) {
        result.fail_check("no unit was attempted", 0);
    }

    for (const auto& note : result.notes) {
        std::printf("  %s\n", note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += result.checks_passed && result.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    std::set<std::string> wanted;
    for (const auto& spec : specs) {
        wanted.insert(spec.name);
    }
    for (const auto& m : result.metrics) {
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        if (wanted.count(m.name) == 0) {
            continue;
        }
        wanted.erase(m.name);
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(value) +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    if (!wanted.empty()) {
        std::fprintf(stderr, "perfbench: %s did not produce metric %s\n",
                     options.workload.c_str(), wanted.begin()->c_str());
        return 2;
    }
    std::printf("%s\n", json.c_str());
    return result.checks_passed && result.failed == 0 ? 0 : 1;
}
