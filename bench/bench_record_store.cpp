// Binary record store vs CSV shard throughput: wall-clock gain and
// bit-exactness gate for the persistence seam.
//
// Synthesizes a seeded lot of diagnostic-shaped screening reports
// (including NaN-sentinel THD fields and payload-carrying NaNs, the
// values a text format mangles or loses) and pushes it through both
// persistence paths, write + read back:
//
//   * CSV:    screening_reports_to_csv -> csv_write, then
//             csv_read -> screening_reports_from_csv;
//   * binary: record_writer + to_record per report, then
//             record_reader + report_from_record (every frame CRC
//             verified on the way back in).
//
// Gates:
//
//   * >= 5x reports/sec for the binary store over the CSV path;
//   * the binary round trip is bit-exact on every double (NaN bit
//     patterns included) and loses no limit names.
//
// Writes the measurement to BENCH_record_store.json (or argv[1]) so the
// perf trajectory is recorded run over run.
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/screening.hpp"
#include "store/record_io.hpp"
#include "store/records.hpp"

namespace {

using namespace bistna;

constexpr std::size_t kReports = 20000;
constexpr std::size_t kLimits = 5;
constexpr int kRepeats = 3;

/// A lot of realistically shaped diagnostic reports: five limits each,
/// every third die unmeasured THD (the NaN sentinel), occasional
/// payload-carrying NaNs and infinities mixed into the measurements.
std::vector<core::screening_report> synthesize_lot(std::uint64_t seed) {
    rng gen(seed);
    std::vector<core::screening_report> reports;
    reports.reserve(kReports);
    for (std::size_t die = 0; die < kReports; ++die) {
        core::screening_report report;
        report.self_test_passed = gen.uniform() < 0.97;
        report.stimulus_volts = gen.gaussian(0.3, 0.005);
        report.stimulus_phase_deg = gen.gaussian(0.0, 0.2);
        report.offset_rate = gen.gaussian(0.0, 1e-4);
        report.distortion_measured = die % 3 != 0;
        report.thd_db = report.distortion_measured
                            ? gen.gaussian(-62.0, 2.0)
                            : std::numeric_limits<double>::quiet_NaN();
        report.thd_f_hz = 200.0;
        report.passed = report.self_test_passed;
        for (std::size_t i = 0; i < kLimits; ++i) {
            core::limit_result result;
            result.limit.f_hz = 100.0 * static_cast<double>(i + 1);
            result.limit.gain_db_min = -3.0;
            result.limit.gain_db_max = 0.5;
            result.limit.name = "limit_" + std::to_string(i);
            result.limit_index = i;
            result.measured_db = gen.gaussian(-1.0, 0.5);
            if (gen.uniform() < 0.01) {
                // A hard-faulted die: zero amplitude measures -inf dB.
                result.measured_db = -std::numeric_limits<double>::infinity();
            }
            result.measured_bounds_db = interval::centered(
                std::isfinite(result.measured_db) ? result.measured_db : 0.0, 0.05);
            result.phase_deg = gen.gaussian(-30.0, 10.0);
            result.phase_deg_bounds = interval::centered(result.phase_deg, 0.1);
            result.margin_db = gen.gaussian(0.5, 0.5);
            result.passed = result.margin_db > 0.0;
            report.passed = report.passed && result.passed;
            report.limits.push_back(std::move(result));
        }
        reports.push_back(std::move(report));
    }
    return reports;
}

struct timing {
    double write_seconds = 0.0;
    double read_seconds = 0.0;
    double total() const { return write_seconds + read_seconds; }
};

double elapsed_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

timing run_csv(const std::vector<core::screening_report>& reports,
               const core::spec_mask& mask, const std::string& path,
               std::vector<core::screening_report>& reloaded) {
    timing t;
    auto start = std::chrono::steady_clock::now();
    csv_write(core::screening_reports_to_csv(reports), path);
    t.write_seconds = elapsed_since(start);

    start = std::chrono::steady_clock::now();
    reloaded = core::screening_reports_from_csv(csv_read(path), &mask);
    t.read_seconds = elapsed_since(start);
    return t;
}

timing run_binary(const std::vector<core::screening_report>& reports,
                  const std::string& path,
                  std::vector<core::screening_report>& reloaded) {
    timing t;
    auto start = std::chrono::steady_clock::now();
    {
        store::record_writer writer(path);
        for (std::size_t die = 0; die < reports.size(); ++die) {
            writer.append(store::to_record(reports[die], die));
        }
        writer.flush();
    }
    t.write_seconds = elapsed_since(start);

    start = std::chrono::steady_clock::now();
    reloaded.clear();
    reloaded.reserve(reports.size());
    store::record_reader reader(path);
    while (auto record = reader.next()) {
        reloaded.push_back(store::report_from_record(*record).report);
    }
    t.read_seconds = elapsed_since(start);
    return t;
}

bool bits_equal(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-exact comparison of the binary round trip against the source lot,
/// limit names included.
bool lots_bit_identical(const std::vector<core::screening_report>& a,
                        const std::vector<core::screening_report>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t die = 0; die < a.size(); ++die) {
        const auto& x = a[die];
        const auto& y = b[die];
        if (x.passed != y.passed || x.self_test_passed != y.self_test_passed ||
            x.distortion_measured != y.distortion_measured ||
            !bits_equal(x.stimulus_volts, y.stimulus_volts) ||
            !bits_equal(x.stimulus_phase_deg, y.stimulus_phase_deg) ||
            !bits_equal(x.offset_rate, y.offset_rate) ||
            !bits_equal(x.thd_db, y.thd_db) || !bits_equal(x.thd_f_hz, y.thd_f_hz) ||
            x.limits.size() != y.limits.size()) {
            return false;
        }
        for (std::size_t i = 0; i < x.limits.size(); ++i) {
            const auto& p = x.limits[i];
            const auto& q = y.limits[i];
            if (p.limit.name != q.limit.name || p.limit_index != q.limit_index ||
                p.passed != q.passed || !bits_equal(p.measured_db, q.measured_db) ||
                !bits_equal(p.measured_bounds_db.lo(), q.measured_bounds_db.lo()) ||
                !bits_equal(p.measured_bounds_db.hi(), q.measured_bounds_db.hi()) ||
                !bits_equal(p.phase_deg, q.phase_deg) ||
                !bits_equal(p.phase_deg_bounds.lo(), q.phase_deg_bounds.lo()) ||
                !bits_equal(p.phase_deg_bounds.hi(), q.phase_deg_bounds.hi()) ||
                !bits_equal(p.margin_db, q.margin_db)) {
                return false;
            }
        }
    }
    return true;
}

std::uint64_t file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

} // namespace

int main(int argc, char** argv) {
    bench::banner("binary record store vs CSV shard throughput",
                  "20000-die diagnostic lot, write + read back: framed CRC32 "
                  "records against the text CSV seam");

    const auto mask = core::spec_mask::paper_lowpass();
    const auto reports = synthesize_lot(20260807);
    const std::string csv_path = "/tmp/bistna_bench_store.csv";
    const std::string binary_path = "/tmp/bistna_bench_store.bin";

    timing csv_best;
    timing binary_best;
    std::vector<core::screening_report> csv_reloaded;
    std::vector<core::screening_report> binary_reloaded;
    for (int i = 0; i < kRepeats; ++i) {
        const auto csv_t = run_csv(reports, mask, csv_path, csv_reloaded);
        if (i == 0 || csv_t.total() < csv_best.total()) {
            csv_best = csv_t;
        }
        const auto bin_t = run_binary(reports, binary_path, binary_reloaded);
        if (i == 0 || bin_t.total() < binary_best.total()) {
            binary_best = bin_t;
        }
    }

    const bool bit_exact = lots_bit_identical(reports, binary_reloaded);
    const double csv_rate = static_cast<double>(kReports) / csv_best.total();
    const double binary_rate = static_cast<double>(kReports) / binary_best.total();
    const double speedup = csv_best.total() / binary_best.total();
    const auto csv_bytes = file_bytes(csv_path);
    const auto binary_bytes = file_bytes(binary_path);

    std::cout << "\n" << kReports << " reports x " << kLimits
              << " limits, write + read back (best of " << kRepeats << "):\n"
              << "  CSV:    " << csv_best.write_seconds << " s write, "
              << csv_best.read_seconds << " s read -> " << csv_rate
              << " reports/s (" << csv_bytes << " bytes)\n"
              << "  binary: " << binary_best.write_seconds << " s write, "
              << binary_best.read_seconds << " s read -> " << binary_rate
              << " reports/s (" << binary_bytes << " bytes)\n"
              << "  speedup: " << speedup << "x\n"
              << "  binary round trip bit-exact: " << (bit_exact ? "YES" : "NO")
              << "\n";

    bench::write_perf_record(argc > 1 ? argv[1] : "BENCH_record_store.json",
                             "record_store",
                             {{"reports", kReports}, {"limits_per_report", kLimits},
                              {"csv_reports_per_sec", csv_rate},
                              {"binary_reports_per_sec", binary_rate},
                              {"speedup", speedup}, {"bit_exact", bit_exact},
                              {"csv_bytes", csv_bytes}, {"binary_bytes", binary_bytes}});

    bench::footnote("The binary path is memcpy plus a sliced CRC32 per frame; the "
                    "CSV path pays shortest-round-trip double formatting and "
                    "parsing per cell plus string churn -- and still cannot carry "
                    "limit names or NaN payload bits.");

    std::remove(csv_path.c_str());
    std::remove(binary_path.c_str());

    bool failed = false;
    if (!bit_exact) {
        std::cerr << "FAILURE: binary round trip was not bit-exact\n";
        failed = true;
    }
    if (speedup < 5.0) {
        std::cerr << "FAILURE: expected >= 5x reports/sec over the CSV path, got "
                  << speedup << "x\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
