// Shared reporting helpers for the experiment-reproduction benches.
#pragma once

#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <type_traits>
#include <utility>

#include "common/json.hpp"

namespace bistna::bench {

inline void banner(const std::string& experiment, const std::string& description) {
    std::cout << "================================================================\n"
              << experiment << "\n"
              << description << "\n"
              << "================================================================\n";
}

inline void footnote(const std::string& text) { std::cout << "\n" << text << "\n\n"; }

/// MISMATCH verdicts printed so far by this process.
inline int& mismatch_count() {
    static int count = 0;
    return count;
}

/// "shape holds" verdict line: |measured - paper| within a stated window.
/// A miss prints MISMATCH and counts toward verdict_exit_code().
inline bool verdict(const std::string& quantity, double paper, double measured,
                    double window) {
    const double delta = measured - paper;
    const bool ok = delta <= window && delta >= -window;
    std::cout << "  " << quantity << ": paper " << paper << ", measured " << measured
              << " (delta " << delta << ", window +/-" << window << ") -> "
              << (ok ? "SHAPE HOLDS" : "MISMATCH") << "\n";
    if (!ok) {
        ++mismatch_count();
    }
    return ok;
}

/// A figure bench's exit code: 0 when every verdict held, else 1 after
/// naming the number of mismatches.
inline int verdict_exit_code() {
    if (mismatch_count() == 0) {
        return 0;
    }
    std::cerr << "FAILURE: " << mismatch_count() << " verdict(s) MISMATCH\n";
    return 1;
}

/// One key of a flat perf record: a JSON number, or a boolean for bool.
struct perf_field {
    template <class T>
        requires std::is_arithmetic_v<T>
    perf_field(std::string name, T v) : key(std::move(name)) {
        value.type =
            std::is_same_v<T, bool> ? json_value::kind::boolean : json_value::kind::number;
        value.b = static_cast<bool>(v);
        value.num = static_cast<double>(v);
    }

    std::string key;
    json_value value;
};

/// Write the perf record {"bench": name, fields...} to `path` through the
/// shared JSON writer: locale-independent, shortest round-trip numbers.
/// An unwritable path only warns; the bench's gates decide its exit code.
inline void write_perf_record(const std::string& path, const std::string& name,
                              std::initializer_list<perf_field> fields) {
    json_value record;
    record.type = json_value::kind::object;
    json_value bench_name;
    bench_name.type = json_value::kind::string;
    bench_name.str = name;
    record.members.emplace_back("bench", std::move(bench_name));
    for (const perf_field& field : fields) {
        record.members.emplace_back(field.key, field.value);
    }
    const std::string text = to_json(record) + "\n";
    if (std::ofstream out(path); out << text) {
        std::cout << "perf record written to " << path << "\n";
    } else {
        std::cerr << "WARNING: could not write " << path << "\n";
    }
}

} // namespace bistna::bench
