#include "arith.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iterator>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<tail_stat> tail_percentile(std::vector<double> samples,
                                         std::size_t min_beyond) {
    static constexpr std::array<double, 6> ladder = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
    std::sort(samples.begin(), samples.end());
    std::optional<tail_stat> best;
    const std::size_t n = samples.size();
    for (double p : ladder) {
        if (n == 0) {
            break;
        }
        const auto rank = static_cast<std::size_t>(
            std::clamp(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9), 1.0,
                       static_cast<double>(n)));
        const std::size_t beyond = n - rank;
        if (beyond < min_beyond) {
            break;
        }
        best = tail_stat{p, samples[rank - 1], n, beyond};
    }
    return best;
}

std::map<std::string, span_time>
span_times(std::span<const bistna::telemetry::span_value> spans) {
    struct open_span {
        std::size_t index;
        std::uint64_t end;
        std::uint64_t covered_until; ///< children's union is tracked up to here
        std::uint64_t covered_ns;
    };

    std::vector<std::size_t> order(spans.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    // Per thread, by start; an enclosing span (longer) before what it encloses.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const auto& x = spans[a];
        const auto& y = spans[b];
        if (x.tid != y.tid) {
            return x.tid < y.tid;
        }
        if (x.start_ns != y.start_ns) {
            return x.start_ns < y.start_ns;
        }
        return x.duration_ns > y.duration_ns;
    });

    std::map<std::string, span_time> out;
    std::vector<open_span> stack;
    const auto close = [&](const open_span& s) {
        const auto& v = spans[s.index];
        auto& t = out[v.name];
        ++t.count;
        t.total_ns += v.duration_ns;
        t.self_ns += v.duration_ns - std::min(s.covered_ns, v.duration_ns);
    };

    std::uint32_t tid = 0;
    bool first = true;
    for (std::size_t index : order) {
        const auto& v = spans[index];
        if (first || v.tid != tid) {
            while (!stack.empty()) {
                close(stack.back());
                stack.pop_back();
            }
            tid = v.tid;
            first = false;
        }
        const std::uint64_t start = v.start_ns;
        const std::uint64_t end = v.start_ns + v.duration_ns;
        while (!stack.empty() && stack.back().end <= start) {
            close(stack.back());
            stack.pop_back();
        }
        if (!stack.empty() && end <= stack.back().end) {
            open_span& parent = stack.back();
            const std::uint64_t from = std::max(start, parent.covered_until);
            if (end > from) {
                parent.covered_ns += end - from;
                parent.covered_until = end;
            }
        }
        stack.push_back(open_span{index, end, start, 0});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
    return out;
}

record_check check_records(std::span<const bistna::store::record> expected,
                           std::span<const bistna::store::record> delivered) {
    record_check check;
    const std::size_t common = std::min(expected.size(), delivered.size());
    for (std::size_t i = 0; i < common; ++i) {
        ++check.compared;
        if (!(expected[i] == delivered[i])) {
            ++check.mismatched;
            if (check.first_problem.empty()) {
                check.first_problem = "record " + std::to_string(i) + " differs";
            }
        }
    }
    if (expected.size() > common) {
        check.compared += expected.size() - common;
        check.missing = expected.size() - common;
        if (check.first_problem.empty()) {
            check.first_problem = std::to_string(check.missing) + " record(s) missing from " +
                                  std::to_string(common);
        }
    }
    if (delivered.size() > common) {
        check.extra = delivered.size() - common;
        if (check.first_problem.empty()) {
            check.first_problem = std::to_string(check.extra) + " unexpected record(s)";
        }
    }
    return check;
}

bool same_file_bytes(const std::string& a, const std::string& b) {
    std::ifstream fa(a, std::ios::binary);
    std::ifstream fb(b, std::ios::binary);
    if (!fa || !fb) {
        return false;
    }
    const std::vector<char> ba{std::istreambuf_iterator<char>(fa), {}};
    const std::vector<char> bb{std::istreambuf_iterator<char>(fb), {}};
    return ba == bb;
}

} // namespace perfbench
