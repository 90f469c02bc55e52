// The process-wide demodulation-table cache: one build per program even
// when many lane groups miss at once, and a budget of entries and bytes
// enforced by FIFO eviction.  (LaneKernels checks cached tables against a
// fresh build.)
#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "eval/acquire_plan.hpp"

namespace {

using namespace bistna;
using eval::acquisition_settings;
using eval::demod_table_cache;
using eval::demod_tables;

acquisition_settings program(std::size_t periods, std::size_t k = 1) {
    acquisition_settings settings;
    settings.periods = periods;
    settings.harmonic_k = k;
    return settings;
}

TEST(DemodTableCache, EightThreadsOneProgramBuildOnce) {
    auto& cache = demod_table_cache::process();
    const auto settings = program(1238, 3); // a program no other test asks for
    const auto before = cache.stats();
    constexpr std::size_t threads = 8;
    std::latch start(threads);
    std::vector<std::shared_ptr<const demod_tables>> results(threads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            start.arrive_and_wait();
            results[t] = cache.get(settings);
        });
    }
    for (auto& worker : workers) {
        worker.join();
    }
    EXPECT_EQ(cache.stats().misses - before.misses, 1u)
        << "concurrent misses of one program must share one build";
    EXPECT_EQ(cache.stats().hits - before.hits, threads - 1);
    for (const auto& result : results) {
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result.get(), results.front().get());
    }
    EXPECT_TRUE(results.front()->matches(settings));
}

TEST(DemodTableCache, EvictsOldestBeyondEntryCap) {
    demod_table_cache cache;
    for (std::size_t p = 1; p <= demod_table_cache::max_entries + 1; ++p) {
        (void)cache.get(program(2 * p));
    }
    EXPECT_EQ(cache.stats().entries, demod_table_cache::max_entries);
    EXPECT_EQ(cache.stats().evictions, 1u);
    std::size_t resident = 0;
    for (std::size_t p = 2; p <= demod_table_cache::max_entries + 1; ++p) {
        resident += demod_tables::bytes_for(program(2 * p));
    }
    EXPECT_EQ(cache.stats().bytes, resident);
    const std::size_t misses = cache.stats().misses;
    (void)cache.get(program(2 * demod_table_cache::max_entries)); // resident
    EXPECT_EQ(cache.stats().misses, misses);
    (void)cache.get(program(2)); // the oldest was evicted
    EXPECT_EQ(cache.stats().misses, misses + 1);
}

TEST(DemodTableCache, ByteBudgetEvictsAndOversizeIsNotRetained) {
    demod_table_cache cache;
    // Two 4096-period tables (~10 MB each) do not fit 16 MiB together.
    const auto big = program(4096);
    ASSERT_LT(demod_tables::bytes_for(big), demod_table_cache::max_bytes);
    ASSERT_GT(2 * demod_tables::bytes_for(big), demod_table_cache::max_bytes);
    (void)cache.get(big);
    (void)cache.get(program(4096, 2));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, demod_table_cache::max_bytes);

    // Larger than the whole budget: built and served, never retained.
    const auto huge = program(8192);
    ASSERT_GT(demod_tables::bytes_for(huge), demod_table_cache::max_bytes);
    const auto served = cache.get(huge);
    EXPECT_TRUE(served->matches(huge));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    (void)cache.get(huge);
    EXPECT_EQ(cache.stats().hits, 0u);
}

} // namespace
