// Custom test main: the binary doubles as the shard worker.
//
// The supervisor/integration suites spawn real worker processes; pointing
// them at /proc/self/exe with the dispatch sentinel below means the suites
// need no other binary on disk -- they run identically in the sanitizer CI
// jobs, which build with BISTNA_BUILD_EXAMPLES=OFF and would not have the
// shard_worker example available.
#include <gtest/gtest.h>

#include <string_view>

#include "shard/worker.hpp"

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--bistna-shard-worker") {
            return bistna::shard::worker_main(argc, argv);
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
