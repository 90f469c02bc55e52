// Shard worker: run one contiguous unit range of a lot manifest through
// the sweep engine and stream the results to a record store, frames in
// global-id order.
//
// The in-order framing is the merge contract: because every worker emits
// its range's frames sorted by global id, the coordinator's merge is a
// pure id-ordered concatenation and the merged file's bytes equal the
// file one worker writing the whole lot would have produced -- at any
// shard count, worker count or completion order.
//
// run_worker_shard is the in-process form (tests drive it directly);
// worker_main wraps it in the --manifest/--out/--first/--count CLI the
// coordinator spawns, plus the fault-injection flags the supervisor tests
// use to manufacture dead and straggler workers on demand.
#pragma once

#include <cstdint>
#include <string>

#include "shard/manifest.hpp"

namespace bistna::shard {

struct worker_shard_options {
    std::uint64_t first_unit = 0; ///< first global unit of this shard
    std::uint64_t units = 0;      ///< unit count (0 writes a valid empty store)
    /// Store flush cadence (records between forced flushes; see
    /// store::lot_store_options).  Workers default to batched flushing --
    /// a killed worker's shard is retried wholesale, so per-record
    /// durability buys nothing here.
    std::size_t flush_interval = 32;

    // --- fault injection (supervisor tests / bench only) -----------------
    /// > 0: after appending this many records, append a deliberately torn
    /// partial frame and die by SIGKILL -- a worker crashing mid-write.
    std::uint64_t kill_after_records = 0;
    /// > 0: sleep this long before doing any work -- a straggler for the
    /// supervisor's timeout to catch.
    std::uint64_t stall_ms = 0;
};

struct worker_shard_report {
    std::uint64_t records = 0; ///< frames appended (== options.units)
    std::uint64_t bytes = 0;   ///< final store size
};

/// Run units [first_unit, first_unit + units) of the manifest's workload
/// and write their records to a fresh store at `out_path`, in global-id
/// order.  Record ids are manifest.record_id(unit): the die seed for a
/// screening lot, the plan item index for a dictionary build.
worker_shard_report run_worker_shard(const lot_manifest& manifest,
                                     const std::string& out_path,
                                     const worker_shard_options& options);

/// The worker executable's main (`--help` lists its flags; the fault
/// injections fire only on the --attempt they name): run the shard, print
/// a one-line summary.  Returns the process exit code.
int worker_main(int argc, char** argv);

} // namespace bistna::shard
