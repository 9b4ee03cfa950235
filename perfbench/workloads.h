/**
 * @file
 * The benchmark's workloads, the independent checks of their outputs,
 * and the traced re-drives that split a pass by layer.
 *
 *  - decoder_sweep: stage 1 alone, explore::explore_instruction_set
 *    over three symbolic bytes, stopped at a fixed path cap.
 *  - table_sweep:   stages 2-5 over every table row through
 *    pokeemu::run_campaign (canonical encodings, one sequential shard,
 *    the stock Lo-Fi bug set), one campaign per slice of the rows.
 *
 * Every check here is computed from the library's public functions
 * and the defect catalogue at run time; none compares against stored
 * output of an earlier run.
 */
#ifndef POKEEMU_PERFBENCH_WORKLOADS_H
#define POKEEMU_PERFBENCH_WORKLOADS_H

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arch/decoder.h"
#include "explore/insn_explorer.h"
#include "explore/state_spec.h"
#include "harness/runner.h"
#include "trace.h"

namespace perfbench {

using pokeemu::u64;
using pokeemu::u8;
using Encoding = std::vector<u8>;

/** Symbolic bytes of the decoder_sweep exploration. */
constexpr unsigned kDecoderSymbolicBytes = 3;
/** Path cap of the decoder_sweep exploration: a slice of the 3-byte
 *  sweep short enough that a run holds dozens of passes. */
constexpr u64 kDecoderMaxPaths = 600;
/** table_sweep per-instruction path cap (campaign --max-paths 16). */
constexpr u64 kTableMaxPaths = 16;
/** table_sweep runs one campaign per slice of its rows, so that each
 *  slice is timed on its own (see README.md, "Pass statistic"). */
constexpr std::size_t kTableSlices = 16;

/**
 * Build the library's process-wide tables that are made on first use
 * and only read afterwards: the instruction table, the cycle-cost
 * model, the baseline machine state and the defect catalogue. This is
 * the one-time work before the first pass (timed as setup_s); every
 * pass of either workload reads these tables and builds nothing here
 * again.
 */
void build_static_tables();

/** Stage-2 inputs as the pipeline builds them for each campaign (in
 *  pokeemu::Pipeline's constructor): the descriptor-load summary and
 *  the state spec over it, each built under a span. */
struct ExploreContext
{
    explicit ExploreContext(Tracer *tracer = nullptr);

    pokeemu::symexec::VarPool summary_pool;
    pokeemu::symexec::Summary summary;
    std::unique_ptr<pokeemu::explore::StateSpec> spec;
};

/** table_sweep input: every table row, in a --seed permutation. */
std::vector<int> table_rows(u64 seed);
/** @p rows, a permutation of every table row, cut into kTableSlices
 *  slices of near-equal size by row index: the same rows in a slice
 *  for every seed, visited in the order of @p rows. */
std::vector<std::vector<int>> table_slices(const std::vector<int> &rows);
/** Canonical encodings of @p rows. */
std::vector<Encoding> encodings_of(const std::vector<int> &rows);

/// @name decoder_sweep
/// @{
/** One pass: stage-1 exploration of @p symbolic_bytes bytes, stopped
 *  after @p max_paths paths. */
pokeemu::explore::InsnSetResult decoder_pass(unsigned symbolic_bytes,
                                             u64 max_paths);

/** Failures of a stage-1 output that should have stopped at its cap of
 *  @p max_paths paths. */
std::vector<std::string>
check_decoder(const pokeemu::explore::InsnSetResult &result, u64 max_paths);

/** What the traced stage-1 re-drive measured. */
struct DecoderTrace
{
    pokeemu::explore::InsnSetResult result;
    pokeemu::solver::SolverStats solver;
};

/** Stage 1 again, through hifi::build_decoder_program and
 *  symexec::PathExplorer, with spans around each call. */
DecoderTrace decoder_trace(unsigned symbolic_bytes, u64 max_paths,
                           Tracer &tracer);
/// @}

/// @name Stages 2-5 (table_sweep)
/// @{
/** Outcome totals of stages 2-5; comparable between the campaign
 *  report and a unit-by-unit drive. */
struct ExecTotals
{
    u64 units = 0;
    u64 units_complete = 0;     ///< Decision tree exhausted.
    u64 units_path_capped = 0;  ///< Stopped at the path cap.
    u64 paths = 0;
    u64 solver_queries = 0;
    u64 queries_avoided = 0;
    u64 tests = 0;              ///< Generated test programs.
    u64 executed = 0;           ///< Tests run on all three backends.
    u64 generation_failures = 0;
    u64 quarantined = 0;
    u64 oracle_timeouts = 0;    ///< Hardware timed out (not compared).
    u64 backend_timeouts = 0;   ///< Timed-out runs, all backends.
    u64 lofi_raw = 0;
    u64 hifi_raw = 0;
    u64 lofi_diffs = 0;
    u64 hifi_diffs = 0;
    u64 filtered_undefined = 0;
    u64 covered_blocks = 0;
    u64 covered_edges = 0;
    std::map<std::string, u64> lofi_clusters;
    std::map<std::string, u64> hifi_clusters;

    bool operator==(const ExecTotals &) const = default;
    /** Add another campaign's totals (coverage counts are per-unit
     *  sums, so they add too). */
    ExecTotals &operator+=(const ExecTotals &other);
};

/** Work counters a unit-by-unit drive records at the layer calls. */
struct LayerCounts
{
    u64 hifi_insns = 0;
    u64 lofi_insns = 0;
    u64 hw_insns = 0;
    u64 diff_calls = 0;
    u64 diff_bytes_compared = 0;
    u64 memo_hits = 0;
    u64 memo_misses = 0;
};

struct DriveResult
{
    ExecTotals totals;
    LayerCounts counts;
};

/** table_sweep pass: pokeemu::run_campaign over @p rows with the
 *  stock Lo-Fi bugs and a kTableMaxPaths cap. */
ExecTotals campaign_pass(const std::vector<int> &rows);

/**
 * Stages 2-5 unit by unit, as the pipeline runs them on unprefixed
 * encodings with the stock Lo-Fi bugs and a kTableMaxPaths cap: the
 * ExploreContext, then per unit explore_instruction,
 * generate_test_program, TestRunner::run_one_into per backend and
 * compare_runs, with a span around each call when @p tracer is set.
 */
DriveResult drive_units(const std::vector<Encoding> &encodings,
                        Tracer *tracer);

/**
 * Stage 5 of one test that ran on all three backends: diff the Lo-Fi
 * and the Hi-Fi run against the hardware run (arch::diff_snapshots),
 * drop undefined-behaviour differences (harness::filter_undefined),
 * file the rest by root cause (harness::classify_difference), and add
 * the outcome to @p totals and @p counts. Spans carry @p unit.
 */
void compare_runs(const pokeemu::arch::DecodedInsn &insn,
                  const pokeemu::harness::BackendRun &lofi,
                  const pokeemu::harness::BackendRun &hifi,
                  const pokeemu::harness::BackendRun &hw,
                  ExecTotals &totals, LayerCounts &counts,
                  Tracer *tracer = nullptr, u64 unit = 0);

/** Cluster names the stock Lo-Fi bugs are expected to produce. */
struct BugExpectation
{
    std::set<std::string> expected;
    /** Per detectable seeded bug: its name and expected clusters. */
    std::vector<std::pair<std::string, std::vector<std::string>>>
        detectable;
};

BugExpectation stock_expectation();

/** Lo-Fi tests filed under a cluster no seeded bug names. */
u64 misattributed(const ExecTotals &totals, const BugExpectation &bugs);

/** table_sweep checks (@p units: rows in the workload). */
std::vector<std::string> check_table(const ExecTotals &totals,
                                     const BugExpectation &bugs,
                                     u64 units);

/** Differences between two stage-1 results ("" when equal). */
std::string compare_insn_sets(const pokeemu::explore::InsnSetResult &a,
                              const pokeemu::explore::InsnSetResult &b);

/** Differences between two sets of totals ("" when equal). */
std::string compare_totals(const ExecTotals &a, const ExecTotals &b);
/// @}

} // namespace perfbench

#endif // POKEEMU_PERFBENCH_WORKLOADS_H
