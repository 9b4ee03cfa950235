/**
 * @file
 * Self-test of the benchmark's output checks: each check passes on a
 * small real result and fails on a deliberately corrupted copy of it.
 * Run with `python3 perfbench/run.py --self-test`; exit 0 iff every
 * case behaves.
 */
#include <cstdio>
#include <functional>

#include "arch/layout.h"
#include "defects/defects.h"
#include "explore/state_explorer.h"
#include "testgen/testgen.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::fprintf(stderr, "self-test: %-58s %s\n", what, ok ? "ok" : "FAIL");
    failures += !ok;
}

/** The check passes on @p good and fails once @p corrupt ran. */
template <typename T>
void
expect_caught(const char *what, const T &good,
              const std::function<void(T &)> &corrupt,
              const std::function<bool(const T &)> &passes)
{
    T bad = good;
    corrupt(bad);
    expect(passes(good) && !passes(bad), what);
}

/** Decode @p bytes, zero-padded to the longest instruction. */
bool
decode_padded(Encoding bytes, pokeemu::arch::DecodedInsn &insn)
{
    bytes.resize(pokeemu::arch::kMaxInsnLength, 0);
    return pokeemu::arch::decode(bytes.data(), bytes.size(), insn) ==
        pokeemu::arch::DecodeStatus::Ok;
}

/** Rows that expose each detectable stock bug (the catalogue's focus
 *  encodings), plus the far-pointer loads les and lds. */
std::vector<int>
small_table()
{
    std::set<int> rows;
    const pokeemu::lofi::BugConfig stock{};
    pokeemu::arch::DecodedInsn insn;
    for (const auto &d : pokeemu::defects::catalogue()) {
        if (d.knob == nullptr || !(stock.*d.knob) || !d.detectable)
            continue;
        for (const Encoding &e : d.focus_encodings) {
            if (decode_padded(e, insn))
                rows.insert(insn.table_index);
        }
    }
    for (const Encoding &e : {Encoding{0xc4, 0x08}, Encoding{0xc5, 0x08}}) {
        if (decode_padded(e, insn))
            rows.insert(insn.table_index);
    }
    return {rows.begin(), rows.end()};
}

/** The three backend runs of one real test: the first path of @p insn. */
struct TestRuns
{
    pokeemu::harness::BackendRun lofi, hifi, hw;
};

TestRuns
run_first_test(const pokeemu::arch::DecodedInsn &insn)
{
    namespace harness = pokeemu::harness;
    const ExploreContext context;
    pokeemu::explore::StateExploreOptions options;
    options.max_paths = 1;
    const auto explored = pokeemu::explore::explore_instruction(
        insn, *context.spec, &context.summary, options);
    const auto gen = pokeemu::testgen::generate_test_program(
        insn, explored.paths.at(0).assignment, *context.spec, explored.pool);
    harness::TestRunner runner(harness::TestRunner::Config{});
    TestRuns runs;
    runner.run_one_into(harness::Backend::LoFi, gen.program.code, runs.lofi);
    runner.run_one_into(harness::Backend::HiFi, gen.program.code, runs.hifi);
    runner.run_one_into(harness::Backend::Hardware, gen.program.code,
                        runs.hw);
    return runs;
}

} // namespace

int
run_self_test()
{
    using pokeemu::explore::InsnSetResult;

    // decoder_sweep checks, on a short capped slice of the same
    // exploration.
    constexpr u64 cap = 40;
    const InsnSetResult dec = decoder_pass(kDecoderSymbolicBytes, cap);
    const auto decoder_ok = [&](const InsnSetResult &r) {
        return check_decoder(r, cap).empty();
    };
    expect_caught<InsnSetResult>(
        "decoder: a representative decodes to another row", dec,
        [](InsnSetResult &r) {
            auto first = r.representatives.begin();
            first->second = std::next(first)->second;
        },
        decoder_ok);
    expect_caught<InsnSetResult>(
        "decoder: sequence counts do not sum to the paths", dec,
        [](InsnSetResult &r) { ++r.invalid_sequences; }, decoder_ok);
    expect_caught<InsnSetResult>(
        "decoder: exploration stopped short of its cap", dec,
        [](InsnSetResult &r) {
            --r.stats.paths;
            --r.candidate_sequences;
        },
        decoder_ok);
    expect_caught<InsnSetResult>(
        "decoder: no representative found", dec,
        [](InsnSetResult &r) { r.representatives.clear(); }, decoder_ok);
    Tracer tracer;
    const InsnSetResult redo =
        decoder_trace(kDecoderSymbolicBytes, cap, tracer).result;
    expect_caught<InsnSetResult>(
        "decoder: traced re-drive with one path fewer", redo,
        [](InsnSetResult &r) { --r.stats.paths; },
        [&](const InsnSetResult &r) {
            return compare_insn_sets(dec, r).empty();
        });

    // table_sweep checks, on a campaign over a few rows; the rows
    // campaign by campaign add up to the same totals.
    const std::vector<int> rows = small_table();
    const BugExpectation bugs = stock_expectation();
    const ExecTotals table = campaign_pass(rows);
    ExecTotals by_row;
    for (int row : rows)
        by_row += campaign_pass({row});
    expect(compare_totals(table, by_row).empty(),
           "table: campaigns row by row add up to the whole campaign");
    const auto table_ok = [&](const ExecTotals &t) {
        return check_table(t, bugs, rows.size()).empty();
    };
    expect_caught<ExecTotals>(
        "table: one expected Lo-Fi cluster relabelled", table,
        [](ExecTotals &t) {
            const auto it = t.lofi_clusters.find("iret-pop-order");
            t.lofi_clusters["relabelled"] = it->second;
            t.lofi_clusters.erase(it);
        },
        table_ok);
    expect_caught<ExecTotals>(
        "table: a Hi-Fi difference outside the documented one", table,
        [](ExecTotals &t) { ++t.hifi_clusters["status-flags-divergence"]; },
        table_ok);
    expect_caught<ExecTotals>(
        "table: a unit quarantined", table,
        [](ExecTotals &t) { ++t.quarantined; }, table_ok);
    expect_caught<ExecTotals>(
        "table: a generation failure", table,
        [](ExecTotals &t) { ++t.generation_failures; }, table_ok);
    expect_caught<ExecTotals>(
        "table: a backend timeout", table,
        [](ExecTotals &t) { ++t.backend_timeouts; }, table_ok);
    expect_caught<ExecTotals>(
        "table: one test fewer than paths", table,
        [](ExecTotals &t) { --t.executed; }, table_ok);
    ExecTotals moved = table;
    --moved.lofi_clusters.at("iret-pop-order");
    ++moved.lofi_clusters["relabelled"];
    expect(misattributed(moved, bugs) == misattributed(table, bugs) + 1,
           "table: a test moved to an unexpected cluster is counted");

    // One more test, of nop, tallied into the campaign's totals by
    // stage 5 as it ran and with one byte of its Hi-Fi snapshot
    // flipped before the diff.
    pokeemu::arch::DecodedInsn nop;
    decode_padded({0x90}, nop);
    TestRuns runs = run_first_test(nop);
    LayerCounts counts;
    ExecTotals clean = table;
    compare_runs(nop, runs.lofi, runs.hifi, runs.hw, clean, counts);
    runs.hifi.snapshot.ram[pokeemu::arch::layout::kPhysTestCode] ^= 0x01;
    ExecTotals flipped = table;
    compare_runs(nop, runs.lofi, runs.hifi, runs.hw, flipped, counts);
    expect(table_ok(clean) && !table_ok(flipped),
           "table: one Hi-Fi snapshot byte flipped before the diff");

    // The traced re-drive against the campaign report.
    const ExecTotals drive = drive_units(encodings_of(rows), &tracer).totals;
    expect_caught<ExecTotals>(
        "trace: re-drive with one Lo-Fi cluster one test larger", drive,
        [](ExecTotals &t) { ++t.lofi_clusters.begin()->second; },
        [&](const ExecTotals &t) { return compare_totals(table, t).empty(); });

    std::fprintf(stderr, "self-test: %s (%d failing)\n",
                 failures ? "FAILED" : "passed", failures);
    return failures ? 1 : 0;
}

} // namespace perfbench
