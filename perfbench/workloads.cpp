#include "workloads.h"

#include <algorithm>
#include <sstream>

#include "arch/decoder.h"
#include "arch/insn_table.h"
#include "arch/snapshot.h"
#include "defects/defects.h"
#include "harness/cluster.h"
#include "harness/filter.h"
#include "harness/runner.h"
#include "hifi/decoder_ir.h"
#include "hifi/semantics.h"
#include "pokeemu/shard.h"
#include "solver/memo.h"
#include "support/rng.h"
#include "testgen/baseline.h"
#include "testgen/testgen.h"
#include "timing/cost_model.h"

namespace perfbench {

namespace arch = pokeemu::arch;
namespace explore = pokeemu::explore;
namespace harness = pokeemu::harness;
namespace layout = pokeemu::arch::layout;
namespace symexec = pokeemu::symexec;

namespace {

/** Fisher-Yates over pokeemu::Rng: the same seed, the same order. */
template <typename T>
void
shuffle(std::vector<T> &items, u64 seed)
{
    pokeemu::Rng rng(seed);
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

/** Run @p f inside a span named @p name. */
template <typename F>
auto
traced(Tracer *tracer, const char *name, F &&f)
{
    Span span(tracer, name, 0);
    return f();
}

} // namespace

void
build_static_tables()
{
    (void)arch::insn_table();
    (void)pokeemu::timing::cost_model();
    (void)pokeemu::testgen::baseline_ram_after_init();
    (void)pokeemu::defects::catalogue();
}

ExploreContext::ExploreContext(Tracer *tracer)
    : summary(traced(tracer, "hifi.summarize_descriptor_load", [this] {
          return pokeemu::hifi::summarize_descriptor_load(summary_pool);
      }))
{
    Span span(tracer, "explore.build_state_spec", 0);
    spec = std::make_unique<explore::StateSpec>(
        pokeemu::testgen::baseline_cpu_state(),
        pokeemu::testgen::baseline_ram_after_init(), &summary);
}

std::vector<int>
table_rows(u64 seed)
{
    std::vector<int> rows(arch::insn_table().size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = static_cast<int>(i);
    shuffle(rows, seed);
    return rows;
}

std::vector<std::vector<int>>
table_slices(const std::vector<int> &rows)
{
    std::vector<std::vector<int>> slices(kTableSlices);
    for (int row : rows)
        slices[static_cast<std::size_t>(row) * kTableSlices / rows.size()]
            .push_back(row);
    return slices;
}

std::vector<Encoding>
encodings_of(const std::vector<int> &rows)
{
    std::vector<Encoding> out;
    out.reserve(rows.size());
    for (int row : rows)
        out.push_back(arch::canonical_encoding(row));
    return out;
}

// ---------------------------------------------------------------------
// decoder_sweep

explore::InsnSetResult
decoder_pass(unsigned symbolic_bytes, u64 max_paths)
{
    return explore::explore_instruction_set({symbolic_bytes, max_paths, 1});
}

std::vector<std::string>
check_decoder(const explore::InsnSetResult &result, u64 max_paths)
{
    std::vector<std::string> fail;
    if (result.stats.complete || result.stats.paths != max_paths) {
        fail.push_back("decoder exploration stopped after " +
                       std::to_string(result.stats.paths) +
                       " paths, not at its cap of " +
                       std::to_string(max_paths));
    }
    const u64 sum = result.candidate_sequences + result.invalid_sequences +
        result.toolong_sequences;
    if (sum != result.stats.paths) {
        fail.push_back("candidate+invalid+too-long sequences " +
                       std::to_string(sum) + " != paths " +
                       std::to_string(result.stats.paths));
    }
    if (result.representatives.empty())
        fail.push_back("decoder exploration found no instruction");
    for (const auto &[row, bytes] : result.representatives) {
        arch::DecodedInsn insn;
        if (arch::decode(bytes.data(), bytes.size(), insn) !=
                arch::DecodeStatus::Ok ||
            insn.table_index != row) {
            fail.push_back("representative of row " + std::to_string(row) +
                           " does not decode to its row");
        }
    }
    return fail;
}

DecoderTrace
decoder_trace(unsigned symbolic_bytes, u64 max_paths, Tracer &tracer)
{
    // explore::explore_instruction_set, re-driven call by call.
    DecoderTrace out;
    Span root(&tracer, "explore.explore_instruction_set", 0);
    const pokeemu::ir::Program decoder =
        traced(&tracer, "hifi.build_decoder_program",
               [] { return pokeemu::hifi::build_decoder_program(); });

    symexec::VarPool pool;
    const symexec::InitialByteFn initial =
        [&pool, symbolic_bytes](pokeemu::u32 addr) -> pokeemu::ir::ExprRef {
        if (addr >= layout::kInsnBufBase &&
            addr < layout::kInsnBufBase + symbolic_bytes) {
            return pool.get("insn_byte_" +
                                std::to_string(addr - layout::kInsnBufBase),
                            8);
        }
        return pokeemu::ir::E::constant(8, 0);
    };
    symexec::ExplorerConfig config;
    config.max_paths = max_paths;
    config.seed = 1;
    // The constructor optimizes and verifies the decoder program.
    const auto explorer = traced(&tracer, "symexec.init", [&] {
        return std::make_unique<symexec::PathExplorer>(decoder, pool,
                                                       initial, config);
    });

    explore::InsnSetResult &result = out.result;
    const auto on_path = [&](const symexec::PathInfo &info,
                             symexec::SymbolicMemory &) {
        if (info.status != symexec::PathStatus::Halted)
            return;
        if (info.halt_code == pokeemu::hifi::kDecodeInvalid) {
            ++result.invalid_sequences;
        } else if (info.halt_code == pokeemu::hifi::kDecodeTooLong) {
            ++result.toolong_sequences;
        } else {
            ++result.candidate_sequences;
            const int row = static_cast<int>(info.halt_code);
            if (!result.representatives.count(row)) {
                Encoding bytes(arch::kMaxInsnLength, 0);
                for (unsigned i = 0; i < symbolic_bytes; ++i) {
                    const auto var =
                        pool.get("insn_byte_" + std::to_string(i), 8);
                    bytes[i] = static_cast<u8>(
                        info.assignment.get(var->var_id()));
                }
                result.representatives[row] = std::move(bytes);
            }
        }
    };
    {
        Span span(&tracer, "symexec.explore", 0);
        result.stats = explorer->explore(on_path);
    }
    out.solver = explorer->solver_stats();
    return out;
}

// ---------------------------------------------------------------------
// Stages 2-5

ExecTotals
campaign_pass(const std::vector<int> &rows)
{
    pokeemu::CampaignOptions options;
    options.pipeline.max_paths_per_insn = kTableMaxPaths;
    options.pipeline.instruction_filter = rows;
    options.shards = 1;
    options.parallel = false;
    const pokeemu::CampaignResult run = pokeemu::run_campaign(options);
    const pokeemu::PipelineStats &s = run.merged;

    ExecTotals t;
    t.units = s.instructions_explored;
    t.units_complete = s.instructions_complete;
    t.units_path_capped = s.truncated_path_cap;
    t.paths = s.total_paths;
    t.solver_queries = s.solver_queries;
    t.queries_avoided = s.solver_queries_avoided;
    t.tests = s.test_programs;
    t.executed = s.tests_executed;
    t.generation_failures = s.generation_failures;
    t.quarantined = s.quarantine.units().size();
    t.oracle_timeouts = s.timeouts;
    t.backend_timeouts = s.hifi_timeouts + s.lofi_timeouts + s.hw_timeouts;
    t.lofi_raw = s.lofi_raw_diffs;
    t.hifi_raw = s.hifi_raw_diffs;
    t.lofi_diffs = s.lofi_diffs;
    t.hifi_diffs = s.hifi_diffs;
    t.filtered_undefined = s.filtered_undefined;
    t.covered_blocks = s.covered_blocks;
    t.covered_edges = s.covered_edges;
    for (const harness::Cluster &c : s.lofi_clusters.clusters())
        t.lofi_clusters[c.root_cause] = c.count;
    for (const harness::Cluster &c : s.hifi_clusters.clusters())
        t.hifi_clusters[c.root_cause] = c.count;
    return t;
}

ExecTotals &
ExecTotals::operator+=(const ExecTotals &o)
{
    units += o.units;
    units_complete += o.units_complete;
    units_path_capped += o.units_path_capped;
    paths += o.paths;
    solver_queries += o.solver_queries;
    queries_avoided += o.queries_avoided;
    tests += o.tests;
    executed += o.executed;
    generation_failures += o.generation_failures;
    quarantined += o.quarantined;
    oracle_timeouts += o.oracle_timeouts;
    backend_timeouts += o.backend_timeouts;
    lofi_raw += o.lofi_raw;
    hifi_raw += o.hifi_raw;
    lofi_diffs += o.lofi_diffs;
    hifi_diffs += o.hifi_diffs;
    filtered_undefined += o.filtered_undefined;
    covered_blocks += o.covered_blocks;
    covered_edges += o.covered_edges;
    for (const auto &[name, n] : o.lofi_clusters)
        lofi_clusters[name] += n;
    for (const auto &[name, n] : o.hifi_clusters)
        hifi_clusters[name] += n;
    return *this;
}

DriveResult
drive_units(const std::vector<Encoding> &encodings, Tracer *tracer)
{
    DriveResult out;
    ExecTotals &t = out.totals;
    LayerCounts &n = out.counts;
    const ExploreContext context(tracer);

    // Stage-2 settings as the pipeline derives them from its defaults.
    explore::StateExploreOptions xopt;
    xopt.max_paths = kTableMaxPaths;
    xopt.seed = 1;
    pokeemu::solver::QueryMemo memo;
    xopt.memo = &memo;

    // Stage-4 runner as the pipeline configures it.
    harness::TestRunner runner(harness::TestRunner::Config{});
    harness::BackendRun hifi_run, lofi_run, hw_run;

    for (std::size_t u = 0; u < encodings.size(); ++u) {
        const Encoding &bytes = encodings[u];
        Span unit_span(tracer, "pokeemu.unit", u);
        arch::DecodedInsn insn;
        if (arch::decode(bytes.data(), bytes.size(), insn) !=
            arch::DecodeStatus::Ok) {
            ++t.quarantined;
            continue;
        }
        memo.begin_unit();
        const explore::StateExploreResult explored = [&] {
            Span span(tracer, "explore.explore_instruction", u);
            return explore::explore_instruction(insn, *context.spec,
                                                &context.summary, xopt);
        }();
        ++t.units;
        t.units_complete += explored.stats.complete;
        t.units_path_capped += explored.stats.truncation ==
            pokeemu::coverage::TruncationReason::PathCap;
        t.paths += explored.stats.paths;
        t.solver_queries += explored.stats.solver_queries;
        t.queries_avoided += explored.stats.solver_queries_avoided;
        t.covered_blocks += explored.stats.covered_blocks;
        t.covered_edges += explored.stats.covered_edges;
        n.memo_hits += memo.stats().unit_hits;
        n.memo_misses += memo.stats().unit_misses;

        for (const explore::ExploredPath &path : explored.paths) {
            const pokeemu::testgen::GenResult gen = [&] {
                Span span(tracer, "testgen.generate_test_program", u);
                return pokeemu::testgen::generate_test_program(
                    insn, path.assignment, *context.spec, explored.pool);
            }();
            if (gen.status != pokeemu::testgen::GenStatus::Ok) {
                ++t.generation_failures;
                continue;
            }
            ++t.tests;
            const Encoding &code = gen.program.code;
            const auto run = [&](harness::Backend backend, const char *name,
                                 harness::BackendRun &into, u64 &insns) {
                Span span(tracer, name, u);
                runner.run_one_into(backend, code, into);
                insns += into.insns;
                t.backend_timeouts += into.timed_out;
            };
            run(harness::Backend::HiFi, "harness.run_one.hifi", hifi_run,
                n.hifi_insns);
            run(harness::Backend::LoFi, "harness.run_one.lofi", lofi_run,
                n.lofi_insns);
            run(harness::Backend::Hardware, "harness.run_one.hw", hw_run,
                n.hw_insns);
            ++t.executed;
            compare_runs(insn, lofi_run, hifi_run, hw_run, t, n, tracer, u);
        }
    }
    return out;
}

void
compare_runs(const arch::DecodedInsn &insn, const harness::BackendRun &lofi,
             const harness::BackendRun &hifi, const harness::BackendRun &hw,
             ExecTotals &t, LayerCounts &n, Tracer *tracer, u64 unit)
{
    if (hw.timed_out) {
        ++t.oracle_timeouts;
        return;
    }
    const auto analyze = [&](const harness::BackendRun &r,
                             const char *backend, u64 &raw, u64 &real,
                             std::map<std::string, u64> &clusters) {
        if (r.timed_out) {
            ++raw;
            ++real;
            ++clusters[std::string("timeout-only-") + backend];
            return;
        }
        const arch::SnapshotDiff diff = [&] {
            Span span(tracer, "arch.diff_snapshots", unit);
            return arch::diff_snapshots(r.snapshot, hw.snapshot);
        }();
        ++n.diff_calls;
        n.diff_bytes_compared += r.snapshot.ram.size();
        if (diff.empty())
            return;
        ++raw;
        const harness::FilterResult filtered = [&] {
            Span span(tracer, "harness.filter_undefined", unit);
            return harness::filter_undefined(insn, r.snapshot, hw.snapshot,
                                             diff);
        }();
        if (filtered.fully_filtered()) {
            ++t.filtered_undefined;
            return;
        }
        ++real;
        Span span(tracer, "harness.classify_difference", unit);
        ++clusters[harness::classify_difference(insn, filtered.remaining,
                                                r.snapshot, hw.snapshot)];
    };
    analyze(lofi, "lofi", t.lofi_raw, t.lofi_diffs, t.lofi_clusters);
    analyze(hifi, "hifi", t.hifi_raw, t.hifi_diffs, t.hifi_clusters);
}

BugExpectation
stock_expectation()
{
    const pokeemu::lofi::BugConfig bugs{};
    BugExpectation out;
    for (const pokeemu::defects::DefectSpec &d :
         pokeemu::defects::catalogue()) {
        if (d.kind != pokeemu::defects::DefectKind::Behavioral ||
            d.knob == nullptr || !(bugs.*d.knob)) {
            continue;
        }
        out.expected.insert(d.expected_clusters.begin(),
                            d.expected_clusters.end());
        if (d.detectable)
            out.detectable.emplace_back(d.name, d.expected_clusters);
    }
    return out;
}

u64
misattributed(const ExecTotals &totals, const BugExpectation &bugs)
{
    u64 count = 0;
    for (const auto &[cause, n] : totals.lofi_clusters) {
        if (!bugs.expected.count(cause))
            count += n;
    }
    return count;
}

std::vector<std::string>
check_table(const ExecTotals &t, const BugExpectation &bugs, u64 units)
{
    std::vector<std::string> fail;
    const auto require = [&](bool ok, const std::string &what) {
        if (!ok)
            fail.push_back(what);
    };
    require(t.units == units, "explored " + std::to_string(t.units) +
                                  " units of " + std::to_string(units));
    require(t.quarantined == 0,
            std::to_string(t.quarantined) + " units quarantined");
    require(t.generation_failures == 0,
            std::to_string(t.generation_failures) + " generation failures");
    require(t.backend_timeouts == 0 && t.oracle_timeouts == 0,
            std::to_string(t.backend_timeouts) + " backend timeouts");
    require(t.tests == t.paths && t.executed == t.paths,
            "tests " + std::to_string(t.tests) + " / executed " +
                std::to_string(t.executed) + " != paths " +
                std::to_string(t.paths));
    for (const auto &[name, clusters] : bugs.detectable) {
        const bool found = std::any_of(
            clusters.begin(), clusters.end(),
            [&](const std::string &c) { return t.lofi_clusters.count(c); });
        if (!found)
            fail.push_back("seeded bug " + name + " has no expected cluster");
    }
    for (const auto &[cause, n] : t.hifi_clusters) {
        // The documented Hi-Fi far-pointer fetch-order divergence
        // (hifi_far_fetch_order) is the one Hi-Fi difference allowed.
        if (cause != "far-pointer-fetch-order") {
            fail.push_back("Hi-Fi difference cluster " + cause + " (" +
                           std::to_string(n) + " tests)");
        }
    }
    return fail;
}

std::string
compare_insn_sets(const explore::InsnSetResult &a,
                  const explore::InsnSetResult &b)
{
    std::ostringstream os;
    const auto field = [&](const char *name, u64 x, u64 y) {
        if (x != y)
            os << name << " " << x << " != " << y << "; ";
    };
    field("paths", a.stats.paths, b.stats.paths);
    field("infeasible", a.stats.infeasible, b.stats.infeasible);
    field("solver_queries", a.stats.solver_queries, b.stats.solver_queries);
    field("tree_nodes", a.stats.tree_nodes, b.stats.tree_nodes);
    field("candidates", a.candidate_sequences, b.candidate_sequences);
    field("invalid", a.invalid_sequences, b.invalid_sequences);
    field("too_long", a.toolong_sequences, b.toolong_sequences);
    if (a.representatives != b.representatives)
        os << "representatives differ; ";
    return os.str();
}

std::string
compare_totals(const ExecTotals &a, const ExecTotals &b)
{
    std::ostringstream os;
    const auto field = [&](const char *name, u64 x, u64 y) {
        if (x != y)
            os << name << " " << x << " != " << y << "; ";
    };
    field("units", a.units, b.units);
    field("units_complete", a.units_complete, b.units_complete);
    field("units_path_capped", a.units_path_capped, b.units_path_capped);
    field("paths", a.paths, b.paths);
    field("solver_queries", a.solver_queries, b.solver_queries);
    field("queries_avoided", a.queries_avoided, b.queries_avoided);
    field("tests", a.tests, b.tests);
    field("executed", a.executed, b.executed);
    field("generation_failures", a.generation_failures,
          b.generation_failures);
    field("quarantined", a.quarantined, b.quarantined);
    field("oracle_timeouts", a.oracle_timeouts, b.oracle_timeouts);
    field("backend_timeouts", a.backend_timeouts, b.backend_timeouts);
    field("lofi_raw", a.lofi_raw, b.lofi_raw);
    field("hifi_raw", a.hifi_raw, b.hifi_raw);
    field("lofi_diffs", a.lofi_diffs, b.lofi_diffs);
    field("hifi_diffs", a.hifi_diffs, b.hifi_diffs);
    field("filtered_undefined", a.filtered_undefined, b.filtered_undefined);
    field("covered_blocks", a.covered_blocks, b.covered_blocks);
    field("covered_edges", a.covered_edges, b.covered_edges);
    if (a.lofi_clusters != b.lofi_clusters)
        os << "Lo-Fi clusters differ; ";
    if (a.hifi_clusters != b.hifi_clusters)
        os << "Hi-Fi clusters differ; ";
    return os.str();
}

} // namespace perfbench
