/**
 * @file
 * The end-to-end benchmark: one workload per run, repeated as passes.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *   perfbench --self-test
 *
 * Untraced (--trace 0): build the set-up, then run whole passes of the
 * workload while the fastest pass so far still fits in S seconds,
 * check every pass's output, and print the end-to-end metrics. The
 * first pass is the reference: its output is checked, the peak memory
 * is taken after it, and every later pass must repeat its output.
 * Later passes are timed in pieces (decoder_sweep: one; table_sweep:
 * one campaign per slice of its rows, where the first pass ran one
 * campaign over all of them), and the pass time is the sum over pieces
 * of each piece's fastest time. Traced
 * (--trace 1): one untraced pass, then the pass again, re-driven call
 * by call under spans; print the per-layer metrics and write a Chrome
 * trace file and a per-layer table under .bench_out/trace. Either way
 * the last line of standard output is one JSON object; a copy goes to
 * .bench_out/results. Progress and check failures go to standard
 * error.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

int run_self_test(); // selftest.cpp

namespace {

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Where results and traces go, relative to the checkout root. */
constexpr const char *kOutDir = ".bench_out";

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** What one pass did: operations attempted and failed, and the
 *  outputs every later pass (and the traced re-drive) must repeat. */
struct PassOutcome
{
    u64 attempted = 0;
    u64 failed = 0;
    u64 paths = 0;
    std::vector<double> piece_s;              ///< Time of each piece.
                                              ///< (none on table_sweep's
                                              ///< first pass).
    pokeemu::explore::InsnSetResult insn_set; ///< decoder_sweep
    ExecTotals totals;                        ///< table_sweep
};

/** Differences between two passes' outputs ("" when equal). */
std::string
differences(const PassOutcome &a, const PassOutcome &b)
{
    return compare_insn_sets(a.insn_set, b.insn_set) +
        compare_totals(a.totals, b.totals);
}

/** The workload's fixed input, made from --seed before the passes. */
struct Workload
{
    std::string name;
    std::vector<int> rows;                  ///< table_sweep
    std::vector<std::vector<int>> slices;   ///< table_sweep, of rows
    BugExpectation bugs = stock_expectation();
    std::vector<std::string> failures;

    /** One untraced pass; checks the first pass's output. The first
     *  pass of table_sweep is one campaign over every row, a later
     *  pass one campaign per slice. */
    PassOutcome pass(bool first)
    {
        if (name == "decoder_sweep") {
            PassOutcome o;
            const auto t0 = Clock::now();
            o.insn_set = decoder_pass(kDecoderSymbolicBytes, kDecoderMaxPaths);
            o.piece_s.push_back(seconds_between(t0, Clock::now()));
            o.attempted = o.paths = o.insn_set.stats.paths;
            if (first)
                append(check_decoder(o.insn_set, kDecoderMaxPaths));
            return o;
        }
        if (first) {
            const ExecTotals t = campaign_pass(rows);
            append(check_table(t, bugs, rows.size()));
            return of(t);
        }
        ExecTotals t;
        std::vector<double> piece_s;
        for (const std::vector<int> &slice : slices) {
            const auto t0 = Clock::now();
            t += campaign_pass(slice);
            piece_s.push_back(seconds_between(t0, Clock::now()));
        }
        PassOutcome o = of(t);
        o.piece_s = std::move(piece_s);
        return o;
    }

    PassOutcome of(const ExecTotals &t) const
    {
        PassOutcome o;
        o.attempted = t.executed;
        o.failed = misattributed(t, bugs);
        o.paths = t.paths;
        o.totals = t;
        return o;
    }

    void append(const std::vector<std::string> &more)
    {
        failures.insert(failures.end(), more.begin(), more.end());
    }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peak_rss_mb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
result_json(bool correct, u64 attempted, u64 failed,
            const std::vector<Metric> &metrics)
{
    std::string s = std::string("{\"correct\": ") +
        (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return s + "}}";
}

/** Print the result line and keep a copy under kOutDir/results. */
int
emit(const Args &args, const std::string &json)
{
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    const std::filesystem::path dir =
        std::filesystem::path(kOutDir) / "results";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string file = (dir / (args.workload + "-seed" +
                                      std::to_string(args.seed) + "-trace" +
                                      (args.trace ? "1" : "0") + ".json"))
                                 .string();
    if (std::FILE *f = std::fopen(file.c_str(), "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return 0;
}

void
report_failures(const std::vector<std::string> &failures)
{
    for (const std::string &f : failures)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
}

/** The traced run: per-layer metrics, trace file, overhead. */
int
traced_run(const Args &args, Workload &w)
{
    // Untraced reference pass (also checked, as in an untraced run).
    auto t0 = Clock::now();
    const PassOutcome plain = w.pass(true);
    const double untraced_s = seconds_between(t0, Clock::now());

    Tracer tracer;
    std::vector<Metric> m;
    const auto count = [&](const char *name, u64 v) {
        m.push_back({name, static_cast<double>(v), "count"});
    };
    const auto secs = [&](const char *name, double v) {
        m.push_back({name, v, "s"});
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    // The pass again, re-driven call by call; it must reproduce the
    // untraced pass's outputs.
    PassOutcome redo;
    DecoderTrace dec;
    DriveResult drive;
    t0 = Clock::now();
    if (w.name == "decoder_sweep") {
        dec = decoder_trace(kDecoderSymbolicBytes, kDecoderMaxPaths, tracer);
        redo.insn_set = dec.result;
        redo.attempted = redo.paths = dec.result.stats.paths;
    } else {
        drive = drive_units(encodings_of(w.rows), &tracer);
        redo = w.of(drive.totals);
    }
    const double traced_s = seconds_between(t0, Clock::now());
    if (const std::string d = differences(plain, redo); !d.empty())
        w.failures.push_back("traced re-drive differs: " + d);

    const auto layers = tracer.layers();
    const auto span_total = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.total_s;
    };
    const auto span_mean = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0
                                  : it->second.total_s /
                static_cast<double>(it->second.count);
    };

    // Inputs each pass builds again: the decoder program
    // (decoder_sweep), the descriptor summary and the state spec
    // (table_sweep, as run_campaign's Pipeline builds them).
    secs("hifi.build_decoder_program_s",
         span_mean("hifi.build_decoder_program"));
    secs("hifi.summarize_descriptor_load_s",
         span_mean("hifi.summarize_descriptor_load"));
    secs("explore.build_state_spec_s", span_mean("explore.build_state_spec"));

    // Stage 1 (decoder_sweep; zero where a workload does not enter it).
    const pokeemu::solver::SolverStats &sv = dec.solver;
    const pokeemu::symexec::ExploreStats &xs = dec.result.stats;
    secs("symexec.init_s", span_total("symexec.init"));
    secs("symexec.explore_s", span_total("symexec.explore"));
    secs("symexec.self_s", span_total("symexec.explore") - sv.total_seconds);
    secs("solver.check_s", sv.total_seconds);
    secs("solver.s_per_query",
         ratio(sv.total_seconds, static_cast<double>(sv.queries)));
    secs("solver.max_query_s", sv.max_seconds);
    count("solver.queries", sv.queries);
    count("solver.sat", sv.sat);
    count("solver.unsat", sv.unsat);
    count("symexec.paths", xs.paths);
    count("symexec.infeasible", xs.infeasible);
    count("symexec.tree_nodes", xs.tree_nodes);
    m.push_back({"symexec.queries_per_path",
                 ratio(static_cast<double>(xs.solver_queries),
                       static_cast<double>(xs.paths)),
                 "ratio"});

    // Stages 2-5 (table_sweep).
    const ExecTotals &t = drive.totals;
    const LayerCounts &n = drive.counts;
    const double explore_s = span_total("explore.explore_instruction");
    secs("explore.explore_instruction_s", explore_s);
    count("explore.solver_queries", t.solver_queries);
    count("explore.queries_avoided", t.queries_avoided);
    count("explore.memo_hits", n.memo_hits);
    count("explore.memo_misses", n.memo_misses);
    m.push_back({"explore.memo_hit_ratio",
                 ratio(static_cast<double>(n.memo_hits),
                       static_cast<double>(n.memo_hits + n.memo_misses)),
                 "ratio"});
    secs("explore.s_per_query",
         ratio(explore_s, static_cast<double>(t.solver_queries)));
    secs("testgen.generate_s", span_total("testgen.generate_test_program"));
    count("testgen.failures", t.generation_failures);
    secs("harness.run_hifi_s", span_total("harness.run_one.hifi"));
    secs("harness.run_lofi_s", span_total("harness.run_one.lofi"));
    secs("harness.run_hw_s", span_total("harness.run_one.hw"));
    count("hifi.insns", n.hifi_insns);
    count("lofi.insns", n.lofi_insns);
    count("hw.insns", n.hw_insns);
    secs("arch.diff_snapshots_s", span_total("arch.diff_snapshots"));
    count("arch.diff_calls", n.diff_calls);
    count("arch.diff_bytes_compared", n.diff_bytes_compared);
    secs("harness.filter_undefined_s", span_total("harness.filter_undefined"));
    secs("harness.classify_s", span_total("harness.classify_difference"));
    count("coverage.blocks_covered", t.covered_blocks);
    count("coverage.edges_covered", t.covered_edges);
    secs("pokeemu.unit_self_s",
         layers.count("pokeemu.unit") ? layers.at("pokeemu.unit").self_s : 0);

    // The pass itself, traced and not, and what tracing cost.
    secs("pass.untraced_s", untraced_s);
    secs("pass.traced_s", traced_s);
    secs("trace.overhead_s", traced_s - untraced_s);
    count("trace.spans", tracer.records().size());

    const std::filesystem::path dir =
        std::filesystem::path(kOutDir) / "trace";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string stem =
        (dir / (args.workload + "-seed" + std::to_string(args.seed)))
            .string();
    if (!tracer.write_chrome(stem + ".trace.json") ||
        !tracer.write_table(stem + ".layers.txt")) {
        w.failures.push_back("could not write the trace under " +
                             dir.string());
    }
    std::fprintf(stderr, "perfbench: trace written to %s.trace.json\n",
                 stem.c_str());

    report_failures(w.failures);
    return emit(args, result_json(w.failures.empty(),
                                  plain.attempted + redo.attempted,
                                  plain.failed + redo.failed, m));
}

int
untraced_run(const Args &args, Workload &w, double setup_s)
{
    std::vector<double> times;   // Whole passes.
    std::vector<double> fastest; // Per piece, over passes 2 and later.
    PassOutcome first;
    double peak_mb = 0;
    u64 attempted = 0;
    u64 failed = 0;
    // Whole passes only, at least two: another starts while the
    // fastest pass so far still fits in the run's time.
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        const PassOutcome o = w.pass(times.empty());
        times.push_back(seconds_between(t0, Clock::now()));
        if (times.size() == 1) {
            first = o;
            // Later passes add allocator growth that depends on how
            // many passes fit, so the peak is taken after the first.
            peak_mb = peak_rss_mb();
        } else {
            if (const std::string d = differences(first, o); !d.empty()) {
                w.failures.push_back("pass " + std::to_string(times.size()) +
                                     " differs from pass 1: " + d);
            }
            if (fastest.empty())
                fastest = o.piece_s;
            for (std::size_t i = 0; i < fastest.size(); ++i)
                fastest[i] = std::min(fastest[i], o.piece_s[i]);
        }
        attempted += o.attempted;
        failed += o.failed;
        std::fprintf(stderr, "perfbench: %s pass %zu: %.4f s\n",
                     w.name.c_str(), times.size(), times.back());
    } while (times.size() < 2 ||
             seconds_between(start, Clock::now()) +
                     *std::min_element(times.begin(), times.end()) <=
                 args.seconds);

    // The pass time sums each piece's fastest time: the host only ever
    // slows a piece down, and it runs slow for stretches of seconds at
    // a time (see README.md for the spread this was chosen on).
    double wall = 0;
    for (double s : fastest)
        wall += s;
    std::fprintf(stderr, "perfbench: %zu passes, fastest %.4f s, median "
                 "%.4f s, sum of the fastest pieces %.4f s\n",
                 times.size(), *std::min_element(times.begin(), times.end()),
                 median(times), wall);
    report_failures(w.failures);
    std::vector<Metric> m = {
        {"wall_s", wall, "s"},
        {"paths_per_s", static_cast<double>(first.paths) / wall, "1/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_mb, "MB"},
    };
    return emit(args, result_json(w.failures.empty(), attempted, failed, m));
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload decoder_sweep|table_sweep "
                 "--seed N --seconds S --trace 0|1\n"
                 "       perfbench --self-test\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const auto process_start = Clock::now();
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test")
            return run_self_test();
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            args.workload = value;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace" && (value == "0" || value == "1")) {
            args.trace = value == "1";
        } else {
            return usage();
        }
        if (end != nullptr && (end == value.c_str() || *end != '\0'))
            return usage();
    }
    if (args.workload != "decoder_sweep" && args.workload != "table_sweep")
        return usage();

    // Cold set-up, timed from the start of the process.
    Workload w;
    w.name = args.workload;
    build_static_tables();
    if (w.name == "table_sweep") {
        w.rows = table_rows(args.seed);
        w.slices = table_slices(w.rows);
    }
    const double setup_s = seconds_between(process_start, Clock::now());

    return args.trace ? traced_run(args, w)
                      : untraced_run(args, w, setup_s);
}
