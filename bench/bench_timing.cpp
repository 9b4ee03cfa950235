/**
 * @file
 * Experiment E6 (paper §6 cost accounting) plus E14 (compiled
 * semantics): wall time per pipeline stage and per backend, and the
 * interpreter-vs-compiled concrete-replay speedup. Emits
 * BENCH_timing.json.
 *
 * The paper reports 545.4 CPU-hours for test generation,
 * 198.7/391.9/48.5 CPU-hours for execution on QEMU, Bochs and
 * hardware, and 175.9 CPU-hours for comparison (~$235 of 2011 EC2
 * time). Absolute numbers scale with the substrate; the shapes to
 * check are:
 *   - generation (symbolic exploration) dominates execution;
 *   - the interpreter-style Hi-Fi backend is the slowest executor and
 *     the hardware oracle the fastest (paper: Bochs 391.9h > QEMU
 *     198.7h > hardware 48.5h);
 *   - comparison is cheaper than execution.
 *
 * The compiled-replay measurements (hifi/compiled.h):
 *   - microbench: every compiled unit's program replayed from many
 *     initial states, IR interpreter vs generated native handler,
 *     over identical flat-array worlds — the concrete-replay hot path
 *     in isolation (floor 5x, target 10x);
 *   - end to end: the Hi-Fi backend re-executing a generated test set
 *     with compiled replay off vs on (fetch/decode/dispatch included).
 *
 * The smoke ctest run gates the contract: the compiled path must be
 * at least as fast as the interpreter on the microbench, and both
 * worlds must remain byte-identical after the full sweep.
 *
 * Scale knobs: POKEEMU_STATES (microbench replay rounds),
 * POKEEMU_PATHS / POKEEMU_INSNS (full-mode E6 sweep).
 */
#include <chrono>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "harness/runner.h"
#include "hifi/compiled.h"

using namespace pokeemu;
namespace layout = arch::layout;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Flat-array IR address space mirroring HiFiEmulator's backing store
 * (CPU state image, scratch, wrapped guest physical RAM), seeded with
 * a deterministic byte pattern. Unlike hifi::ReplayMemory (a sparse
 * overlay for differential testing) this measures the memory cost the
 * real emulator pays. Two instances fed identical run sequences stay
 * byte-identical iff handlers match the interpreter, so the sweep
 * doubles as an end-of-run divergence check.
 */
class FlatMemory final : public ir::ConcreteMemory
{
  public:
    FlatMemory()
        : state_(layout::kCpuStateSize), scratch_(0x100),
          ram_(arch::kPhysMemSize)
    {
        fill(state_, 1);
        fill(scratch_, 2);
        fill(ram_, 3);
    }

    u64 load(u32 addr, unsigned size) override
    {
        u64 v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<u64>(*at(addr + i)) << (8 * i);
        return v;
    }

    void store(u32 addr, unsigned size, u64 value) override
    {
        for (unsigned i = 0; i < size; ++i)
            *at(addr + i) = static_cast<u8>(value >> (8 * i));
    }

    bool operator==(const FlatMemory &o) const
    {
        return state_ == o.state_ && scratch_ == o.scratch_ &&
            ram_ == o.ram_;
    }

  private:
    static void fill(std::vector<u8> &v, u64 salt)
    {
        for (std::size_t i = 0; i < v.size(); ++i) {
            u64 z = salt + 0x9e3779b97f4a7c15ull * (i + 1);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            v[i] = static_cast<u8>(z ^ (z >> 31));
        }
    }

    u8 *at(u32 a)
    {
        if (a >= layout::kGuestPhysBase) {
            return &ram_[(a - layout::kGuestPhysBase) &
                         (arch::kPhysMemSize - 1)];
        }
        if (a >= layout::kInsnBufBase &&
            a < layout::kInsnBufBase + 0x100) {
            return &scratch_[a - layout::kInsnBufBase];
        }
        if (a >= layout::kCpuBase &&
            a < layout::kCpuBase + layout::kCpuStateSize) {
            return &state_[a - layout::kCpuBase];
        }
        return &sink_; // Out-of-region addresses are unreachable from
                       // generated programs; absorb defensively.
    }

    std::vector<u8> state_, scratch_, ram_;
    u8 sink_ = 0;
};

int
index_of(std::initializer_list<u8> bytes)
{
    std::vector<u8> buf(bytes);
    buf.resize(arch::kMaxInsnLength, 0);
    arch::DecodedInsn insn;
    if (arch::decode(buf.data(), buf.size(), insn) !=
        arch::DecodeStatus::Ok) {
        return -1;
    }
    return insn.table_index;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    bench::header("E6 + E14: cost accounting and compiled replay",
                  "paper §6 CPU-hour table");

    // ------------------------------------------------------------------
    // Microbench: the concrete-replay hot path in isolation. Both
    // sides execute the identical workload (the worlds evolve in
    // lockstep because handlers mirror the interpreter exactly), so
    // wall-clock ratio is the per-statement speedup.
    // ------------------------------------------------------------------
    const u64 rounds = bench::env_u64("POKEEMU_STATES", smoke ? 64 : 256);
    const auto &units = hifi::compiled_units();
    const hifi::CompiledTable &table = hifi::compiled_table();
    if (table.semantics_hash != hifi::compiled_expected_hash() ||
        table.num_entries != units.size()) {
        std::fprintf(stderr, "stale compiled table — regenerate\n");
        return 1;
    }

    FlatMemory interp_world, compiled_world;
    u64 micro_insns = 0;
    u64 micro_stmts = 0;
    double t_interp = 0;
    {
        const auto t0 = std::chrono::steady_clock::now();
        for (u64 r = 0; r < rounds; ++r) {
            for (const hifi::CompiledUnit &unit : units) {
                micro_stmts +=
                    ir::run_concrete(unit.program, interp_world).steps;
                ++micro_insns;
            }
        }
        t_interp = seconds_since(t0);
    }
    double t_compiled = 0;
    u64 compiled_stmts = 0;
    {
        const auto t0 = std::chrono::steady_clock::now();
        for (u64 r = 0; r < rounds; ++r) {
            for (std::size_t u = 0; u < units.size(); ++u) {
                compiled_stmts +=
                    table.entries[u].handler(compiled_world, 1u << 22)
                        .steps;
            }
        }
        t_compiled = seconds_since(t0);
    }
    const bool micro_identical = interp_world == compiled_world &&
        micro_stmts == compiled_stmts;
    const double micro_speedup =
        t_compiled == 0 ? 0.0 : t_interp / t_compiled;
    std::printf(
        "microbench: %zu units x %llu states, %llu replays, %llu IR "
        "stmts\n  interpreter %.3fs (%.0f stmts/s), compiled %.3fs "
        "(%.0f stmts/s)\n  speedup %.2fx (floor 5x, target 10x), "
        "worlds %s\n",
        units.size(), static_cast<unsigned long long>(rounds),
        static_cast<unsigned long long>(micro_insns),
        static_cast<unsigned long long>(micro_stmts), t_interp,
        t_interp == 0 ? 0.0 : static_cast<double>(micro_stmts) / t_interp,
        t_compiled,
        t_compiled == 0
            ? 0.0
            : static_cast<double>(compiled_stmts) / t_compiled,
        micro_speedup, micro_identical ? "identical" : "DIVERGED");

    // ------------------------------------------------------------------
    // End to end: Hi-Fi backend re-executing a generated test set,
    // compiled replay off vs on (fetch, IR decode and dispatch included).
    // ------------------------------------------------------------------
    std::vector<testgen::TestProgram> programs;
    double t_e6_table = 0;
    const PipelineStats *sweep_stats = nullptr;
    if (smoke) {
        PipelineOptions options;
        options.instruction_filter = {
            index_of({0x50}),       // push eax
            index_of({0xc9}),       // leave
            index_of({0x74, 0x00}), // jz
            index_of({0xd3, 0xe0}), // shl eax, cl
            index_of({0x01, 0x08}), // add [eax], ecx
        };
        options.max_paths_per_insn = 8;
        Pipeline pipeline(options);
        pipeline.explore_and_generate();
        for (const GeneratedTest &test : pipeline.tests())
            programs.push_back(test.program);
    } else {
        const auto t0 = std::chrono::steady_clock::now();
        Pipeline &pipeline = bench::sweep_pipeline();
        t_e6_table = seconds_since(t0);
        sweep_stats = &pipeline.stats();
        for (const GeneratedTest &test : pipeline.tests())
            programs.push_back(test.program);
    }

    double t_e2e_off = 0, t_e2e_on = 0;
    u64 e2e_insns_off = 0, e2e_insns_on = 0;
    u64 hits_off = 0, hits_on = 0;
    {
        harness::TestRunner::Config cfg;
        harness::TestRunner off_runner(cfg);
        cfg.hifi_options.compiled = true;
        harness::TestRunner on_runner(cfg);
        harness::BackendRun run;
        auto t0 = std::chrono::steady_clock::now();
        for (const testgen::TestProgram &program : programs) {
            off_runner.run_one_into(harness::Backend::HiFi,
                                    program.code, run);
            e2e_insns_off += run.insns;
        }
        t_e2e_off = seconds_since(t0);
        hits_off = off_runner.hifi().compiled_hits();

        t0 = std::chrono::steady_clock::now();
        for (const testgen::TestProgram &program : programs) {
            on_runner.run_one_into(harness::Backend::HiFi,
                                   program.code, run);
            e2e_insns_on += run.insns;
        }
        t_e2e_on = seconds_since(t0);
        hits_on = on_runner.hifi().compiled_hits();
    }
    const double e2e_speedup =
        t_e2e_on == 0 ? 0.0 : t_e2e_off / t_e2e_on;
    std::printf(
        "end to end: %zu tests, %llu insns\n  interpreter %.3fs "
        "(%.0f insns/s), compiled %.3fs (%.0f insns/s), speedup "
        "%.2fx\n  dispatch: %llu compiled of %llu retired (off-mode "
        "hits: %llu)\n",
        programs.size(), static_cast<unsigned long long>(e2e_insns_off),
        t_e2e_off,
        t_e2e_off == 0
            ? 0.0
            : static_cast<double>(e2e_insns_off) / t_e2e_off,
        t_e2e_on,
        t_e2e_on == 0 ? 0.0
                      : static_cast<double>(e2e_insns_on) / t_e2e_on,
        e2e_speedup, static_cast<unsigned long long>(hits_on),
        static_cast<unsigned long long>(e2e_insns_on),
        static_cast<unsigned long long>(hits_off));
    const bool e2e_identical = e2e_insns_off == e2e_insns_on;
    const bool dispatch_used = hits_on > 0 && hits_off == 0;

    // ------------------------------------------------------------------
    // E6 cost table (full mode: needs the whole sweep executed).
    // ------------------------------------------------------------------
    bool hifi_slowest = true;
    bool hw_fastest = true;
    if (sweep_stats != nullptr) {
        const PipelineStats &s = *sweep_stats;
        const double generation =
            s.t_state_exploration + s.t_generation;
        std::printf(
            "\nstage                    paper (CPU-h)  this repro (s)\n");
        std::printf("test generation          545.4          %.2f\n",
                    generation);
        std::printf("execution on lo-fi       198.7 (QEMU)   %.2f\n",
                    s.t_execution_lofi);
        std::printf("execution on hi-fi       391.9 (Bochs)  %.2f\n",
                    s.t_execution_hifi);
        std::printf("execution on hardware    48.5 (KVM)     %.2f\n",
                    s.t_execution_hw);
        std::printf("results comparison       175.9          %.2f\n",
                    s.t_comparison);
        std::printf("tests                    610,516        %llu\n",
                    static_cast<unsigned long long>(s.tests_executed));
        hifi_slowest = s.t_execution_hifi > s.t_execution_lofi &&
            s.t_execution_hifi > s.t_execution_hw;
        // The hardware oracle and the Lo-Fi emulator share the direct
        // execution core (DESIGN.md §2), so "hardware is fastest" can
        // only be checked up to noise: the real 4x KVM-vs-QEMU gap
        // came from native execution, which a software oracle cannot
        // reproduce.
        hw_fastest = s.t_execution_hw <= s.t_execution_lofi * 1.15;
        std::printf("\nshape checks:\n");
        std::printf("  hi-fi (interpreter) slowest executor: %s\n",
                    hifi_slowest ? "PASS" : "FAIL");
        std::printf("  hardware oracle not slower than lo-fi (see "
                    "comment): %s\n",
                    hw_fastest ? "PASS" : "FAIL");
        std::printf("  generation dominates execution (only at paper "
                    "scale): %s\n",
                    generation > s.t_execution_lofi
                        ? "yes"
                        : "no (expected at bench scale)");
    }
    (void)t_e6_table;

    // The gate: compiled must never be slower than the interpreter on
    // the hot path, and the worlds must match byte for byte.
    const bool ok = micro_identical && e2e_identical && dispatch_used &&
        micro_speedup >= 1.0 && hifi_slowest && hw_fastest;

    {
        std::FILE *out = std::fopen("BENCH_timing.json", "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write BENCH_timing.json\n");
            return 1;
        }
        std::fprintf(out, "{\n  \"bench\": \"timing\",\n");
        std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
        std::fprintf(out, "  \"replay_units\": %zu,\n", units.size());
        std::fprintf(out, "  \"replay_states_per_unit\": %llu,\n",
                     static_cast<unsigned long long>(rounds));
        std::fprintf(out, "  \"replay_insns\": %llu,\n",
                     static_cast<unsigned long long>(micro_insns));
        std::fprintf(out, "  \"replay_ir_stmts\": %llu,\n",
                     static_cast<unsigned long long>(micro_stmts));
        std::fprintf(out, "  \"replay_seconds_interpreter\": %.6f,\n",
                     t_interp);
        std::fprintf(out, "  \"replay_seconds_compiled\": %.6f,\n",
                     t_compiled);
        std::fprintf(
            out, "  \"replay_insns_per_sec_interpreter\": %.0f,\n",
            t_interp == 0
                ? 0.0
                : static_cast<double>(micro_insns) / t_interp);
        std::fprintf(
            out, "  \"replay_insns_per_sec_compiled\": %.0f,\n",
            t_compiled == 0
                ? 0.0
                : static_cast<double>(micro_insns) / t_compiled);
        std::fprintf(out, "  \"replay_speedup\": %.3f,\n",
                     micro_speedup);
        std::fprintf(out, "  \"replay_speedup_floor\": 5.0,\n");
        std::fprintf(out, "  \"replay_speedup_target\": 10.0,\n");
        std::fprintf(out, "  \"replay_worlds_identical\": %s,\n",
                     micro_identical ? "true" : "false");
        std::fprintf(out, "  \"e2e_tests\": %zu,\n", programs.size());
        std::fprintf(out, "  \"e2e_insns\": %llu,\n",
                     static_cast<unsigned long long>(e2e_insns_off));
        std::fprintf(out, "  \"e2e_seconds_interpreter\": %.6f,\n",
                     t_e2e_off);
        std::fprintf(out, "  \"e2e_seconds_compiled\": %.6f,\n",
                     t_e2e_on);
        std::fprintf(out, "  \"e2e_speedup\": %.3f,\n", e2e_speedup);
        std::fprintf(out, "  \"e2e_compiled_hits\": %llu,\n",
                     static_cast<unsigned long long>(hits_on));
        if (sweep_stats != nullptr) {
            const PipelineStats &s = *sweep_stats;
            std::fprintf(out, "  \"e6_generation_seconds\": %.3f,\n",
                         s.t_state_exploration + s.t_generation);
            std::fprintf(out, "  \"e6_execution_hifi_seconds\": %.3f,\n",
                         s.t_execution_hifi);
            std::fprintf(out, "  \"e6_execution_lofi_seconds\": %.3f,\n",
                         s.t_execution_lofi);
            std::fprintf(out, "  \"e6_execution_hw_seconds\": %.3f,\n",
                         s.t_execution_hw);
            std::fprintf(out, "  \"e6_comparison_seconds\": %.3f,\n",
                         s.t_comparison);
        }
        std::fprintf(out, "  \"ok\": %s\n}\n", ok ? "true" : "false");
        std::fclose(out);
    }
    std::printf("wrote BENCH_timing.json\n");
    return ok ? 0 : 1;
}
