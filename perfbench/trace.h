/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a layer of the library, recorded from the
 * benchmark's own code: a name ("<layer>.<call>"), a start and an end
 * on the steady clock, the span that was open when it began (its
 * parent), and the id of the unit or test it belongs to. Spans are
 * kept in memory and written out once, at the end of the run, as a
 * Chrome trace-event file plus a per-name table with total and self
 * time (self = duration minus the time covered by child spans; the
 * benchmark is single-threaded, so children never overlap).
 *
 * A null Tracer* disables recording: Span is then a no-op, so the
 * same code serves the untraced and the traced pass.
 */
#ifndef POKEEMU_PERFBENCH_TRACE_H
#define POKEEMU_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Per-name aggregate of recorded spans. */
struct LayerRow
{
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
};

class Tracer
{
  public:
    struct Record
    {
        const char *name;
        std::uint64_t id;
        int parent; ///< Index of the enclosing span, -1 at the root.
        Clock::time_point start;
        Clock::time_point end;
    };

    Tracer() : origin_(Clock::now()) {}

    /** Open a span; returns its index for close(). */
    int open(const char *name, std::uint64_t id);
    void close(int index);

    const std::vector<Record> &records() const { return records_; }

    /** Totals and self times by span name. */
    std::map<std::string, LayerRow> layers() const;

    /** Write the Chrome trace-event file; false on I/O failure. */
    bool write_chrome(const std::string &path) const;
    /** Write the per-layer table as text; false on I/O failure. */
    bool write_table(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<int> open_; ///< Stack of open span indices.
};

/** RAII span; a no-op when the tracer is null. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, std::uint64_t id)
        : tracer_(tracer),
          index_(tracer ? tracer->open(name, id) : -1)
    {
    }
    ~Span()
    {
        if (tracer_)
            tracer_->close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    int index_;
};

} // namespace perfbench

#endif // POKEEMU_PERFBENCH_TRACE_H
