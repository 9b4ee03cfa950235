#include "trace.h"

#include <cassert>
#include <cstdio>

namespace perfbench {

int
Tracer::open(const char *name, std::uint64_t id)
{
    const int parent = open_.empty() ? -1 : open_.back();
    records_.push_back({name, id, parent, Clock::now(), {}});
    const int index = static_cast<int>(records_.size() - 1);
    open_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    assert(!open_.empty() && open_.back() == index);
    records_[static_cast<std::size_t>(index)].end = Clock::now();
    open_.pop_back();
}

std::map<std::string, LayerRow>
Tracer::layers() const
{
    // Child time per span, then self = duration - children.
    std::vector<double> child(records_.size(), 0.0);
    for (const Record &r : records_) {
        if (r.parent >= 0) {
            child[static_cast<std::size_t>(r.parent)] +=
                seconds_between(r.start, r.end);
        }
    }
    std::map<std::string, LayerRow> rows;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        const double d = seconds_between(r.start, r.end);
        LayerRow &row = rows[r.name];
        ++row.count;
        row.total_s += d;
        row.self_s += d - child[i];
    }
    return rows;
}

bool
Tracer::write_chrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        const double ts = seconds_between(origin_, r.start) * 1e6;
        const double dur = seconds_between(r.start, r.end) * 1e6;
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"id\": %llu}}",
                     i ? ",\n" : "", r.name, ts, dur, i, r.parent,
                     static_cast<unsigned long long>(r.id));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

bool
Tracer::write_table(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "%-36s %10s %12s %12s\n", "span", "count", "total_s",
                 "self_s");
    for (const auto &[name, row] : layers()) {
        std::fprintf(f, "%-36s %10llu %12.6f %12.6f\n", name.c_str(),
                     static_cast<unsigned long long>(row.count),
                     row.total_s, row.self_s);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
