// spinbench/spans.hpp
//
// In-memory span log for the benchmark's traced ledger pass. Every public
// call the harness makes into a layer is wrapped in a Scope; a span records
// its name, start, end and the span that caused it (its parent). Spans stay
// in memory while the workload runs and are written once at exit, so the
// file system is never touched inside a timed region.
//
// A disabled log records nothing and never reads the clock: the harness runs
// the same ledger code with the log disabled and enabled, and the wall-time
// ratio of the two passes is the tracing overhead.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace spinbench {

class SpanLog {
public:
    struct Span {
        const char* name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1;  ///< index into spans(), -1 for a root span
    };

    /// Per-name totals; self time is the span's duration minus the part its
    /// child spans cover.
    struct Totals {
        std::uint64_t count = 0;
        std::int64_t total_ns = 0;
        std::int64_t self_ns = 0;
    };

    explicit SpanLog(bool enabled) : enabled_{enabled} {
        if (enabled_) spans_.reserve(1U << 16);
    }

    /// RAII span: opens at construction, closes at destruction.
    class Scope {
    public:
        Scope(SpanLog& log, const char* name) : log_{log} {
            if (!log_.enabled_) return;
            index_ = static_cast<std::int32_t>(log_.spans_.size());
            log_.spans_.push_back(Span{name, now_ns(), 0, log_.current_});
            log_.current_ = index_;
        }
        ~Scope() {
            if (index_ < 0) return;
            auto& span = log_.spans_[static_cast<std::size_t>(index_)];
            span.end_ns = now_ns();
            log_.current_ = span.parent;
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog& log_;
        std::int32_t index_ = -1;
    };

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    [[nodiscard]] std::map<std::string, Totals> totals() const {
        std::vector<std::int64_t> child_ns(spans_.size(), 0);
        for (const auto& span : spans_) {
            if (span.parent >= 0) {
                child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
            }
        }
        std::map<std::string, Totals> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto duration = spans_[i].end_ns - spans_[i].start_ns;
            auto& totals = out[spans_[i].name];
            ++totals.count;
            totals.total_ns += duration;
            totals.self_ns += duration - child_ns[i];
        }
        return out;
    }

    /// Durations (ns) of every span called `name`, in recording order.
    [[nodiscard]] std::vector<std::int64_t> durations(const std::string& name) const {
        std::vector<std::int64_t> out;
        for (const auto& span : spans_) {
            if (name == span.name) out.push_back(span.end_ns - span.start_ns);
        }
        return out;
    }

    /// Writes the first `max_rows` spans as tab-separated rows (id, parent,
    /// name, start_ns, end_ns; times relative to the first span) followed by
    /// the per-name totals over every span. Returns false when the file
    /// cannot be written.
    bool write(const std::string& path, std::size_t max_rows) const {
        std::FILE* out = std::fopen(path.c_str(), "w");
        if (out == nullptr) return false;
        const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
        const std::size_t rows = std::min(max_rows, spans_.size());
        std::fprintf(out, "# id\tparent\tname\tstart_ns\tend_ns (%zu of %zu spans)\n", rows,
                     spans_.size());
        for (std::size_t i = 0; i < rows; ++i) {
            const auto& span = spans_[i];
            std::fprintf(out, "%zu\t%d\t%s\t%lld\t%lld\n", i, span.parent, span.name,
                         static_cast<long long>(span.start_ns - origin),
                         static_cast<long long>(span.end_ns - origin));
        }
        std::fprintf(out, "# name\tcount\ttotal_ns\tself_ns\n");
        for (const auto& [name, totals] : this->totals()) {
            std::fprintf(out, "#T\t%s\t%llu\t%lld\t%lld\n", name.c_str(),
                         static_cast<unsigned long long>(totals.count),
                         static_cast<long long>(totals.total_ns),
                         static_cast<long long>(totals.self_ns));
        }
        return std::fclose(out) == 0;
    }

private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    bool enabled_;
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
};

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty set.
inline double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(rank, values.size() - 1)];
}

}  // namespace spinbench
