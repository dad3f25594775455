/**
 * @file
 * In-process runs on a HoardAllocator<NativePolicy> whose Config is a
 * copy of the facade's (global_allocator().config()), so it follows
 * whatever libhoard.so deploys.
 *
 *   --mode untraced  the workload calls allocate/deallocate directly;
 *                    its ns/pair is the base the shim's cost and the
 *                    tracing overhead are measured against.
 *   --mode traced    every call is timed into per-kind histograms;
 *                    spans are kept for a 1-in-kSpanSampleEvery sample
 *                    of calls and for every call that reached the page
 *                    provider, whose calls a decorator times as child
 *                    spans.  Counts are stats() deltas over the timed
 *                    phase.  Spans go to --spans FILE at exit as Chrome
 *                    trace JSON.
 *   --mode env       prints the build and facade configuration.
 *
 * All trace buffers come from this program's own malloc (glibc: the
 * binary is never preloaded), never from the measured instance.  Each
 * thread reserves its span buffer before its first traced call; the
 * reservation is address space only, and pages become resident as
 * spans fill them.
 */

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "core/facade.h"
#include "core/hoard_allocator.h"
#include "obs/gating.h"
#include "os/page_provider.h"
#include "policy/native_policy.h"
#include "workloads.h"

namespace {

using Hoard = hoard::HoardAllocator<hoard::NativePolicy>;
using perfbench::now_ns;

enum SpanKind : std::uint8_t
{
    kAllocate,
    kDeallocate,
    kMap,
    kUnmap,
    kPurge,
    kUnpurge,
    kPrewarm,
    kKinds,
};

const char* const kSpanNames[kKinds] = {
    "core.allocate", "core.deallocate", "os.map",    "os.unmap",
    "os.purge",      "os.unpurge",      "os.prewarm",
};

struct Span
{
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 for a root span
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t thread;
    SpanKind kind;
};

/** Only the timed phase is traced. */
std::atomic<bool> g_tracing{false};

/// A span is kept for one allocator call in this many, besides every
/// call that reached the provider.
constexpr std::uint64_t kSpanSampleEvery = 1024;

/** Trace state of one thread, written only by that thread. */
struct ThreadTrace
{
    /// 40 MiB of address space per thread.  A traced midsize-spans run
    /// of the longest length run.py asks for (4 s) fills about a third
    /// of it; a span past it is counted in spans_dropped.
    static constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

    explicit ThreadTrace(std::uint32_t index) : thread(index)
    {
        spans.reserve(kSpanCapacity);
    }

    std::uint64_t
    next_id()
    {
        return (std::uint64_t{thread} + 1) << 40 | ++seq;
    }

    void
    keep(const Span& span)
    {
        if (spans.size() < kSpanCapacity)
            spans.push_back(span);
        else
            ++spans_dropped;
    }

    /// Call ids; the allocator call in progress is `current` (0: none).
    std::uint32_t thread;
    std::uint64_t seq = 0;
    std::uint64_t current = 0;
    std::uint64_t current_os_ns = 0;
    std::uint32_t current_os_calls = 0;

    std::uint64_t calls = 0;
    std::uint64_t call_ns = 0;        ///< allocate + deallocate time
    std::uint64_t os_in_call_ns = 0;  ///< provider time inside calls
    std::uint64_t counts[kKinds] = {};
    std::uint64_t spans_dropped = 0;
    std::vector<Span> spans;
    /// Duration of every traced call, per kind.
    perfbench::Histogram durations[kKinds];
};

class TraceRegistry
{
  public:
    ThreadTrace&
    mine()
    {
        thread_local ThreadTrace* t_trace = nullptr;
        if (t_trace == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            traces_.push_back(std::make_unique<ThreadTrace>(
                static_cast<std::uint32_t>(traces_.size())));
            t_trace = traces_.back().get();
        }
        return *t_trace;
    }

    /// Read only after every traced thread has been joined.
    const std::vector<std::unique_ptr<ThreadTrace>>& all() const { return traces_; }

  private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadTrace>> traces_;
};

TraceRegistry g_traces;

/**
 * Page-provider decorator: forwards to the process-wide default
 * provider and, while tracing, records each map/unmap/purge/unpurge/
 * prewarm as a child span of the allocator call in progress.
 */
class TimedProvider final : public hoard::os::PageProvider
{
  public:
    explicit TimedProvider(hoard::os::PageProvider& inner) : inner_(inner) {}

  private:
    template <typename F>
    auto
    timed(SpanKind kind, F&& call)
    {
        if (!g_tracing.load(std::memory_order_relaxed))
            return call();
        ThreadTrace& tr = g_traces.mine();
        const std::uint64_t t0 = now_ns();
        auto result = call();
        const std::uint64_t t1 = now_ns();
        const std::uint64_t ns = t1 - t0;
        ++tr.counts[kind];
        tr.durations[kind].add(ns);
        if (tr.current != 0) {
            tr.current_os_ns += ns;
            ++tr.current_os_calls;
        }
        tr.keep({tr.next_id(), tr.current, t0, t1, tr.thread, kind});
        return result;
    }

  public:
    void*
    map(std::size_t bytes, std::size_t align) override
    {
        return timed(kMap, [&] { return inner_.map(bytes, align); });
    }

    void
    unmap(void* p, std::size_t bytes) override
    {
        timed(kUnmap, [&] {
            inner_.unmap(p, bytes);
            return 0;
        });
    }

    bool
    purge(void* p, std::size_t bytes) override
    {
        return timed(kPurge, [&] { return inner_.purge(p, bytes); });
    }

    void
    unpurge(void* p, std::size_t bytes) override
    {
        timed(kUnpurge, [&] {
            inner_.unpurge(p, bytes);
            return 0;
        });
    }

    std::size_t
    prewarm(std::size_t bytes, std::size_t count) override
    {
        return timed(kPrewarm, [&] { return inner_.prewarm(bytes, count); });
    }

    std::size_t mapped_bytes() const override { return inner_.mapped_bytes(); }
    std::size_t peak_mapped_bytes() const override { return inner_.peak_mapped_bytes(); }
    std::size_t reserved_bytes() const override { return inner_.reserved_bytes(); }
    std::size_t peak_reserved_bytes() const override { return inner_.peak_reserved_bytes(); }

  private:
    hoard::os::PageProvider& inner_;
};

struct InprocApi
{
    Hoard& hoard;
    void* malloc(std::size_t size) { return hoard.allocate(size); }
    void free(void* p) { hoard.deallocate(p); }
};

/** Times every allocator call and keeps the spans described above. */
struct TracedApi
{
    Hoard& hoard;

    void*
    malloc(std::size_t size)
    {
        if (!g_tracing.load(std::memory_order_relaxed))
            return hoard.allocate(size);
        ThreadTrace& tr = begin(g_traces.mine());
        const std::uint64_t t0 = now_ns();
        void* p = hoard.allocate(size);
        end(tr, kAllocate, t0, now_ns());
        return p;
    }

    void
    free(void* p)
    {
        if (!g_tracing.load(std::memory_order_relaxed))
            return hoard.deallocate(p);
        ThreadTrace& tr = begin(g_traces.mine());
        const std::uint64_t t0 = now_ns();
        hoard.deallocate(p);
        end(tr, kDeallocate, t0, now_ns());
    }

    static ThreadTrace&
    begin(ThreadTrace& tr)
    {
        tr.current = tr.next_id();
        tr.current_os_ns = 0;
        tr.current_os_calls = 0;
        return tr;
    }

    static void
    end(ThreadTrace& tr, SpanKind kind, std::uint64_t t0, std::uint64_t t1)
    {
        ++tr.calls;
        ++tr.counts[kind];
        tr.call_ns += t1 - t0;
        tr.os_in_call_ns += tr.current_os_ns;
        tr.durations[kind].add(t1 - t0);
        if (tr.calls % kSpanSampleEvery == 0 || tr.current_os_calls != 0)
            tr.keep({tr.current, 0, t0, t1, tr.thread, kind});
        tr.current = 0;
    }
};

/** The stats() counters the per-layer metrics read, as plain values. */
struct StatsSnapshot
{
    std::uint64_t oom_failures, bad_frees, batch_refills, batch_flushes,
        remote_frees, remote_drains, superblock_transfers, global_fetches,
        global_bin_hits, global_bin_misses, cache_pops, huge_allocs;

    static StatsSnapshot
    of(const hoard::detail::AllocatorStats& s)
    {
        return {s.oom_failures.get(),
                s.bad_free_wild.get() + s.bad_free_foreign.get() +
                    s.bad_free_interior.get() + s.bad_free_double.get(),
                s.batch_refills.get(),
                s.batch_flushes.get(),
                s.remote_frees.get(),
                s.remote_drains.get(),
                s.superblock_transfers.get(),
                s.global_fetches.get(),
                s.global_bin_hits.get(),
                s.global_bin_misses.get(),
                s.cache_pops.get(),
                s.huge_allocs.get()};
    }
};

std::string
stats_json(const StatsSnapshot& a, const StatsSnapshot& b)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"oom_failures\": %" PRIu64 ", \"bad_frees\": %" PRIu64
        ", \"batch_refills\": %" PRIu64 ", \"batch_flushes\": %" PRIu64
        ", \"remote_frees\": %" PRIu64 ", \"remote_drains\": %" PRIu64
        ", \"superblock_transfers\": %" PRIu64
        ", \"global_fetches\": %" PRIu64 ", \"global_bin_hits\": %" PRIu64
        ", \"global_bin_misses\": %" PRIu64 ", \"cache_pops\": %" PRIu64
        ", \"huge_allocs\": %" PRIu64 "}",
        b.oom_failures - a.oom_failures, b.bad_frees - a.bad_frees,
        b.batch_refills - a.batch_refills, b.batch_flushes - a.batch_flushes,
        b.remote_frees - a.remote_frees, b.remote_drains - a.remote_drains,
        b.superblock_transfers - a.superblock_transfers,
        b.global_fetches - a.global_fetches,
        b.global_bin_hits - a.global_bin_hits,
        b.global_bin_misses - a.global_bin_misses,
        b.cache_pops - a.cache_pops, b.huge_allocs - a.huge_allocs);
    return buf;
}

/** Folds the per-thread traces into the "trace" JSON member. */
std::string
trace_json(const Hoard& hoard, const std::string& spans_path,
           std::uint64_t spans_written)
{
    std::uint64_t calls = 0, call_ns = 0, os_in_call_ns = 0, dropped = 0;
    std::uint64_t counts[kKinds] = {};
    perfbench::Histogram durations[kKinds];
    for (const auto& tr : g_traces.all()) {
        calls += tr->calls;
        call_ns += tr->call_ns;
        os_in_call_ns += tr->os_in_call_ns;
        dropped += tr->spans_dropped;
        for (int k = 0; k < kKinds; ++k) {
            counts[k] += tr->counts[k];
            durations[k].merge(tr->durations[k]);
        }
    }
    std::string out = "{";
    char buf[512];
    for (int k = 0; k < kKinds; ++k) {
        std::snprintf(buf, sizeof buf,
                      "\"%s\": {\"count\": %" PRIu64
                      ", \"samples\": %" PRIu64 ", \"ns_p50\": %.4f, "
                      "\"ns_p99\": %.4f}, ",
                      kSpanNames[k], counts[k], durations[k].count(),
                      durations[k].smoothed_quantile(0.50),
                      durations[k].smoothed_quantile(0.99));
        out += buf;
    }
    std::snprintf(buf, sizeof buf,
                  "\"calls\": %" PRIu64 ", \"call_ns\": %" PRIu64
                  ", \"os_in_call_ns\": %" PRIu64
                  ", \"committed_peak_bytes\": %" PRIu64
                  ", \"spans_written\": %" PRIu64
                  ", \"spans_dropped\": %" PRIu64 ", \"spans_path\": \"%s\"}",
                  calls, call_ns, os_in_call_ns,
                  static_cast<std::uint64_t>(
                      hoard.stats().committed_bytes.peak()),
                  spans_written, dropped, spans_path.c_str());
    return out + buf;
}

/** Writes every kept span as Chrome trace JSON; returns the count. */
std::uint64_t
write_spans(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
        return 0;
    }
    std::uint64_t origin = ~std::uint64_t{0};
    for (const auto& tr : g_traces.all())
        for (const Span& s : tr->spans)
            origin = std::min(origin, s.start_ns);
    std::uint64_t written = 0;
    std::fputs("{\"traceEvents\": [\n", f);
    for (const auto& tr : g_traces.all()) {
        for (const Span& s : tr->spans) {
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                         "}}",
                         written == 0 ? "" : ",\n", kSpanNames[s.kind],
                         s.thread, (s.start_ns - origin) / 1e3,
                         (s.end_ns - s.start_ns) / 1e3, s.id, s.parent);
            ++written;
        }
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
    return written;
}

int
print_env()
{
    const hoard::Config& c = hoard::global_allocator().config();
    std::printf(
        "{\"hardware_threads\": %u, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\", \"HOARD_OBS\": %d, \"HOARD_PROFILER\": %d, "
        "\"config\": {\"heap_count\": %d, \"thread_cache_blocks\": %u, "
        "\"superblock_bytes\": %zu, \"hardened_free\": %s}}\n",
        std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
        PERFBENCH_BUILD_TYPE, HOARD_OBS, HOARD_PROFILER, c.heap_count,
        c.thread_cache_blocks, c.superblock_bytes,
        c.hardened_free ? "true" : "false");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Args args;
    if (!perfbench::parse_args(argc, argv, &args))
        return 2;
    if (args.mode == "env")
        return print_env();
    const hoard::Config config = hoard::global_allocator().config();

    if (args.mode == "untraced") {
        Hoard hoard(config);
        InprocApi api{hoard};
        perfbench::Runner<InprocApi> runner(api, args.run);
        perfbench::print_result(args.workload.c_str(), runner.run());
        return 0;
    }
    if (args.mode != "traced" || args.spans_path.empty()) {
        std::fprintf(stderr, "--mode untraced|traced|env; traced needs --spans\n");
        return 2;
    }

    TimedProvider provider(hoard::os::default_page_provider());
    Hoard hoard(config, provider);
    TracedApi api{hoard};
    perfbench::Runner<TracedApi> runner(api, args.run);
    StatsSnapshot before{}, after{};
    perfbench::PhaseHooks hooks;
    hooks.on_start = [&] {
        before = StatsSnapshot::of(hoard.stats());
        g_tracing.store(true, std::memory_order_relaxed);
    };
    hooks.on_end = [&] {
        g_tracing.store(false, std::memory_order_relaxed);
        after = StatsSnapshot::of(hoard.stats());
    };
    perfbench::RunResult result = runner.run(hooks);
    const std::uint64_t written = write_spans(args.spans_path);
    perfbench::print_result(
        args.workload.c_str(), result,
        ", \"stats\": " + stats_json(before, after) +
            ", \"trace\": " + trace_json(hoard, args.spans_path, written));
    return 0;
}
