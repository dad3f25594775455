/**
 * @file
 * The benchmark's three closed-loop workloads, written once against an
 * allocation API so the same code runs under LD_PRELOAD (load.cc) and
 * in-process on a HoardAllocator (inproc.cc).
 *
 * Every thread issues its next call only after the previous one
 * returned.  A run is: start the threads, let each pre-fill its working
 * set, start the timed phase together, stop after the requested
 * seconds, then free everything outside the timed window.  Each object
 * carries a seed-derived 8-byte id at its first and last bytes, checked
 * before every free; NULL returns and tag mismatches are counted as
 * failed operations, never aborted on.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace perfbench {

enum class Workload
{
    ring_private,
    handoff_remote,
    midsize_spans,
};

inline bool
parse_workload(const std::string& name, Workload* out)
{
    if (name == "ring-private")
        *out = Workload::ring_private;
    else if (name == "handoff-remote")
        *out = Workload::handoff_remote;
    else if (name == "midsize-spans")
        *out = Workload::midsize_spans;
    else
        return false;
    return true;
}

struct RunConfig
{
    Workload workload = Workload::ring_private;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    int threads = 1;
    /// Sabotage hook: busy-wait this long inside every malloc call, as
    /// if the allocator had become slower.  0 in every real run.
    std::uint64_t spin_ns = 0;
};

/** Callbacks at the edges of the timed phase (main thread only). */
struct PhaseHooks
{
    std::function<void()> on_start;
    std::function<void()> on_end;
};

inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline std::uint64_t
splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// One call in sample_every(w) is timed with the steady clock: often
/// enough for a steady p99, rarely enough that the two clock reads do
/// not weigh on the cheap small-object calls.  midsize-spans calls take
/// microseconds, so every one is timed.
inline std::uint64_t
sample_every(Workload w)
{
    return w == Workload::midsize_spans ? 1 : 64;
}

/**
 * Latency histogram of one thread: fixed size, so recording never
 * allocates and no sample is ever dropped.  Values below 1024 ns get
 * one bucket per nanosecond; above that each octave up to 2^32 ns has
 * 128 buckets (within 0.4% of the value).  Longer calls saturate.
 */
class Histogram
{
  public:
    void
    add(std::uint64_t ns)
    {
        ++counts_[bucket(ns)];
        ++count_;
    }

    void
    merge(const Histogram& other)
    {
        for (std::size_t b = 0; b < kBuckets; ++b)
            counts_[b] += other.counts_[b];
        count_ += other.count_;
    }

    /// Every recorded value; the quantiles are taken over all of them.
    std::uint64_t count() const { return count_; }

    /**
     * Quantile @p q, smoothed: the mean of the values ranked within
     * q +- 0.1 percentage points, each at its bucket's midpoint.  Plain
     * order statistics of integer nanoseconds repeat exactly from run to
     * run; the window mean keeps the measured digits.  0 when empty.
     */
    double
    smoothed_quantile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        const double last = static_cast<double>(count_ - 1);
        const auto lo = static_cast<std::uint64_t>(
            std::floor(std::max(0.0, q - 0.001) * last));
        const auto hi = static_cast<std::uint64_t>(
            std::ceil(std::min(1.0, q + 0.001) * last));
        double sum = 0;
        std::uint64_t rank = 0;  // rank of the bucket's first value
        for (std::size_t b = 0; b < kBuckets && rank <= hi; ++b) {
            const std::uint64_t first = std::max(rank, lo);
            rank += counts_[b];
            const std::uint64_t end = std::min(rank, hi + 1);
            if (end > first)
                sum += static_cast<double>(end - first) * midpoint(b);
        }
        return sum / static_cast<double>(hi - lo + 1);
    }

  private:
    static constexpr unsigned kExactBits = 10;
    static constexpr unsigned kSubBits = 7;
    static constexpr std::size_t kBuckets =
        (std::size_t{1} << kExactBits) +
        (32 - kExactBits) * (std::size_t{1} << kSubBits);

    static std::size_t
    bucket(std::uint64_t ns)
    {
        ns = std::min<std::uint64_t>(ns, 0xffffffffu);
        if (ns < (std::uint64_t{1} << kExactBits))
            return static_cast<std::size_t>(ns);
        const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(ns));
        const unsigned shift = msb - kSubBits;
        return (std::size_t{1} << kExactBits) +
               (msb - kExactBits) * (std::size_t{1} << kSubBits) +
               ((ns >> shift) & ((std::uint64_t{1} << kSubBits) - 1));
    }

    static double
    midpoint(std::size_t b)
    {
        if (b < (std::size_t{1} << kExactBits))
            return static_cast<double>(b);
        const std::size_t i = b - (std::size_t{1} << kExactBits);
        const unsigned shift =
            static_cast<unsigned>(i >> kSubBits) + kExactBits - kSubBits;
        const std::uint64_t low =
            ((std::uint64_t{1} << kSubBits) + (i & ((1u << kSubBits) - 1)))
            << shift;
        return static_cast<double>(low) +
               static_cast<double>(std::uint64_t{1} << shift) / 2 - 0.5;
    }

    std::uint64_t counts_[kBuckets] = {};
    std::uint64_t count_ = 0;
};

struct ThreadResult
{
    std::uint64_t pairs = 0;      ///< malloc+free pairs in the timed phase
    std::uint64_t attempted = 0;  ///< malloc and free calls, all phases
    std::uint64_t null_returns = 0;
    std::uint64_t tag_mismatches = 0;
    std::uint64_t end_ns = 0;  ///< when this thread left the timed phase
    Histogram malloc_ns;
    Histogram free_ns;
};

struct RunResult
{
    int threads = 0;
    std::uint64_t start_ns = 0;  ///< steady clock at the timed-phase start
    std::uint64_t elapsed_ns = 0;
    std::uint64_t pairs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t null_returns = 0;
    std::uint64_t tag_mismatches = 0;
    std::uint64_t malloc_samples = 0;
    std::uint64_t free_samples = 0;
    double malloc_p50_ns = 0, malloc_p99_ns = 0;
    double free_p50_ns = 0, free_p99_ns = 0;

    /** Thread-nanoseconds per malloc+free pair. */
    double
    ns_per_pair() const
    {
        return pairs == 0 ? 0.0
                          : static_cast<double>(elapsed_ns) * threads /
                                static_cast<double>(pairs);
    }
};

/** Threads a workload runs on: min(4, nproc), and an even count of at
    least two for the producer/consumer pairs of handoff-remote. */
inline int
workload_threads(Workload w)
{
    unsigned hw = std::thread::hardware_concurrency();
    int threads = static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));
    if (w == Workload::handoff_remote)
        threads = std::max(2, threads - threads % 2);
    return threads;
}

/** Peak resident set (VmHWM) of this process in KiB, 0 if unknown. */
inline std::uint64_t
vm_hwm_kib()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib;
}

namespace detail {

struct Slot
{
    void* p = nullptr;
    std::uint32_t size = 0;
    std::uint64_t id = 0;
};

inline void
put_tag(void* p, std::size_t size, std::uint64_t id)
{
    std::memcpy(p, &id, sizeof id);
    std::memcpy(static_cast<char*>(p) + size - sizeof id, &id, sizeof id);
}

inline bool
tag_ok(const void* p, std::size_t size, std::uint64_t id)
{
    std::uint64_t head = 0, tail = 0;
    std::memcpy(&head, p, sizeof head);
    std::memcpy(&tail, static_cast<const char*>(p) + size - sizeof tail,
                sizeof tail);
    return head == id && tail == id;
}

/** Single-producer single-consumer ring of pointers. */
template <typename T>
class SpscQueue
{
  public:
    static constexpr std::uint64_t kCapacity = 8;

    bool
    push(T* item)
    {
        std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - head_.load(std::memory_order_acquire) == kCapacity)
            return false;
        slots_[tail % kCapacity] = item;
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    T*
    pop()
    {
        std::uint64_t head = head_.load(std::memory_order_relaxed);
        if (head == tail_.load(std::memory_order_acquire))
            return nullptr;
        T* item = slots_[head % kCapacity];
        head_.store(head + 1, std::memory_order_release);
        return item;
    }

  private:
    T* slots_[kCapacity] = {};
    alignas(64) std::atomic<std::uint64_t> head_{0};
    alignas(64) std::atomic<std::uint64_t> tail_{0};
};

inline void
relax(unsigned& spins)
{
    if (++spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    } else {
        spins = 0;
        std::this_thread::yield();
    }
}

}  // namespace detail

/**
 * Runs one workload against @p api, which provides
 * `void* malloc(std::size_t)` and `void free(void*)`.  Single use: one
 * run() per Runner.
 */
template <typename Api>
class Runner
{
  public:
    Runner(Api& api, const RunConfig& cfg)
        : api_(api), cfg_(cfg), sample_every_(sample_every(cfg.workload))
    {
    }

    RunResult
    run(const PhaseHooks& hooks = {})
    {
        const int n = cfg_.threads;
        for (int t = 0; t < n; ++t)
            results_.push_back(std::make_unique<ThreadResult>());
        if (cfg_.workload == Workload::handoff_remote) {
            for (int j = 0; j < n / 2; ++j)
                pairs_.push_back(std::make_unique<Pair>());
        }

        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(n));
        for (int t = 0; t < n; ++t)
            threads.emplace_back([this, t] { thread_main(t); });

        while (ready_.load(std::memory_order_acquire) < n)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (hooks.on_start)
            hooks.on_start();
        RunResult out;
        out.threads = n;
        out.start_ns = now_ns();
        phase_.store(kTimed, std::memory_order_release);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cfg_.seconds));
        phase_.store(kStopping, std::memory_order_release);
        while (done_.load(std::memory_order_acquire) < n)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (hooks.on_end)
            hooks.on_end();
        phase_.store(kCleanup, std::memory_order_release);
        for (std::thread& th : threads)
            th.join();

        Histogram mallocs, frees;
        std::uint64_t end_ns = out.start_ns;
        for (const auto& r : results_) {
            out.pairs += r->pairs;
            out.attempted += r->attempted;
            out.null_returns += r->null_returns;
            out.tag_mismatches += r->tag_mismatches;
            end_ns = std::max(end_ns, r->end_ns);
            mallocs.merge(r->malloc_ns);
            frees.merge(r->free_ns);
        }
        out.elapsed_ns = end_ns - out.start_ns;
        out.malloc_samples = mallocs.count();
        out.free_samples = frees.count();
        out.malloc_p50_ns = mallocs.smoothed_quantile(0.50);
        out.malloc_p99_ns = mallocs.smoothed_quantile(0.99);
        out.free_p50_ns = frees.smoothed_quantile(0.50);
        out.free_p99_ns = frees.smoothed_quantile(0.99);
        return out;
    }

  private:
    enum Phase : int
    {
        kSetup,
        kTimed,
        kStopping,
        kCleanup,
    };

    static constexpr std::size_t kBatch = 256;

    struct Batch
    {
        detail::Slot slots[kBatch];
    };

    /** One producer/consumer pair of handoff-remote. */
    struct Pair
    {
        detail::SpscQueue<Batch> full;   ///< producer -> consumer
        detail::SpscQueue<Batch> empty;  ///< consumer -> producer
        Batch batches[detail::SpscQueue<Batch>::kCapacity];
    };

    /** Per-thread object sizes, cycled through during the run. */
    struct SizeTable
    {
        static constexpr std::size_t kSizes = 4096;
        std::uint32_t size[kSizes];

        std::uint32_t
        at(std::uint64_t i) const
        {
            return size[i % kSizes];
        }
    };

    void
    fill_sizes(SizeTable& table, std::uint64_t& rng) const
    {
        for (std::uint32_t& s : table.size) {
            const std::uint64_t r = splitmix64(rng);
            switch (cfg_.workload) {
            case Workload::ring_private:
                s = 16 + static_cast<std::uint32_t>(r % (128 - 16 + 1));
                break;
            case Workload::handoff_remote:
                s = 16 + static_cast<std::uint32_t>(r % (512 - 16 + 1));
                break;
            case Workload::midsize_spans: {
                // Log-uniform over [1 KiB, 128 KiB].
                const double u =
                    static_cast<double>(r >> 11) * 0x1.0p-53;
                s = static_cast<std::uint32_t>(
                    std::exp(std::log(1024.0) + u * std::log(128.0)));
                break;
            }
            }
        }
    }

    bool timed() const { return phase_.load(std::memory_order_relaxed) == kTimed; }

    void
    spin(std::uint64_t ns) const
    {
        const std::uint64_t until = now_ns() + ns;
        while (now_ns() < until) {
        }
    }

    /** The malloc wrapper: the only place the sabotage hook acts. */
    void*
    do_malloc(ThreadResult& r, std::size_t size, bool sample)
    {
        ++r.attempted;
        void* p;
        if (sample) {
            const std::uint64_t t0 = now_ns();
            p = api_.malloc(size);
            if (cfg_.spin_ns != 0) [[unlikely]]
                spin(cfg_.spin_ns);
            r.malloc_ns.add(now_ns() - t0);
        } else {
            p = api_.malloc(size);
            if (cfg_.spin_ns != 0) [[unlikely]]
                spin(cfg_.spin_ns);
        }
        if (p == nullptr)
            ++r.null_returns;
        return p;
    }

    /** Verifies @p slot's tag, frees it and empties the slot. */
    void
    do_free(ThreadResult& r, detail::Slot& slot, bool sample)
    {
        if (slot.p == nullptr)
            return;
        if (!detail::tag_ok(slot.p, slot.size, slot.id))
            ++r.tag_mismatches;
        ++r.attempted;
        if (sample) {
            const std::uint64_t t0 = now_ns();
            api_.free(slot.p);
            r.free_ns.add(now_ns() - t0);
        } else {
            api_.free(slot.p);
        }
        slot.p = nullptr;
    }

    /** Allocates into the empty @p slot and tags the object. */
    void
    fill(ThreadResult& r, detail::Slot& slot, std::uint32_t size,
         std::uint64_t id, bool sample)
    {
        void* p = do_malloc(r, size, sample);
        if (p == nullptr)
            return;
        detail::put_tag(p, size, id);
        if (cfg_.workload == Workload::midsize_spans) {
            // One byte per page makes every page resident, as a program
            // filling the buffer would.
            auto* bytes = static_cast<volatile unsigned char*>(p);
            for (std::size_t off = page_; off + sizeof id < size;
                 off += page_)
                bytes[off] = static_cast<unsigned char>(id);
        }
        slot = {p, size, id};
    }

    void
    thread_main(int t)
    {
        ThreadResult& r = *results_[static_cast<std::size_t>(t)];
        std::uint64_t rng =
            cfg_.seed * 0x2545f4914f6cdd1dull + static_cast<std::uint64_t>(t);
        auto sizes = std::make_unique<SizeTable>();
        fill_sizes(*sizes, rng);
        // Object ids: seed-derived, unique per thread and object.
        std::uint64_t id_state = splitmix64(rng);
        auto next_id = [&id_state] { return splitmix64(id_state) | 1; };

        if (cfg_.workload == Workload::handoff_remote) {
            Pair& pair = *pairs_[static_cast<std::size_t>(t / 2)];
            if (t % 2 == 0)
                producer(r, pair, *sizes, next_id);
            else
                consumer(r, pair);
            return;
        }

        const std::size_t ring_slots =
            cfg_.workload == Workload::ring_private ? 64 : 256;
        std::vector<detail::Slot> ring(ring_slots);
        std::uint64_t i = 0;
        for (detail::Slot& slot : ring)
            fill(r, slot, sizes->at(i++), next_id(), false);
        arrive_and_wait();

        std::uint64_t op = 0;
        do {
            for (int k = 0; k < 64; ++k, ++op, ++i) {
                detail::Slot& slot = ring[op % ring_slots];
                const bool sample = op % sample_every_ == 0;
                do_free(r, slot, sample);
                fill(r, slot, sizes->at(i), next_id(), sample);
            }
            r.pairs += 64;
        } while (timed());
        leave_timed(r);

        for (detail::Slot& slot : ring)
            do_free(r, slot, false);
    }

    template <typename NextId>
    void
    producer(ThreadResult& r, Pair& pair, const SizeTable& sizes,
             NextId& next_id)
    {
        for (Batch& b : pair.batches)
            pair.empty.push(&b);
        std::uint64_t i = 0;
        auto produce = [&](Batch& b, bool timed_phase) {
            for (detail::Slot& slot : b.slots) {
                fill(r, slot, sizes.at(i), next_id(),
                     timed_phase && i % sample_every_ == 0);
                ++i;
            }
        };
        // Pre-fill, untimed: half the batches are in flight when timing
        // starts.
        for (std::uint64_t k = 0; k < detail::SpscQueue<Batch>::kCapacity / 2;
             ++k) {
            Batch* b = pair.empty.pop();
            produce(*b, false);
            pair.full.push(b);
        }
        arrive_and_wait();

        Batch* held = nullptr;
        unsigned spins = 0;
        while (timed()) {
            if (held == nullptr) {
                held = pair.empty.pop();
                if (held == nullptr) {
                    detail::relax(spins);
                    continue;
                }
                produce(*held, true);
            }
            if (pair.full.push(held))
                held = nullptr;
            else
                detail::relax(spins);
        }
        leave_timed(r);
        if (held != nullptr) {
            for (detail::Slot& slot : held->slots)
                do_free(r, slot, false);
        }
    }

    void
    consumer(ThreadResult& r, Pair& pair)
    {
        arrive_and_wait();
        std::uint64_t op = 0;
        unsigned spins = 0;
        while (timed()) {
            Batch* b = pair.full.pop();
            if (b == nullptr) {
                detail::relax(spins);
                continue;
            }
            for (detail::Slot& slot : b->slots)
                do_free(r, slot, op++ % sample_every_ == 0);
            r.pairs += kBatch;
            while (!pair.empty.push(b))
                detail::relax(spins);
        }
        leave_timed(r);
        // The producer has left its loop too once cleanup starts, so
        // whatever is still queued is ours to free.
        while (Batch* b = pair.full.pop()) {
            for (detail::Slot& slot : b->slots)
                do_free(r, slot, false);
        }
    }

    void
    arrive_and_wait()
    {
        ready_.fetch_add(1, std::memory_order_acq_rel);
        while (phase_.load(std::memory_order_acquire) == kSetup) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        }
    }

    /** Leaves the timed phase and waits until every thread has, so no
        cleanup call overlaps another thread's timed calls. */
    void
    leave_timed(ThreadResult& r)
    {
        r.end_ns = now_ns();
        done_.fetch_add(1, std::memory_order_acq_rel);
        while (phase_.load(std::memory_order_acquire) != kCleanup)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }

    Api& api_;
    const RunConfig& cfg_;
    const std::uint64_t sample_every_;
    const std::size_t page_ =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    std::vector<std::unique_ptr<ThreadResult>> results_;
    std::vector<std::unique_ptr<Pair>> pairs_;
    std::atomic<int> phase_{kSetup};
    std::atomic<int> ready_{0};
    std::atomic<int> done_{0};
};

/** Writes @p r (and any extra members) as one JSON object line. */
inline void
print_result(const char* workload, const RunResult& r,
             const std::string& extra = "")
{
    std::printf(
        "{\"workload\": \"%s\", \"threads\": %d, \"start_ns\": %llu, "
        "\"elapsed_ns\": %llu, \"pairs\": %llu, \"attempted\": %llu, "
        "\"null_returns\": %llu, \"tag_mismatches\": %llu, "
        "\"malloc_samples\": %llu, \"free_samples\": %llu, "
        "\"malloc_p50_ns\": %.4f, \"malloc_p99_ns\": %.4f, "
        "\"free_p50_ns\": %.4f, \"free_p99_ns\": %.4f, "
        "\"ns_per_pair\": %.4f, \"vm_hwm_kib\": %llu%s}\n",
        workload, r.threads, static_cast<unsigned long long>(r.start_ns),
        static_cast<unsigned long long>(r.elapsed_ns),
        static_cast<unsigned long long>(r.pairs),
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.null_returns),
        static_cast<unsigned long long>(r.tag_mismatches),
        static_cast<unsigned long long>(r.malloc_samples),
        static_cast<unsigned long long>(r.free_samples), r.malloc_p50_ns,
        r.malloc_p99_ns, r.free_p50_ns, r.free_p99_ns, r.ns_per_pair(),
        static_cast<unsigned long long>(vm_hwm_kib()), extra.c_str());
    std::fflush(stdout);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
