/**
 * @file
 * Shared pieces of the repository benchmark: the per-repetition result
 * record, the optional tracing context (spans + profiler), the fixed
 * Profiler label -> module map, and the layer probes that read public
 * counters after a traced repetition.
 *
 * Every workload runs through core::Cloud's public API with Config
 * defaults (one shard, checker off, profiler scope tree off) when
 * timed. A traced repetition enables the profiler scope tree and the
 * checker in Count mode, drives the loop with Engine::step(), and must
 * reproduce the timed repetition's virtual metrics exactly.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/types.h"
#include "core/cloud.h"

namespace perfbench {

using mirage::i64;
using mirage::u64;

/** One reported number with its unit and sample count. */
struct Metric
{
    double value = 0;
    std::string unit;
    u64 samples = 1;
};

using Metrics = std::map<std::string, Metric>;

/** Wall clock shared by every span and timing (host time). */
inline double
wallNow()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

/**
 * Wall-clock spans around the benchmark's calls into each module:
 * name, start, end and the enclosing span. Kept in memory and written
 * out once at exit.
 */
class SpanLog
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int open(const std::string &name);
    void close(int idx);
    /** Total duration of the closed spans named @p name (s). */
    double seconds(const std::string &name) const;
    /** Append the spans to @p f as one JSON object. */
    void writeJson(std::FILE *f) const;

  private:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = -1;
        int parent = -1;
    };
    static constexpr std::size_t capacity = 200000;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> total_;
    u64 dropped_ = 0;
};

/** RAII span; a null log makes it free. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name)
        : log_(log), idx_(log ? log->open(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (log_)
            log_->close(idx_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    int idx_;
};

/** Result of one repetition of a workload. */
struct Rep
{
    double setup_s = 0;    //!< rep start -> first event dispatched
    double run_wall_s = 0; //!< the run loop (host time)
    u64 attempted = 0;
    u64 failed = 0;
    u64 events = 0;
    u64 checksum = 0;      //!< Engine::dispatchChecksum()
    double client_busy_frac = 0;
    double appliance_busy_frac = 0;
    /** Virtual end-to-end metrics: a pure function of the seed. */
    Metrics virt;
    /** Per-layer metrics (traced repetitions only). */
    Metrics layer;
    /** Registry counters and dom0 vCPU time when the run loop began,
     *  so per-op layer counts exclude set-up work (the B-tree preload). */
    std::map<std::string, u64> counters_before;
    u64 dom0_run_before = 0, dom0_steal_before = 0;
    /** First few failed ops, for the report. */
    std::vector<std::string> errors;
    /** Run-level failures (checker, quiescence): the run is invalid. */
    std::vector<std::string> invalid;

    /** Count one wrong, refused or missing op. */
    void
    fail(const std::string &why)
    {
        failed++;
        if (errors.size() < 8)
            errors.push_back(why);
    }
    u64 ops() const { return attempted > failed ? attempted - failed : 0; }
};

/**
 * Context of a traced repetition. The workload enables the profiler
 * and checker right after constructing the Cloud and records spans
 * around each public call it makes.
 */
struct Tracing
{
    SpanLog spans;
    /** Queries the dns_udp workload sent, for the answer() replay. */
    std::vector<mirage::Cstruct> dns_queries;
};

/** Per-op divisor guard: n / d, or 0 when nothing happened. */
inline double
per(double n, double d)
{
    return d > 0 ? n / d : 0;
}

/**
 * Mid-distribution quantile (Parzen) of an unsorted sample, sorted in
 * place: linear interpolation between the mid-probabilities of the
 * distinct values. Virtual latencies pile up on a few exact values, so
 * a nearest-rank quantile would sit on one tie for every input mix;
 * this one moves with the share of samples on each side.
 */
double quantile(std::vector<i64> &v, double q);

/**
 * Drive the cloud to quiescence. Untraced: Cloud::run(). Traced:
 * Engine::step() so the pending-event peak can be sampled. Records
 * set-up time (since @p rep_start), the loop's wall time, event count
 * and dispatch checksum into @p rep, and checks quiescence.
 */
void runLoop(mirage::core::Cloud &cloud, Rep &rep, Tracing *tr,
             double rep_start);

/**
 * Fill the per-layer metrics every workload shares (sim, hypervisor,
 * drivers, net, protocols app time, runtime, pvboot, trace mapping)
 * from the cloud's public counters, stats and profiler attribution.
 * @p ops is the number of completed ops.
 */
void commonLayers(mirage::core::Cloud &cloud, Rep &rep, u64 ops);

/** The core.* set-up and teardown metrics, from the rep's spans. */
void coreLayers(const SpanLog &spans, Rep &rep);

/** Fraction of charged virtual ns the label map assigns to a module. */
double mappedFraction(const Metrics &layer);

/** Zero every per-layer metric a workload leaves unset. */
void fillMissingLayers(Metrics &layer);

/** Whether a per-layer metric goes into the JSON result (all others
 *  are printed in the report only). */
bool layerListed(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
