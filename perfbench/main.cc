/**
 * @file
 * The repository benchmark's measuring program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 *
 * Repeats one seeded workload instance while another repetition fits
 * in S seconds of host time (at least three times untraced). Virtual
 * metrics must be bit-identical on every repetition. --trace 0 reports
 * the end-to-end metrics; --trace 1 alternates untraced and traced
 * repetitions and reports the per-layer metrics, requiring the traced
 * repetitions to reproduce the untraced virtual metrics exactly. The
 * last line of stdout is one JSON object.
 *
 * Host-speed calibration. Shared hosts drift by tens of percent over
 * minutes as other tenants contend for caches and memory, which moves
 * every wall figure of a run together. A fixed kernel shaped like the
 * simulator's hot paths (an event heap of callables, a hash table,
 * random updates over an 8 MiB table) runs before the first and after
 * every untraced repetition; the mean of the two around a repetition,
 * against the kernel's time on the reference host, is that
 * repetition's host slowdown. setup_s and sim_ops_per_s are wall
 * figures divided (resp. multiplied) by it, i.e. in reference-host
 * seconds, and reported as the median over repetitions; the raw wall
 * medians are printed beside them. A change to the simulator moves
 * the calibrated figures; a busier host mostly does not.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>

#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

using namespace perfbench;
using mirage::strprintf;

namespace {

struct Workload
{
    const char *name;
    Rep (*run)(u64 seed, Tracing *tr);
    /** Fail the run if the load generator, not the appliance, is the
     *  saturated side: at least half busy and busier than the
     *  appliance. */
    bool guard_client;
};

const Workload workloads[] = {
    {"fleet_boot", runFleetBoot, false},
    {"dns_udp", runDnsUdp, true},
    {"web_store", runWebStore, true},
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Everything a repetition must reproduce exactly, as text. */
std::string
fingerprint(const Rep &r)
{
    std::string s = strprintf("attempted=%llu failed=%llu events=%llu "
                              "checksum=%016llx client_busy=%.17g",
                              (unsigned long long)r.attempted,
                              (unsigned long long)r.failed,
                              (unsigned long long)r.events,
                              (unsigned long long)r.checksum,
                              r.client_busy_frac);
    for (const auto &[name, m] : r.virt)
        s += strprintf(" %s=%.17g", name.c_str(), m.value);
    return s;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void
printMetric(const std::string &name, const Metric &m)
{
    std::printf("  %-36s %16.6f %-9s (n=%llu)\n", name.c_str(), m.value,
                m.unit.c_str(), (unsigned long long)m.samples);
}

std::string
jsonMetrics(const Metrics &ms)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, m] : ms) {
        out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         first ? "" : ", ", name.c_str(), m.value,
                         m.unit.c_str());
        first = false;
    }
    return out + "}";
}

/** Every traced repetition's spans, as one JSON array. */
bool
writeSpans(const std::string &path, const std::vector<Tracing> &traces)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < traces.size(); i++) {
        std::fputs(i ? ",\n" : "", f);
        traces[i].spans.writeJson(f);
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
}

/** The calibration kernel's time on the reference host (4-core x86-64
 *  container, RelWithDebInfo build), in seconds. */
constexpr double referenceCalibrationS = 0.120;

/** Run the host-speed calibration kernel once; returns its wall time. */
double
calibrate()
{
    struct Event
    {
        u64 when;
        std::function<void()> fn;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when > b.when;
        }
    };
    std::vector<u64> table(1u << 20);
    std::priority_queue<Event, std::vector<Event>, Later> heap;
    std::unordered_map<u64, u64> counts;
    u64 x = 88172645463325252ull, acc = 0;
    double t0 = wallNow();
    for (int i = 0; i < 400000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[x & (table.size() - 1)] += x;
        u64 seen = table[(x >> 23) & (table.size() - 1)];
        heap.push(Event{x >> 40, [&acc, seen] { acc += seen; }});
        if (heap.size() > 4096) {
            heap.top().fn();
            heap.pop();
        }
        counts[x & 0xffff]++;
    }
    double dt = wallNow() - t0;
    // Keep the work observable so it cannot be optimised away.
    if (acc + counts.size() == 42)
        std::fputs("", stdout);
    return dt;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fleet_boot|dns_udp|web_store "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#if defined(PERFBENCH_SANITIZED) || !defined(__OPTIMIZE__)
    std::fprintf(stderr, "perfbench: refusing to time a sanitizer or "
                         "unoptimised build\n");
    return 3;
#endif
    std::string workload, spans_path;
    long long seed = -1;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *k = argv[i], *v = argv[i + 1];
        if (std::strcmp(k, "--workload") == 0)
            workload = v;
        else if (std::strcmp(k, "--seed") == 0)
            seed = std::atoll(v);
        else if (std::strcmp(k, "--seconds") == 0)
            seconds = std::atof(v);
        else if (std::strcmp(k, "--trace") == 0)
            trace = std::atoi(v);
        else if (std::strcmp(k, "--spans") == 0)
            spans_path = v;
        else
            return usage(argv[0]);
    }
    const Workload *w = nullptr;
    for (const Workload &c : workloads)
        if (workload == c.name)
            w = &c;
    if (!w || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
        argc % 2 == 0)
        return usage(argv[0]);

    std::vector<Rep> plain, traced;
    std::vector<Tracing> traces;
    std::vector<double> slowdown; //!< host slowdown per untraced rep
    double peak_rss_mb = 0;
    // Start another repetition only if one more (as long as the median
    // so far) still ends within the budget, so a run lasts S seconds.
    double start = wallNow();
    std::vector<double> lengths;
    auto more = [&] {
        double now = wallNow() - start;
        return now + median(lengths) <= seconds;
    };
    auto timed = [&](auto fn) {
        double t0 = wallNow();
        fn();
        lengths.push_back(wallNow() - t0);
    };
    if (trace == 0) {
        double before = calibrate();
        while (plain.size() < 3 || more())
            timed([&] {
                plain.push_back(w->run(u64(seed), nullptr));
                // Repetitions are identical, so the first one's peak is
                // the workload's; later calibrations could only add to it.
                if (plain.size() == 1)
                    peak_rss_mb = peakRssMb();
                double after = calibrate();
                slowdown.push_back((before + after) / 2 /
                                   referenceCalibrationS);
                before = after;
            });
    } else {
        while (traced.empty() || more())
            timed([&] {
                plain.push_back(w->run(u64(seed), nullptr));
                traces.emplace_back();
                traced.push_back(w->run(u64(seed), &traces.back()));
            });
    }

    // Validation: every repetition is correct and reproduces the first.
    std::vector<std::string> problems;
    const Rep &ref = plain.front();
    std::string ref_fp = fingerprint(ref);
    auto check = [&](const Rep &r, const char *kind) {
        for (const auto &why : r.invalid)
            problems.push_back(strprintf("%s rep: %s", kind, why.c_str()));
        if (fingerprint(r) != ref_fp)
            problems.push_back(strprintf(
                "%s rep diverged from the first untraced rep:\n    %s\n    %s",
                kind, fingerprint(r).c_str(), ref_fp.c_str()));
    };
    for (const Rep &r : plain)
        check(r, "untraced");
    for (const Rep &r : traced) {
        check(r, "traced");
        if (mappedFraction(r.layer) < 0.95)
            problems.push_back(strprintf(
                "layer map covers only %.3f of charged virtual ns",
                mappedFraction(r.layer)));
    }
    if (w->guard_client && ref.client_busy_frac >= 0.5 &&
        ref.client_busy_frac >= ref.appliance_busy_frac)
        problems.push_back(strprintf(
            "load generator saturated: client busy %.3f >= appliance %.3f",
            ref.client_busy_frac, ref.appliance_busy_frac));
    for (const auto &e : ref.errors)
        std::printf("failed op: %s\n", e.c_str());

    std::vector<double> setup, ops_per_s;
    for (const Rep &r : plain) {
        setup.push_back(r.setup_s);
        ops_per_s.push_back(per(double(r.ops()), r.run_wall_s));
    }
    std::printf("untraced reps (setup s / ops per wall s):");
    for (std::size_t i = 0; i < plain.size(); i++)
        std::printf(" %.3f/%.0f", setup[i], ops_per_s[i]);
    std::printf("\n");
    Metrics out;
    std::printf("workload %s seed %lld: %zu untraced + %zu traced reps "
                "in %.1f s\n",
                w->name, seed, plain.size(), traced.size(),
                wallNow() - start);
    if (trace == 0) {
        u64 n = plain.size();
        std::vector<double> cal_setup, cal_ops;
        for (std::size_t i = 0; i < n; i++) {
            cal_setup.push_back(setup[i] / slowdown[i]);
            cal_ops.push_back(ops_per_s[i] * slowdown[i]);
        }
        std::printf("host slowdown vs reference: median %.3f; raw wall "
                    "medians: setup %.6f s, %.3f ops/s\n",
                    median(slowdown), median(setup), median(ops_per_s));
        out["setup_s"] = {median(cal_setup), "s", n};
        out["sim_ops_per_s"] = {median(cal_ops), "1/s", n};
        out["peak_rss_mb"] = {peak_rss_mb, "MB", 1};
        for (const auto &[name, m] : ref.virt)
            if (name != "v_write_p99_us")
                out[name] = m;
        for (const auto &[name, m] : out)
            printMetric(name, m);
        // Printed but not in the JSON metrics: failed_frac is 0 on a
        // passing run (the result's `failed`/`attempted` carry it), and
        // the write tail exists on web_store only.
        printMetric("failed_frac",
                    {per(double(ref.failed), double(ref.attempted)), "ratio",
                     ref.attempted});
        if (ref.virt.count("v_write_p99_us"))
            printMetric("v_write_p99_us", ref.virt.at("v_write_p99_us"));
        printMetric("loadgen.client_busy_frac",
                    {ref.client_busy_frac, "ratio", 1});
        printMetric("appliance_busy_frac",
                    {ref.appliance_busy_frac, "ratio", 1});
    } else {
        // Wall-clock layer numbers take the median over traced reps;
        // virtual ones are identical on every rep.
        for (const auto &[name, m] : traced.front().layer) {
            std::vector<double> vals;
            for (const Rep &r : traced)
                vals.push_back(r.layer.at(name).value);
            out[name] = {median(vals), m.unit, m.samples};
        }
        std::vector<double> traced_ops;
        for (const Rep &r : traced)
            traced_ops.push_back(per(double(r.ops()), r.run_wall_s));
        out["trace.overhead_frac"] = {
            1.0 - per(median(traced_ops), median(ops_per_s)), "ratio",
            traced.size()};
        fillMissingLayers(out);
        for (const auto &[name, m] : out)
            printMetric(name, m);
        std::erase_if(out, [](const auto &kv) {
            return !layerListed(kv.first);
        });
        if (!spans_path.empty() && !writeSpans(spans_path, traces))
            problems.push_back("cannot write spans to " + spans_path);
    }
    for (const auto &p : problems)
        std::printf("INVALID: %s\n", p.c_str());

    bool correct = problems.empty() && ref.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)ref.attempted,
                (unsigned long long)ref.failed, jsonMetrics(out).c_str());
    return correct ? 0 : 1;
}
