#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "trace/boot.h"
#include "trace/metrics.h"
#include "trace/profile.h"

namespace perfbench {

using namespace mirage;

// ---- Spans ------------------------------------------------------------------

int
SpanLog::open(const std::string &name)
{
    if (spans_.size() >= capacity) {
        dropped_++;
        return -1;
    }
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, wallNow(), -1, parent});
    int idx = int(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
}

void
SpanLog::close(int idx)
{
    if (idx < 0)
        return;
    Span &s = spans_[std::size_t(idx)];
    s.end = wallNow();
    total_[s.name] += s.end - s.start;
    // Spans nest strictly (RAII), so the closing span is on top.
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

double
SpanLog::seconds(const std::string &name) const
{
    auto it = total_.find(name);
    return it == total_.end() ? 0 : it->second;
}

void
SpanLog::writeJson(std::FILE *f) const
{
    std::fprintf(f, "{\"dropped\": %llu, \"spans\": [\n",
                 (unsigned long long)dropped_);
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"id\": %zu, \"name\": \"%s\", \"start_s\": "
                     "%.9f, \"end_s\": %.9f, \"parent\": %d}\n",
                     i ? "," : "", i, s.name.c_str(), s.start, s.end,
                     s.parent);
    }
    std::fprintf(f, "]}");
}

// ---- Small helpers ----------------------------------------------------------

double
quantile(std::vector<i64> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double n = double(v.size());
    double prev_mid = -1, prev_val = 0, below = 0;
    for (std::size_t i = 0; i < v.size();) {
        std::size_t j = i;
        while (j < v.size() && v[j] == v[i])
            j++;
        double mid = (below + double(j - i) / 2) / n;
        double val = double(v[i]);
        if (q <= mid)
            return prev_mid < 0 ? val
                                : prev_val + (q - prev_mid) /
                                                 (mid - prev_mid) *
                                                 (val - prev_val);
        prev_mid = mid;
        prev_val = val;
        below += double(j - i);
        i = j;
    }
    return prev_val;
}

namespace {

/** Every registry counter by name. */
std::map<std::string, u64>
counters(core::Cloud &cloud)
{
    // The registry exposes no iteration; its plain dump is one
    // "name value" line per counter (histograms read "count=...").
    std::map<std::string, u64> out;
    std::istringstream in(cloud.metrics().dump());
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, value;
        fields >> name >> value;
        if (!value.empty() && value.find('=') == std::string::npos)
            out[name] = std::stoull(value);
    }
    return out;
}

const trace::DomainStats *
dom0Stats(core::Cloud &cloud)
{
    return cloud.profiler().findDomain(cloud.dom0().name());
}

} // namespace

void
runLoop(core::Cloud &cloud, Rep &rep, Tracing *tr, double rep_start)
{
    rep.setup_s = wallNow() - rep_start;
    if (tr) {
        rep.counters_before = counters(cloud);
        if (const trace::DomainStats *d0 = dom0Stats(cloud)) {
            rep.dom0_run_before = d0->run_ns.load();
            rep.dom0_steal_before = d0->steal_ns.load();
        }
    }
    sim::Engine &eng = cloud.engine();
    u64 events_before = eng.eventsRun();
    if (!tr) {
        double t0 = wallNow();
        cloud.run();
        rep.run_wall_s = wallNow() - t0;
    } else {
        SpanScope span(&tr->spans, "sim.run_loop");
        std::size_t peak = eng.pendingEvents();
        double t0 = wallNow();
        while (eng.step())
            peak = std::max(peak, eng.pendingEvents());
        rep.run_wall_s = wallNow() - t0;
        rep.layer["sim.pending_peak"] = {double(peak), "count"};
    }
    rep.events = eng.eventsRun() - events_before;
    rep.checksum = eng.dispatchChecksum();
    if (!cloud.quiescent())
        rep.invalid.push_back("cloud not quiescent after the run loop");
}

// ---- Profiler label -> module map ------------------------------------------

namespace {

/** True when @p label matches @p pattern (a trailing '*' is a prefix). */
bool
matches(const std::string &label, const std::string &pattern)
{
    if (!pattern.empty() && pattern.back() == '*')
        return label.compare(0, pattern.size() - 1, pattern, 0,
                             pattern.size() - 1) == 0;
    return label == pattern;
}

struct Rule
{
    const char *pattern;
    const char *module;
};

// Leaf charge labels, the first match wins.
const Rule leafRules[] = {
    {"hypercall", "hypervisor"},   {"grant.map*", "hypervisor"},
    {"netback.*", "hypervisor"},   {"bridge.xfer", "hypervisor"},
    {"evtchn.*", "hypervisor"},    {"blkback.*", "hypervisor"},
    {"disk.*", "hypervisor"},      {"vchan.*", "hypervisor"},
    {"grant.issue", "drivers"},    {"grant.reuse", "drivers"},
    {"net.*", "net"},              {"gc.*", "runtime"},
    {"thread.*", "runtime"},
};

// Enclosing scopes for leaves no leaf rule claims, innermost first.
const Rule scopeRules[] = {
    {"hyp/blkback", "hypervisor"},
    {"app/*", "protocols"},
};

/**
 * Module of one folded stack. Library code labels every charge; the
 * generic Cpu label under any scope is an application handler's own
 * work (the appliances charge their request cost unlabelled), while a
 * generic charge at the root is the profiler's unattributed bucket.
 */
const char *
moduleOf(const std::vector<std::string> &frames)
{
    const std::string &leaf = frames.back();
    for (const Rule &r : leafRules)
        if (matches(leaf, r.pattern))
            return r.module;
    for (std::size_t i = frames.size() - 1; i-- > 0;)
        for (const Rule &r : scopeRules)
            if (matches(frames[i], r.pattern))
                return r.module;
    if (leaf == "cpu.work" && frames.size() > 1)
        return "protocols";
    return "unmapped";
}

/** Charged virtual ns per module, from the folded profile. */
std::map<std::string, u64>
foldByModule(const trace::Profiler &prof)
{
    std::map<std::string, u64> out;
    std::istringstream in(prof.folded());
    std::string line;
    while (std::getline(in, line)) {
        std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        std::vector<std::string> frames;
        std::string path = line.substr(0, sp);
        std::size_t start = 0;
        while (true) {
            std::size_t semi = path.find(';', start);
            frames.push_back(path.substr(start, semi - start));
            if (semi == std::string::npos)
                break;
            start = semi + 1;
        }
        out[moduleOf(frames)] += std::stoull(line.substr(sp + 1));
    }
    return out;
}

/** Mean and p99 of a boot phase across every recorded boot. */
void
bootPhase(core::Cloud &cloud, const char *phase, double *mean_ms,
          double *p99_ms)
{
    auto hists = cloud.boots().phaseHistogramsSnapshot();
    auto it = hists.find(phase);
    if (it == hists.end() || it->second.count() == 0)
        return;
    if (mean_ms)
        *mean_ms = it->second.mean() / 1e6;
    if (p99_ms)
        *p99_ms = double(it->second.quantile(0.99)) / 1e6;
}

struct LayerSpec
{
    const char *name;
    const char *unit;
    /** In the JSON result; false for the two phase costs the boot cost
     *  model fixes (parallel toolstack dispatch, page setup), which read
     *  the same on every run and are printed only. */
    bool listed;
};

// Every per-layer metric with its unit.
const LayerSpec layerTable[] = {
    {"sim.events_per_op", "events/op", true},
    {"sim.wall_ns_per_event", "ns", true},
    {"sim.pending_peak", "count", true},
    {"sim.cancelled_frac", "ratio", true},
    {"hypervisor.grant_ops_per_op", "ops/op", true},
    {"hypervisor.grant_map_hit_ratio", "ratio", true},
    {"hypervisor.evtchn_notifies_per_op", "ops/op", true},
    {"hypervisor.notify_suppressed_frac", "ratio", true},
    {"hypervisor.vcpu_ns_per_op", "ns/op", true},
    {"hypervisor.server_steal_frac", "ratio", true},
    {"hypervisor.ring_hwm", "slots", true},
    {"hypervisor.build_ms", "ms", true},
    {"hypervisor.toolstack_wait_p99_ms", "ms", false},
    {"pvboot.layout_ms", "ms", true},
    {"pvboot.page_setup_ms", "ms", false},
    {"pvboot.pt_updates_per_boot", "ops/boot", true},
    {"drivers.grant_reuse_ratio", "ratio", true},
    {"drivers.rx_stalls", "count", true},
    {"drivers.vcpu_ns_per_op", "ns/op", true},
    {"net.segments_per_op", "segs/op", true},
    {"net.retransmit_frac", "ratio", true},
    {"net.copy_bytes_per_byte", "ratio", true},
    {"net.vcpu_ns_per_op", "ns/op", true},
    {"protocols.dns_answer_wall_ns", "ns", true},
    {"protocols.dns_memo_hit_ratio", "ratio", true},
    {"protocols.app_vcpu_ns_per_op", "ns/op", true},
    {"storage.read_vlat_p99_us", "us", true},
    {"storage.write_vlat_p99_us", "us", true},
    {"storage.btree_cache_hit_ratio", "ratio", true},
    {"storage.blk_reads_per_op", "ops/op", true},
    {"storage.blk_writes_per_op", "ops/op", true},
    {"storage.nodes_per_write", "nodes/op", true},
    {"runtime.gc_minor_per_op", "ops/op", true},
    {"runtime.gc_pause_p99_us", "us", true},
    {"runtime.alloc_bytes_per_op", "bytes/op", true},
    {"runtime.promoted_bytes_per_op", "bytes/op", true},
    {"core.cloud_ctor_ms", "ms", true},
    {"core.provision_ms", "ms", true},
    {"core.input_build_ms", "ms", true},
    {"core.teardown_s", "s", true},
    {"loadgen.client_busy_frac", "ratio", true},
    {"trace.overhead_frac", "ratio", true},
    {"trace.mapped_frac", "ratio", true},
    {"unmapped.vcpu_ns_per_op", "ns/op", true},
};

} // namespace

void
commonLayers(core::Cloud &cloud, Rep &rep, u64 ops)
{
    Metrics &m = rep.layer;
    double n = double(ops);
    auto set = [&m](const char *name, double v, const char *unit,
                    u64 samples = 1) { m[name] = {v, unit, samples}; };
    // Counts over the run loop only.
    std::map<std::string, u64> after = counters(cloud);
    auto counter = [&](const std::string &name) {
        auto it = rep.counters_before.find(name);
        return after[name] - (it == rep.counters_before.end() ? 0 : it->second);
    };
    auto counterSuffixSum = [&](const std::string &suffix) {
        u64 sum = 0;
        for (const auto &[name, v] : after)
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                sum += counter(name);
        return sum;
    };

    // sim
    u64 cancelled = counter("sim.events_cancelled");
    set("sim.events_per_op", per(double(rep.events), n), "events/op",
        ops);
    set("sim.wall_ns_per_event",
        per(rep.run_wall_s * 1e9, double(rep.events)), "ns", rep.events);
    set("sim.cancelled_frac",
        per(double(cancelled), double(rep.events + cancelled)), "ratio");

    // hypervisor
    u64 hits = counterSuffixSum(".pmap.hits");
    u64 misses = counterSuffixSum(".pmap.misses");
    u64 sent = counter("notify.sent");
    u64 suppressed = counter("notify.suppressed");
    set("hypervisor.grant_ops_per_op",
        per(double(counter("gnttab.ops")), n), "ops/op", ops);
    set("hypervisor.grant_map_hit_ratio",
        per(double(hits), double(hits + misses)), "ratio", hits + misses);
    set("hypervisor.evtchn_notifies_per_op", per(double(sent), n),
        "ops/op", ops);
    set("hypervisor.notify_suppressed_frac",
        per(double(suppressed), double(sent + suppressed)), "ratio",
        sent + suppressed);
    u32 ring_hwm = 0;
    for (const auto &[name, ds] : cloud.profiler().domainStats()) {
        std::lock_guard<std::mutex> lk(ds->rings_mu_);
        for (const auto &[ring, r] : ds->rings)
            ring_hwm = std::max(ring_hwm, r.hwm);
    }
    set("hypervisor.ring_hwm", ring_hwm, "slots");
    if (const trace::DomainStats *d0 = dom0Stats(cloud)) {
        double run = double(d0->run_ns.load() - rep.dom0_run_before);
        double steal = double(d0->steal_ns.load() - rep.dom0_steal_before);
        set("hypervisor.server_steal_frac", per(steal, run + steal),
            "ratio");
    }
    double build_ms = 0, toolstack_p99 = 0;
    bootPhase(cloud, "build", &build_ms, nullptr);
    bootPhase(cloud, "toolstack", nullptr, &toolstack_p99);
    u64 boots = cloud.boots().completedBoots();
    set("hypervisor.build_ms", build_ms, "ms", boots);
    set("hypervisor.toolstack_wait_p99_ms", toolstack_p99, "ms", boots);

    // pvboot
    double layout_ms = 0, page_setup_ms = 0;
    bootPhase(cloud, "layout", &layout_ms, nullptr);
    bootPhase(cloud, "page_setup", &page_setup_ms, nullptr);
    u64 pt_updates = 0;
    for (const auto &rec : cloud.boots().records())
        for (const auto &ph : rec.phases)
            if (ph.name == "layout" || ph.name == "page_setup")
                pt_updates += ph.ops;
    set("pvboot.layout_ms", layout_ms, "ms", boots);
    set("pvboot.page_setup_ms", page_setup_ms, "ms", boots);
    set("pvboot.pt_updates_per_boot",
        per(double(pt_updates), double(cloud.boots().records().size())),
        "ops/boot", cloud.boots().records().size());

    // drivers
    u64 issued = counter("grant.issued");
    u64 reused = counter("grant.reused");
    set("drivers.grant_reuse_ratio",
        per(double(reused), double(issued + reused)), "ratio",
        issued + reused);
    set("drivers.rx_stalls", double(counter("netif.rx.stalls")),
        "count");

    // net
    u64 segs = counter("tcp.segments_sent");
    u64 tx_bytes = counter("net.tx.bytes");
    set("net.segments_per_op", per(double(segs), n), "segs/op", ops);
    set("net.retransmit_frac",
        per(double(counter("tcp.retransmits")), double(segs)),
        "ratio", segs);
    set("net.copy_bytes_per_byte",
        per(double(counter("net.tx.copy_bytes")), double(tx_bytes)),
        "ratio", tx_bytes);

    // runtime
    set("runtime.gc_minor_per_op",
        per(double(counter("gc.minor_collections")), n), "ops/op",
        ops);
    if (const trace::Histogram *h =
            cloud.metrics().findHistogram("gc.minor_pause_ns"))
        set("runtime.gc_pause_p99_us", double(h->quantile(0.99)) / 1e3,
            "us", h->count());
    set("runtime.alloc_bytes_per_op",
        per(double(counter("gc.bytes_allocated")), n), "bytes/op",
        ops);
    set("runtime.promoted_bytes_per_op",
        per(double(counter("gc.promoted_bytes")), n), "bytes/op",
        ops);

    // Virtual self time per module through the fixed label map.
    auto by_module = foldByModule(cloud.profiler());
    u64 total = 0;
    for (const auto &[mod, ns] : by_module)
        total += ns;
    set("hypervisor.vcpu_ns_per_op", per(double(by_module["hypervisor"]), n),
        "ns/op", ops);
    set("drivers.vcpu_ns_per_op", per(double(by_module["drivers"]), n),
        "ns/op", ops);
    set("net.vcpu_ns_per_op", per(double(by_module["net"]), n), "ns/op",
        ops);
    set("protocols.app_vcpu_ns_per_op",
        per(double(by_module["protocols"]), n), "ns/op", ops);
    set("unmapped.vcpu_ns_per_op", per(double(by_module["unmapped"]), n),
        "ns/op", ops);
    set("trace.mapped_frac",
        total ? 1.0 - double(by_module["unmapped"]) / double(total) : 1.0,
        "ratio", total);
    set("loadgen.client_busy_frac", rep.client_busy_frac, "ratio");
}

void
coreLayers(const SpanLog &spans, Rep &rep)
{
    rep.layer["core.cloud_ctor_ms"] = {
        spans.seconds("core.cloud_ctor") * 1e3, "ms"};
    rep.layer["core.provision_ms"] = {
        spans.seconds("core.provision") * 1e3, "ms"};
    rep.layer["core.input_build_ms"] = {
        spans.seconds("core.input_build") * 1e3, "ms"};
    rep.layer["core.teardown_s"] = {spans.seconds("core.teardown"),
                                    "s"};
}

double
mappedFraction(const Metrics &layer)
{
    auto it = layer.find("trace.mapped_frac");
    return it == layer.end() ? 0 : it->second.value;
}

void
fillMissingLayers(Metrics &layer)
{
    for (const LayerSpec &l : layerTable)
        if (!layer.count(l.name))
            layer[l.name] = {0, l.unit, 0};
}

bool
layerListed(const std::string &name)
{
    for (const LayerSpec &l : layerTable)
        if (name == l.name)
            return l.listed;
    return false;
}

} // namespace perfbench
