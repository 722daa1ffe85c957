/**
 * @file
 * fleet_boot: N unikernel web appliances are submitted to
 * Cloud::bootUnikernel at t=0, each with a memory size drawn by the
 * seed (boot cost grows with memory, Figs 5/6). The client sends one
 * HTTP GET the instant an appliance is ready. An op is one domain
 * booted and answered; its latency runs from submission to the first
 * response. Work sits in the toolstack, domain builder, page tables,
 * grant setup and a deep event heap, with almost none in the
 * per-packet datapath, storage or GC.
 */

#include <memory>
#include <vector>

#include "base/rand.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "workloads.h"

namespace perfbench {

using namespace mirage;

namespace {

// 500 domains keep one repetition near 3 s of host time while the
// toolstack queue still builds a deep event heap.
constexpr int domains = 500;
constexpr std::size_t memoryChoicesMib[] = {16, 32, 64};
const char *const probeBody = "up /probe\n";

} // namespace

Rep
runFleetBoot(u64 seed, Tracing *tr)
{
    double rep_start = wallNow();
    SpanLog *spans = tr ? &tr->spans : nullptr;
    Rep rep;

    std::vector<std::size_t> memory(domains);
    {
        SpanScope s(spans, "core.input_build");
        Rng rng(seed);
        for (auto &m : memory)
            m = memoryChoicesMib[rng.below(std::size(memoryChoicesMib))];
    }

    std::unique_ptr<core::Cloud> cloud;
    {
        SpanScope s(spans, "core.cloud_ctor");
        // A /16 holds the fleet: appliances live at 10.0.(1+i/250).
        // (1+i%250), clear of the client at 10.0.0.9.
        core::Cloud::Config cfg;
        cfg.netmask = net::Ipv4Addr(255, 255, 0, 0);
        cloud = std::make_unique<core::Cloud>(cfg);
    }
    if (tr) {
        cloud->profiler().enable();
        cloud->checker().enable();
    }
    cloud->boots().setCapacity(domains);

    // 0 = pending, 1 = answered correctly, 2 = failed.
    std::vector<int> state(domains, 0);
    std::vector<i64> latency_ns;
    std::vector<std::unique_ptr<http::HttpServer>> servers(domains);
    auto failOnce = [&](int i, const std::string &why) {
        if (state[std::size_t(i)] == 0) {
            state[std::size_t(i)] = 2;
            rep.fail(why);
        }
    };

    core::Guest *client = nullptr;
    {
        SpanScope s(spans, "core.provision");
        client = &cloud->startUnikernel("client", net::Ipv4Addr(10, 0, 0, 9));
        for (int i = 0; i < domains; i++) {
            net::Ipv4Addr ip(10, 0, u8(1 + i / 250), u8(1 + i % 250));
            i64 submitted = cloud->engine().now().ns();
            cloud->bootUnikernel(
                strprintf("fleet%d", i), ip, memory[std::size_t(i)],
                [&, i, ip, submitted](core::Guest &g, xen::BootBreakdown) {
                    SpanScope h(spans, "app.on_ready");
                    servers[std::size_t(i)] =
                        std::make_unique<http::HttpServer>(
                            g.stack, 80,
                            [](const http::HttpRequest &req,
                               http::HttpServer::Responder respond) {
                                respond(http::HttpResponse::text(
                                    200, "up " + req.path + "\n"));
                            });
                    client->dom.engine().after(
                        Duration::micros(2), [&, i, ip, submitted] {
                            auto holder = std::make_shared<
                                std::shared_ptr<http::HttpSession>>();
                            *holder = http::HttpSession::open(
                                client->stack, ip, 80,
                                [&, i, submitted, holder](Status st) {
                                    if (!st.ok()) {
                                        failOnce(i, "connect failed");
                                        return;
                                    }
                                    http::HttpRequest get;
                                    get.method = "GET";
                                    get.path = "/probe";
                                    std::weak_ptr<http::HttpSession> weak =
                                        *holder;
                                    (*holder)->request(
                                        get,
                                        [&, i, submitted,
                                         weak](Result<http::HttpResponse> r) {
                                            SpanScope rh(spans,
                                                         "app.client_rx");
                                            if (!r.ok() ||
                                                r.value().status != 200 ||
                                                r.value().body != probeBody) {
                                                failOnce(i, "bad probe reply");
                                            } else if (state[std::size_t(i)] ==
                                                       0) {
                                                state[std::size_t(i)] = 1;
                                                latency_ns.push_back(
                                                    client->dom.engine()
                                                        .now()
                                                        .ns() -
                                                    submitted);
                                            }
                                            if (auto s = weak.lock())
                                                s->close();
                                        });
                                });
                        });
                });
        }
    }

    runLoop(*cloud, rep, tr, rep_start);

    rep.attempted = domains;
    for (int i = 0; i < domains; i++)
        if (state[std::size_t(i)] == 0)
            failOnce(i, strprintf("fleet%d never answered", i));

    double elapsed_s = 0;
    for (i64 l : latency_ns)
        elapsed_s = std::max(elapsed_s, double(l) / 1e9);
    u64 ok = latency_ns.size();
    rep.client_busy_frac =
        per(client->dom.vcpu().busyTime().toSecondsF(), elapsed_s);
    rep.virt["v_ops_per_s"] = {per(double(ok), elapsed_s), "1/s", ok};
    rep.virt["v_latency_p50_us"] = {quantile(latency_ns, 0.50) / 1e3, "us",
                                    ok};
    rep.virt["v_latency_p99_us"] = {quantile(latency_ns, 0.99) / 1e3, "us",
                                    ok};

    if (tr) {
        commonLayers(*cloud, rep, ok);
        if (cloud->checker().violations() > 0)
            rep.invalid.push_back("checker reported violations");
    }
    servers.clear();
    {
        SpanScope s(spans, "core.teardown");
        cloud.reset();
    }
    if (tr)
        coreLayers(tr->spans, rep);
    return rep;
}

} // namespace perfbench
