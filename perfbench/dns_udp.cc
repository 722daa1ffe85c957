/**
 * @file
 * dns_udp: the Mirage DNS appliance (memoizing) serves a synthetic
 * zone twice the memo capacity, so the memo both hits and evicts. Its
 * names have seeded label lengths, as real zones do, so per-byte
 * parse and build costs vary from query to query. A
 * closed-loop client keeps a fixed number of queries outstanding over
 * seeded uniform names. An op is one validated answer. Smallest
 * packets, UDP only: per-packet ring, event-channel and grant cost
 * plus DNS parsing and memoization dominate; no TCP, storage or boot.
 */

#include <unordered_map>

#include "base/rand.h"
#include "baseline/dns_servers.h"
#include "protocols/dns/server.h"
#include "workloads.h"

namespace perfbench {

using namespace mirage;

namespace {

constexpr std::size_t zoneEntries = 131072; // 2x the 65,536-entry memo
constexpr u64 queries = 60000;
constexpr u32 outstanding = 16;
constexpr u16 clientPort = 40000;
const char *const origin = "bench.example.";
const net::Ipv4Addr serverIp(10, 0, 0, 2);

/** The zone's address for host @p i. */
net::Ipv4Addr
expectedAddr(u64 i)
{
    return net::Ipv4Addr(u32(0x0a000000 + i + 1));
}

/** Host names "h<i>-<1..24 seeded letters>.<origin>". */
std::vector<std::string>
makeNames(u64 seed)
{
    Rng rng(seed ^ 0x7a6f6e65ull);
    std::vector<std::string> names(zoneEntries);
    for (std::size_t i = 0; i < zoneEntries; i++) {
        std::string label = strprintf("h%zu-", i);
        for (u64 n = rng.range(1, 24); n > 0; n--)
            label += char('a' + rng.below(26));
        names[i] = label + "." + origin;
    }
    return names;
}

dns::Zone
makeZone(const std::vector<std::string> &names)
{
    dns::Zone zone(dns::nameFromString(origin).value());
    dns::ResourceRecord ns;
    ns.name = dns::nameFromString(origin).value();
    ns.type = dns::RrType::NS;
    ns.ttl = 3600;
    ns.target = dns::nameFromString(std::string("ns1.") + origin).value();
    zone.addRecord(ns);
    for (std::size_t i = 0; i < names.size(); i++) {
        dns::ResourceRecord rr;
        rr.name = dns::nameFromString(names[i]).value();
        rr.type = dns::RrType::A;
        rr.ttl = 3600;
        rr.a = expectedAddr(i);
        zone.addRecord(std::move(rr));
    }
    return zone;
}

Cstruct
queryFor(u16 id, const std::string &name)
{
    dns::DnsMessage q;
    q.header = dns::DnsHeader{};
    q.header.id = id;
    q.header.qdcount = 1;
    q.questions.push_back(dns::Question{dns::nameFromString(name).value(),
                                        u16(dns::RrType::A), 1});
    return dns::MessageWriter(dns::CompressionImpl::None).write(q);
}

/** Mean wall ns per DnsServer::answer over the recorded query stream,
 *  on a fresh server configured like the appliance's. */
double
replayAnswerNs(const std::vector<std::string> &names,
               const std::vector<Cstruct> &stream)
{
    dns::DnsServer::Config cfg;
    cfg.memoize = true;
    cfg.compression = dns::CompressionImpl::FunctionalMap;
    dns::DnsServer server(makeZone(names), cfg);
    double t0 = wallNow();
    for (const Cstruct &q : stream)
        if (!server.answer(q).ok())
            return 0;
    return per((wallNow() - t0) * 1e9, double(stream.size()));
}

} // namespace

Rep
runDnsUdp(u64 seed, Tracing *tr)
{
    double rep_start = wallNow();
    SpanLog *spans = tr ? &tr->spans : nullptr;
    Rep rep;

    std::unique_ptr<core::Cloud> cloud;
    {
        SpanScope s(spans, "core.cloud_ctor");
        cloud = std::make_unique<core::Cloud>();
    }
    if (tr) {
        cloud->profiler().enable();
        cloud->checker().enable();
    }

    std::vector<std::string> names;
    std::unique_ptr<dns::Zone> zone;
    {
        SpanScope s(spans, "core.input_build");
        names = makeNames(seed);
        zone = std::make_unique<dns::Zone>(makeZone(names));
    }
    std::unique_ptr<baseline::DnsAppliance> app;
    core::Guest *client = nullptr;
    {
        SpanScope s(spans, "core.provision");
        app = std::make_unique<baseline::DnsAppliance>(
            *cloud, baseline::DnsAppliance::Kind::MirageMemo,
            std::move(*zone), serverIp);
        client =
            &cloud->startUnikernel("client", net::Ipv4Addr(10, 0, 0, 3));
    }

    struct Pending
    {
        u64 host;
        i64 sent_ns;
    };
    std::unordered_map<u16, Pending> pending;
    std::vector<i64> latency_ns;
    latency_ns.reserve(queries);
    Rng rng(seed);
    u64 sent = 0;
    i64 last_answer_ns = 0;
    sim::Engine &ceng = client->dom.engine();

    auto sendNext = [&] {
        if (sent == queries)
            return;
        u16 id = u16(sent++);
        u64 host = rng.below(zoneEntries);
        Cstruct q = queryFor(id, names[host]);
        if (tr)
            tr->dns_queries.push_back(q);
        pending[id] = Pending{host, ceng.now().ns()};
        client->stack.udp().sendTo(serverIp, 53, clientPort, {q});
    };

    Status st = client->stack.udp().listen(
        clientPort, [&](const net::UdpDatagram &dgram) {
            SpanScope h(spans, "app.client_rx");
            auto msg = dns::parseMessage(dgram.payload);
            if (!msg.ok()) {
                rep.fail("unparseable answer");
                return;
            }
            const dns::DnsMessage &m = msg.value();
            auto it = pending.find(m.header.id);
            if (it == pending.end()) {
                rep.fail("answer to no outstanding query");
                return;
            }
            Pending p = it->second;
            pending.erase(it);
            const std::string &want = names[p.host];
            bool ok = m.header.qr && m.header.rcode == dns::Rcode::NoError &&
                      m.answers.size() == 1 &&
                      m.answers[0].type == dns::RrType::A &&
                      dns::nameToString(m.answers[0].name) + "." == want &&
                      m.answers[0].a == expectedAddr(p.host);
            if (ok) {
                latency_ns.push_back(ceng.now().ns() - p.sent_ns);
                last_answer_ns = ceng.now().ns();
            } else {
                rep.fail("wrong answer for " + want);
            }
            sendNext();
        });
    if (!st.ok()) {
        rep.invalid.push_back("client listen: " + st.error().message);
        return rep;
    }
    for (u32 i = 0; i < outstanding; i++)
        sendNext();

    runLoop(*cloud, rep, tr, rep_start);

    rep.attempted = queries;
    for (const auto &kv : pending)
        rep.fail(strprintf("query %u never answered", unsigned(kv.first)));
    // Queries never sent (a stalled loop) are missing too.
    for (u64 i = sent; i < queries; i++)
        rep.fail("query never sent");

    double elapsed_s = double(last_answer_ns) / 1e9;
    u64 ok = latency_ns.size();
    rep.client_busy_frac =
        per(client->dom.vcpu().busyTime().toSecondsF(), elapsed_s);
    rep.appliance_busy_frac =
        per(app->guest().dom.vcpu().busyTime().toSecondsF(), elapsed_s);
    rep.virt["v_ops_per_s"] = {per(double(ok), elapsed_s), "1/s", ok};
    rep.virt["v_latency_p50_us"] = {quantile(latency_ns, 0.50) / 1e3, "us",
                                    ok};
    rep.virt["v_latency_p99_us"] = {quantile(latency_ns, 0.99) / 1e3, "us",
                                    ok};

    if (tr) {
        commonLayers(*cloud, rep, ok);
        const auto &ds = app->server().stats();
        rep.layer["protocols.dns_memo_hit_ratio"] = {
            per(double(ds.memoHits), double(ds.queries)), "ratio",
            ds.queries};
        rep.layer["protocols.dns_answer_wall_ns"] = {
            replayAnswerNs(names, tr->dns_queries), "ns", tr->dns_queries.size()};
        if (cloud->checker().violations() > 0)
            rep.invalid.push_back("checker reported violations");
    }
    client->stack.udp().unlisten(clientPort);
    app.reset();
    {
        SpanScope s(spans, "core.teardown");
        cloud.reset();
    }
    if (tr)
        coreLayers(tr->spans, rep);
    return rep;
}

} // namespace perfbench
