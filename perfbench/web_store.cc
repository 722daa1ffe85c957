/**
 * @file
 * web_store: one unikernel HTTP appliance keeps per-user timelines in
 * a storage::BTree on a blkif/blkback virtual disk, with tweets held
 * as managed heap values and a housekeeping thread running minor GCs
 * (wired as examples/web_appliance.cpp does). Sessions arrive open
 * loop, as a Poisson stream at a fixed rate below saturation (the
 * arrival times are uniform over the run, so every seed offers exactly
 * the same rate).
 * Each sends 9 timeline GETs (range reads, replies of one to several
 * segments) and 1 POST (a B-tree insert, which appends to the tree's
 * log), one request at a time on a keep-alive connection. An op is one
 * reply. TCP in both directions, storage reads beside writes, and the
 * GC; no boot.
 */

#include <algorithm>
#include <deque>
#include <memory>

#include "base/rand.h"
#include "drivers/blkif.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "runtime/gc_heap.h"
#include "storage/block.h"
#include "storage/btree.h"
#include "workloads.h"

namespace perfbench {

using namespace mirage;

namespace {

constexpr u32 users = 256;
constexpr u32 sessions = 1200;
constexpr u32 requestsPerSession = 10;
constexpr double arrivalSpanNs = 1.2e9; // 1000 sessions/s
const net::Ipv4Addr applianceIp(10, 0, 0, 80);

std::string
userName(u32 u)
{
    return strprintf("u%04u", u);
}

std::string
postKey(const std::string &user, u64 seq)
{
    return strprintf("%s/%08llu", user.c_str(), (unsigned long long)seq);
}

/** A seeded tweet of 100-400 printable bytes. */
std::string
makePost(Rng &rng)
{
    std::string s(std::size_t(rng.range(100, 400)), ' ');
    for (char &c : s)
        c = char('a' + rng.below(26));
    return s;
}

std::string
render(const std::vector<std::string> &posts)
{
    std::string body;
    for (const auto &p : posts)
        body += p + "\n";
    return body;
}

/** Counts the tree's block I/O at the storage module's interface. */
class CountingDevice : public storage::BlockDevice
{
  public:
    explicit CountingDevice(storage::BlockDevice &inner) : inner_(inner) {}

    u64 sizeSectors() const override { return inner_.sizeSectors(); }
    void
    read(u64 sector, u32 count, Cstruct buf,
         storage::BlockCallback done) override
    {
        reads++;
        inner_.read(sector, count, std::move(buf), std::move(done));
    }
    void
    write(u64 sector, u32 count, Cstruct buf,
          storage::BlockCallback done) override
    {
        writes++;
        inner_.write(sector, count, std::move(buf), std::move(done));
    }

    u64 reads = 0;
    u64 writes = 0;

  private:
    storage::BlockDevice &inner_;
};

struct Session
{
    i64 due_ns = 0; //!< arrival, relative to the start of the run loop
    u32 user = 0;
    u32 post_at = 0; //!< index of the POST among the session's requests
    std::string post;
};

} // namespace

Rep
runWebStore(u64 seed, Tracing *tr)
{
    double rep_start = wallNow();
    SpanLog *spans = tr ? &tr->spans : nullptr;
    Rep rep;

    std::unique_ptr<core::Cloud> cloud;
    {
        SpanScope s(spans, "core.cloud_ctor");
        cloud = std::make_unique<core::Cloud>();
    }
    if (tr)
        cloud->checker().enable();

    // The shadow model: every user's posts, in key order, as the
    // benchmark wrote them. Users start with 4-12 posts, so timelines
    // span one to several segments.
    std::vector<std::vector<std::string>> shadow(users);
    std::vector<Session> plan(sessions);
    std::vector<std::pair<u32, u32>> preload; // (user, seq)
    {
        SpanScope s(spans, "core.input_build");
        Rng rng(seed);
        for (u32 u = 0; u < users; u++)
            for (u64 n = rng.range(4, 12); n > 0; n--)
                shadow[u].push_back(makePost(rng));
        for (u32 seq = 0; seq < 12; seq++)
            for (u32 u = 0; u < users; u++)
                if (seq < shadow[u].size())
                    preload.emplace_back(u, seq);
        // Sessions walk a seeded permutation of the users, so one
        // user's sessions are `users` arrivals apart and never overlap.
        std::vector<u32> perm(users);
        for (u32 u = 0; u < users; u++)
            perm[u] = u;
        for (u32 u = users - 1; u > 0; u--)
            std::swap(perm[u], perm[rng.below(u + 1)]);
        std::vector<i64> arrivals(sessions);
        for (auto &a : arrivals)
            a = i64(rng.uniform() * arrivalSpanNs);
        std::sort(arrivals.begin(), arrivals.end());
        for (u32 s = 0; s < sessions; s++) {
            plan[s].due_ns = arrivals[s];
            plan[s].user = perm[s % users];
            plan[s].post_at = u32(rng.below(requestsPerSession));
            plan[s].post = makePost(rng);
        }
    }

    std::unique_ptr<drivers::Blkif> blkif;
    std::unique_ptr<storage::BlkifDevice> blkdev;
    std::unique_ptr<CountingDevice> dev;
    std::unique_ptr<storage::BTree> tree;
    std::unique_ptr<rt::GcHeap> heap;
    core::Guest *appliance = nullptr;
    core::Guest *client = nullptr;
    {
        SpanScope s(spans, "core.provision");
        xen::VirtualDisk &disk = cloud->addDisk("timelines", 1u << 18);
        xen::Blkback &blkback = cloud->blkbackFor(disk);
        appliance = &cloud->startUnikernel("store", applianceIp, 64);
        blkif = std::make_unique<drivers::Blkif>(appliance->boot, blkback);
        blkdev = std::make_unique<storage::BlkifDevice>(*blkif);
        dev = std::make_unique<CountingDevice>(*blkdev);
        tree = std::make_unique<storage::BTree>(*dev);
        heap = std::make_unique<rt::GcHeap>(
            appliance->dom.vcpu(), pvboot::MemoryBackend::xenExtent(),
            64 * 1024);
        client =
            &cloud->startUnikernel("client", net::Ipv4Addr(10, 0, 0, 9));
    }

    // Preload: format, then insert every user's first posts in
    // round-robin order, one insert at a time.
    std::vector<u64> next_seq(users);
    for (u32 u = 0; u < users; u++)
        next_seq[u] = shadow[u].size();
    {
        SpanScope s(spans, "core.input_build");
        std::size_t inserted = 0;
        bool preload_ok = true;
        std::function<void()> insertNext = [&] {
            if (inserted == preload.size() || !preload_ok)
                return;
            auto [u, seq] = preload[inserted++];
            tree->set(postKey(userName(u), seq), shadow[u][seq],
                      [&](Status st) {
                          if (!st.ok())
                              preload_ok = false;
                          insertNext();
                      });
        };
        tree->format([&](Status st) {
            if (!st.ok())
                preload_ok = false;
            insertNext();
        });
        cloud->run();
        // The appliance then mounts the preloaded disk afresh, so its
        // node cache starts empty and reads reach the disk.
        tree = std::make_unique<storage::BTree>(*dev);
        tree->mount([&](Status st) {
            if (!st.ok())
                preload_ok = false;
        });
        cloud->run();
        if (!preload_ok || inserted != preload.size() ||
            tree->entryCount() != preload.size()) {
            rep.invalid.push_back("B-tree preload failed");
            return rep;
        }
    }

    // Storage-layer latencies, from the handler's call into the tree
    // until its callback runs.
    std::vector<i64> read_vlat, write_vlat;
    sim::Engine &aeng = appliance->dom.engine();

    // BTree::set is single-writer: a commit advances the root and log
    // end only when its write completes, so two overlapping sets append
    // at the same log offset and one insert is lost. The appliance
    // therefore queues its inserts and keeps one in flight; reads run
    // concurrently against the last committed root.
    struct Insert
    {
        std::string key, value;
        rt::CellRef cell;
        http::HttpServer::Responder respond;
    };
    std::deque<Insert> inserts;
    bool writing = false;
    std::function<void()> nextInsert = [&] {
        if (writing || inserts.empty())
            return;
        writing = true;
        Insert job = std::move(inserts.front());
        inserts.pop_front();
        i64 t0 = aeng.now().ns();
        tree->set(job.key, job.value,
                  [&, t0, cell = job.cell,
                   respond = std::move(job.respond)](Status st) {
                      write_vlat.push_back(aeng.now().ns() - t0);
                      heap->release(cell);
                      respond(st.ok()
                                  ? http::HttpResponse::text(201, "created")
                                  : http::HttpResponse::text(500,
                                                             "store error"));
                      writing = false;
                      nextInsert();
                  });
    };

    auto web = std::make_unique<http::HttpServer>(
        appliance->stack, 80,
        [&](const http::HttpRequest &req,
            http::HttpServer::Responder respond) {
            SpanScope h(spans, "app.handler");
            if (req.method == "POST" && req.path.rfind("/tweet/", 0) == 0) {
                std::string user = req.path.substr(7);
                u64 seq = next_seq[std::stoul(user.substr(1))]++;
                // The tweet lives as a managed value until written back.
                inserts.push_back(Insert{
                    postKey(user, seq), req.body,
                    heap->alloc(u32(req.body.size()) + 32),
                    std::move(respond)});
                nextInsert();
                return;
            }
            if (req.method == "GET" &&
                req.path.rfind("/timeline/", 0) == 0) {
                std::string user = req.path.substr(10);
                i64 t0 = aeng.now().ns();
                tree->range(user + "/", user + "/~", [&, t0, respond](auto r) {
                    read_vlat.push_back(aeng.now().ns() - t0);
                    if (!r.ok()) {
                        respond(http::HttpResponse::text(500, "store error"));
                        return;
                    }
                    std::string body;
                    for (const auto &kv : r.value())
                        body += kv.second + "\n";
                    // The reply is a managed value until handed to TCP.
                    rt::CellRef cell = heap->alloc(u32(body.size()) + 32);
                    respond(http::HttpResponse::text(200, body));
                    heap->release(cell);
                });
                return;
            }
            respond(http::HttpResponse::notFound());
        });

    // The preload advanced virtual time; arrivals count from here.
    sim::Engine &ceng = client->dom.engine();
    const i64 start_ns = ceng.now().ns();

    // Housekeeping thread: a minor GC every 5 ms until the last session
    // is due plus a grace second (a hung session cannot keep it alive).
    const i64 gc_until_ns = start_ns + plan.back().due_ns + 1'000'000'000;
    std::function<void()> gcTick = [&] {
        if (aeng.now().ns() > gc_until_ns)
            return;
        appliance->sched.sleep(Duration::millis(5))
            ->onComplete([&](rt::Promise &) {
                heap->collectMinor();
                gcTick();
            });
    };
    gcTick();

    // Client: open-loop session arrivals; requests within a session are
    // sequential, each due when the previous reply arrived.
    std::vector<i64> latency_ns, post_latency_ns;
    u64 replies = 0;
    i64 last_reply_ns = 0;
    std::function<void(u32, std::shared_ptr<http::HttpSession>, u32, i64)>
        issue = [&](u32 s, std::shared_ptr<http::HttpSession> session,
                    u32 k, i64 due_ns) {
            const Session &ps = plan[s];
            bool is_post = k == ps.post_at;
            http::HttpRequest req;
            req.method = is_post ? "POST" : "GET";
            req.path = (is_post ? "/tweet/" : "/timeline/") +
                       userName(ps.user);
            if (is_post)
                req.body = ps.post;
            std::weak_ptr<http::HttpSession> weak = session;
            session->request(req, [&, s, k, due_ns, is_post,
                                   weak](Result<http::HttpResponse> r) {
                SpanScope h(spans, "app.client_rx");
                const Session &ps = plan[s];
                i64 now = ceng.now().ns();
                bool ok;
                if (is_post) {
                    ok = r.ok() && r.value().status == 201 &&
                         r.value().body == "created";
                    if (ok)
                        shadow[ps.user].push_back(ps.post);
                } else {
                    ok = r.ok() && r.value().status == 200 &&
                         r.value().body == render(shadow[ps.user]);
                }
                if (ok) {
                    replies++;
                    latency_ns.push_back(now - due_ns);
                    if (is_post)
                        post_latency_ns.push_back(now - due_ns);
                    last_reply_ns = std::max(last_reply_ns, now);
                } else {
                    rep.fail(strprintf("session %u request %u (%s): wrong "
                                       "reply",
                                       s, k, is_post ? "POST" : "GET"));
                }
                auto session = weak.lock();
                if (!session)
                    return;
                if (k + 1 < requestsPerSession)
                    issue(s, session, k + 1, now);
                else
                    session->close();
            });
        };
    for (u32 s = 0; s < sessions; s++) {
        i64 due = start_ns + plan[s].due_ns;
        ceng.at(TimePoint(due), [&, s, due] {
            auto holder =
                std::make_shared<std::shared_ptr<http::HttpSession>>();
            *holder = http::HttpSession::open(
                client->stack, applianceIp, 80,
                [&, s, due, holder](Status st) {
                    if (!st.ok()) {
                        rep.fail(strprintf("session %u: connect failed", s));
                        return;
                    }
                    issue(s, *holder, 0, due);
                });
        });
    }

    // Attribute virtual CPU time from the run loop on, not the preload.
    if (tr)
        cloud->profiler().enable();
    u64 reads_before = dev->reads;
    u64 writes_before = dev->writes;

    runLoop(*cloud, rep, tr, rep_start);

    rep.attempted = u64(sessions) * requestsPerSession;
    for (u64 i = replies + rep.failed; i < rep.attempted; i++)
        rep.fail("reply never arrived");

    double elapsed_s =
        double(last_reply_ns - start_ns - plan.front().due_ns) / 1e9;
    u64 ok = latency_ns.size();
    u64 posts = post_latency_ns.size();
    rep.client_busy_frac =
        per(client->dom.vcpu().busyTime().toSecondsF(), elapsed_s);
    rep.appliance_busy_frac =
        per(appliance->dom.vcpu().busyTime().toSecondsF(), elapsed_s);
    rep.virt["v_ops_per_s"] = {per(double(ok), elapsed_s), "1/s", ok};
    rep.virt["v_latency_p50_us"] = {quantile(latency_ns, 0.50) / 1e3, "us",
                                    ok};
    rep.virt["v_latency_p99_us"] = {quantile(latency_ns, 0.99) / 1e3, "us",
                                    ok};
    rep.virt["v_write_p99_us"] = {quantile(post_latency_ns, 0.99) / 1e3,
                                  "us", posts};

    if (tr) {
        commonLayers(*cloud, rep, ok);
        Metrics &m = rep.layer;
        u64 hits = tree->cacheHits();
        u64 misses = tree->cacheMisses();
        m["storage.read_vlat_p99_us"] = {quantile(read_vlat, 0.99) / 1e3,
                                         "us", read_vlat.size()};
        m["storage.write_vlat_p99_us"] = {quantile(write_vlat, 0.99) / 1e3,
                                          "us", write_vlat.size()};
        m["storage.btree_cache_hit_ratio"] = {
            per(double(hits), double(hits + misses)), "ratio", hits + misses};
        m["storage.blk_reads_per_op"] = {
            per(double(dev->reads - reads_before), double(ok)),
            "ops/op", ok};
        m["storage.blk_writes_per_op"] = {
            per(double(dev->writes - writes_before), double(ok)),
            "ops/op", ok};
        m["storage.nodes_per_write"] = {
            per(double(tree->nodesAppended()), double(posts)),
            "nodes/op", posts};
        if (cloud->checker().violations() > 0)
            rep.invalid.push_back("checker reported violations");
    }
    web.reset();
    tree.reset();
    dev.reset();
    blkdev.reset();
    blkif.reset();
    heap.reset();
    {
        SpanScope s(spans, "core.teardown");
        cloud.reset();
    }
    if (tr)
        coreLayers(tr->spans, rep);
    return rep;
}

} // namespace perfbench
