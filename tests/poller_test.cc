/**
 * @file
 * Tests for sim::Poller's tick elision.
 *
 * A poll tick that finds its rings empty only schedules the next tick,
 * so the poller dispatches just the ticks that can change state and
 * credits the rest to the engine (Engine::creditElided). Two oracles
 * check that the elision is exact:
 *
 *  - golden fingerprints: eventsRun(), dispatchChecksum() and the
 *    virtual results of small rigs (netif UDP echo, a blkif burst, a
 *    40-domain Cloud at 1 and 2 shards), recorded from the eager
 *    poller that dispatched every tick;
 *  - an in-test eager reference poller driven through the same edge
 *    cases (publishes at a tick instant, kicks, a re-arm race,
 *    runUntil mid-chain, teardown mid-chain).
 */

#include <gtest/gtest.h>

#include <regex>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/cloud.h"
#include "drivers/blkif.h"
#include "hypervisor/ring.h"
#include "sim/poller.h"
#include "sim/shard.h"
#include "sim/tuning.h"
#include "trace/metrics.h"

namespace mirage {
namespace {

// ---- Golden fingerprints ----------------------------------------------------

/** Engine totals plus the rig's own virtual results. */
struct Fingerprint
{
    u64 events = 0;
    u64 checksum = 0;
    u64 done = 0;     //!< replies / completions observed
    i64 done_ns = 0;  //!< sum of their virtual arrival times
    i64 end_ns = 0;   //!< final virtual clock

    bool
    operator==(const Fingerprint &o) const
    {
        return events == o.events && checksum == o.checksum &&
               done == o.done && done_ns == o.done_ns &&
               end_ns == o.end_ns;
    }
};

std::ostream &
operator<<(std::ostream &os, const Fingerprint &f)
{
    return os << "{" << f.events << "u, 0x" << std::hex << f.checksum
              << std::dec << "ull, " << f.done << "u, " << f.done_ns
              << ", " << f.end_ns << "}";
}

/**
 * @p pairs client/server unikernel pairs; every client sends
 * @p per_client datagrams to its server's UDP echo port in three
 * bursts spaced past the poll idle timeout, so polling chains start,
 * run and expire on every ring.
 */
Fingerprint
udpEchoCloud(unsigned shards, int pairs, int per_client)
{
    core::Cloud::Config cfg;
    cfg.shards = shards;
    core::Cloud cloud(cfg);
    std::vector<core::Guest *> servers, clients;
    for (int i = 0; i < pairs; i++) {
        servers.push_back(&cloud.startUnikernel(
            "server" + std::to_string(i),
            net::Ipv4Addr(10, 0, 0, u8(10 + i))));
        clients.push_back(&cloud.startUnikernel(
            "client" + std::to_string(i),
            net::Ipv4Addr(10, 0, 0, u8(100 + i))));
    }
    // Per-client tallies: each is only touched from its own shard.
    std::vector<u64> replies(std::size_t(pairs), 0);
    std::vector<i64> reply_ns(std::size_t(pairs), 0);
    for (int i = 0; i < pairs; i++) {
        core::Guest *srv = servers[std::size_t(i)];
        EXPECT_TRUE(srv->stack.udp()
                        .listen(7,
                                [srv](const net::UdpDatagram &d) {
                                    srv->stack.udp().sendTo(
                                        d.srcIp, d.srcPort, 7,
                                        {Cstruct::ofString(
                                            d.payload.toString())});
                                })
                        .ok());
        core::Guest *cli = clients[std::size_t(i)];
        EXPECT_TRUE(cli->stack.udp()
                        .listen(5000,
                                [&replies, &reply_ns, cli,
                                 i](const net::UdpDatagram &) {
                                    replies[std::size_t(i)]++;
                                    reply_ns[std::size_t(i)] +=
                                        cli->dom.engine().now().ns();
                                })
                        .ok());
        net::Ipv4Addr dst(10, 0, 0, u8(10 + i));
        for (int k = 0; k < per_client; k++) {
            // Three bursts 400 us apart; 3 us (+ per-pair skew) apart
            // inside a burst.
            i64 t = Duration::micros(50 + 400 * (k % 3) + 3 * (k / 3) + i)
                        .ns();
            sim::crossPostAt(cli->dom.engine(), TimePoint(t), [cli, dst, k] {
                cli->stack.udp().sendTo(
                    dst, 7, 5000,
                    {Cstruct::ofString("q" + std::to_string(k) +
                                       std::string(40, 'p'))});
            });
        }
    }
    cloud.run();
    Fingerprint f;
    f.events = cloud.eventsRun();
    f.checksum = cloud.shards().dispatchChecksum();
    for (int i = 0; i < pairs; i++) {
        f.done += replies[std::size_t(i)];
        f.done_ns += reply_ns[std::size_t(i)];
    }
    f.end_ns = cloud.shards().maxNow().ns();
    return f;
}

/** A blkif write burst deeper than the ring, then spaced reads. */
Fingerprint
blkifBurst()
{
    sim::Engine engine;
    xen::Hypervisor hv(engine);
    xen::Domain &dom0 =
        hv.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512);
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    xen::VirtualDisk disk(engine, "d0", 1u << 16);
    xen::Blkback back(dom0, disk);
    drivers::Blkif blk(boot, back);

    Fingerprint f;
    auto tally = [&f, &engine](const rt::PromisePtr &p) {
        p->onComplete([&f, &engine](rt::Promise &done) {
            if (done.resolvedOk()) {
                f.done++;
                f.done_ns += engine.now().ns();
            }
        });
    };
    std::vector<Cstruct> pages;
    for (u32 i = 0; i < 40; i++) {
        Cstruct page = blk.allocPage().value();
        for (std::size_t b = 0; b < 64; b++)
            page.setU8(b, u8(i + b));
        pages.push_back(page);
        tally(blk.write(u64(i) * 8, 8, page));
    }
    for (u32 i = 0; i < 40; i++) {
        engine.at(TimePoint(Duration::micros(900 + 7 * i).ns()),
                  [&blk, &pages, &tally, i] {
                      tally(blk.read(u64(i) * 8, 8, pages[i]));
                  });
    }
    engine.run();
    f.events = engine.eventsRun();
    f.checksum = engine.dispatchChecksum();
    f.end_ns = engine.now().ns();
    return f;
}

// Recorded from the eager poller, which dispatched every poll tick.
// Any drift means the elision changed what the simulation computes.
const Fingerprint kUdpEchoGolden{2224u, 0x6b6a4d5703e4e4b0ull, 30u, 15405329,
                                  1000050000};
const Fingerprint kBlkifGolden{778u, 0xd58557a1b0347453ull, 80u, 46077800,
                                1302460};
const Fingerprint kCloud40Golden{37787u, 0x639abbc14ff8a10ull, 240u,
                                  123320580, 1000069000};

TEST(PollerGoldenTest, NetifUdpEchoMatchesEagerPoller)
{
    Fingerprint f = udpEchoCloud(1, 1, 30);
    EXPECT_EQ(f.done, 30u);
    EXPECT_EQ(f, kUdpEchoGolden) << f;
}

TEST(PollerGoldenTest, BlkifBurstMatchesEagerPoller)
{
    Fingerprint f = blkifBurst();
    EXPECT_EQ(f.done, 80u);
    EXPECT_EQ(f, kBlkifGolden) << f;
}

TEST(PollerGoldenTest, FortyDomainCloudMatchesEagerPollerAtAnyShardCount)
{
    Fingerprint one = udpEchoCloud(1, 20, 12);
    Fingerprint two = udpEchoCloud(2, 20, 12);
    EXPECT_EQ(one.done, 240u);
    EXPECT_EQ(one, kCloud40Golden) << one;
    EXPECT_EQ(two, kCloud40Golden) << two;
}

// ---- Edge cases against an eager reference ----------------------------------

/**
 * The poller without elision: one dispatched event per tick. The
 * elided sim::Poller must reproduce its every observable effect.
 */
class EagerPoller
{
  public:
    EagerPoller(sim::Engine &engine, std::function<bool()> drain,
                std::function<bool()> rearm)
        : engine_(engine), drain_(std::move(drain)),
          rearm_(std::move(rearm))
    {
    }
    ~EagerPoller() { cancel(); }

    void
    kick()
    {
        last_activity_ = engine_.now();
        if (!scheduled_)
            schedule();
    }

    void
    cancel()
    {
        if (scheduled_)
            engine_.cancel(event_);
        scheduled_ = false;
    }

  private:
    void
    schedule()
    {
        scheduled_ = true;
        event_ = engine_.after(sim::tuning().pollInterval,
                               [this] { fire(); });
    }

    void
    fire()
    {
        scheduled_ = false;
        if (drain_())
            last_activity_ = engine_.now();
        if (engine_.now() - last_activity_ <= sim::tuning().pollIdle) {
            schedule();
            return;
        }
        if (rearm_()) {
            last_activity_ = engine_.now();
            drain_();
            schedule();
        }
    }

    sim::Engine &engine_;
    std::function<bool()> drain_;
    std::function<bool()> rearm_;
    TimePoint last_activity_;
    sim::EventId event_ = 0;
    bool scheduled_ = false;
};

/** What a run showed: engine totals plus every drain and re-arm. */
struct Trace
{
    u64 events = 0;
    u64 checksum = 0;
    i64 end_ns = 0;
    std::vector<std::pair<i64, u32>> drains; //!< (time, entries taken)
    std::vector<i64> rearms;
    //! Events run in each shard window, when run through a ShardSet.
    std::vector<u64> window_events;
    u64 elided = 0;

    bool
    operator==(const Trace &o) const
    {
        return events == o.events && checksum == o.checksum &&
               end_ns == o.end_ns && drains == o.drains &&
               rearms == o.rearms && window_events == o.window_events;
    }
};

/**
 * One ring, requests polled by @p P: the producer publishes from
 * engine events, the consumer drains on the poller (or on a simulated
 * notify, then kicks it). A @p windowed rig runs its engine as the one
 * shard of a ShardSet, in lookahead-bounded windows.
 */
template <typename P>
class Rig
{
  public:
    Rig(unsigned variant, bool windowed)
        : page_(makePage()), front_(page_), back_(page_)
    {
        engine.setMetrics(&metrics_);
        if (windowed) {
            shards = std::make_unique<sim::ShardSet>(engine, 1);
            shards->wallprof().enableTimeline();
        }
        poller = std::make_unique<P>(
            engine, [this] { return drain(); },
            [this] {
                trace_.rearms.push_back(engine.now().ns());
                if (race_on_rearm) {
                    race_on_rearm = false;
                    publish(); // lands between the drain and the re-arm
                }
                return back_.finalCheckForRequests();
            });
        back_.pair(front_);
        if constexpr (std::is_same_v<P, sim::Poller>)
            back_.attachPoller(poller.get());
        // Shift every causal key: the driver event's sibling index
        // (and so every hash below it) depends on the variant.
        for (unsigned i = 0; i < variant; i++)
            engine.at(TimePoint(), [] {});
    }

    /** Schedule @p fn at @p us from one driver event, so all actions
     *  share its strand and order by their own keys. */
    void
    script(std::vector<std::pair<double, std::function<void()>>> steps)
    {
        engine.at(TimePoint(), [this, steps = std::move(steps)] {
            for (const auto &[us, fn] : steps)
                engine.at(TimePoint(i64(us * 1000)), fn);
        });
    }

    void
    publish()
    {
        while (front_.unconsumedResponses() > 0)
            (void)front_.takeResponse();
        // mirage-lint: allow(flow-scope-hop) the test ring carries no flows
        (void)front_.startRequest();
        front_.pushRequests();
    }

    /** A doorbell-driven drain, as an owner's onEvent does it. */
    void
    notify()
    {
        publish();
        drain();
        poller->kick();
    }

    /** Owner teardown: detach the ring, then drop the poller. */
    void
    teardown()
    {
        back_.attachPoller(nullptr);
        poller.reset();
    }

    void
    runUntil(TimePoint t)
    {
        if (shards)
            shards->runUntil(t);
        else
            engine.runUntil(t);
    }

    Trace
    finish()
    {
        if (shards) {
            shards->run();
            // Execute spans carry each window's event count.
            std::string json = shards->wallprof().toChromeJson();
            std::regex span("\"vend_ns\":-?[0-9]+,\"events\":([0-9]+)");
            for (std::sregex_iterator it(json.begin(), json.end(), span),
                 end;
                 it != end; ++it)
                trace_.window_events.push_back(std::stoull((*it)[1]));
        } else {
            engine.run();
        }
        teardown();
        trace_.events = engine.eventsRun();
        trace_.checksum = engine.dispatchChecksum();
        trace_.end_ns = engine.now().ns();
        if (const trace::Counter *c = metrics_.findCounter("sim.polls_elided"))
            trace_.elided = c->value();
        return trace_;
    }

  private:
    trace::MetricsRegistry metrics_; //!< outlives the engine's pointer

  public:
    sim::Engine engine;
    std::unique_ptr<sim::ShardSet> shards;
    std::unique_ptr<P> poller;
    bool race_on_rearm = false;

  private:
    static Cstruct
    makePage()
    {
        Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
        xen::SharedRing(page).init();
        return page;
    }

    bool
    drain()
    {
        u32 n = 0;
        while (back_.unconsumedRequests() > 0) {
            (void)back_.takeRequest();
            // mirage-lint: allow(flow-scope-hop) the test ring carries no flows
            (void)back_.startResponse();
            n++;
        }
        back_.suppressRequestEvents();
        if (n == 0)
            return false;
        back_.pushResponses();
        trace_.drains.emplace_back(engine.now().ns(), n);
        return true;
    }

    Cstruct page_;
    xen::FrontRing front_;
    xen::BackRing back_;
    Trace trace_;
};

/** Run @p scenario on both pollers; they must agree exactly. */
template <typename Scenario>
Trace
expectSameAsEager(unsigned variant, Scenario scenario,
                  bool windowed = false)
{
    Rig<EagerPoller> eager(variant, windowed);
    scenario(eager);
    Trace want = eager.finish();
    Rig<sim::Poller> elided(variant, windowed);
    scenario(elided);
    Trace got = elided.finish();
    EXPECT_TRUE(got == want)
        << "variant " << variant << ": events " << got.events << " vs "
        << want.events << ", drains " << got.drains.size() << " vs "
        << want.drains.size() << ", rearms " << got.rearms.size()
        << " vs " << want.rearms.size() << ", windows "
        << got.window_events.size() << " vs " << want.window_events.size();
    EXPECT_EQ(want.elided, 0u);
    return got;
}

// The chain a notify at 10 us starts ticks at 11, 12, ... us.
constexpr unsigned kVariants = 24;

TEST(PollerElisionTest, PublishAtATickInstantOrdersByKey)
{
    unsigned before = 0, after = 0;
    for (unsigned v = 0; v < kVariants; v++) {
        Trace t = expectSameAsEager(v, [](auto &rig) {
            rig.script({{10, [&rig] { rig.notify(); }},
                        {15, [&rig] { rig.publish(); }},
                        {40, [&rig] { rig.publish(); }}});
        });
        EXPECT_GT(t.elided, 0u) << "variant " << v;
        // The tick at exactly 15 us sees the publish only when its key
        // orders after the publishing event; otherwise the 16 us one.
        for (const auto &[ns, n] : t.drains) {
            if (ns == 15000)
                after++;
            if (ns == 16000)
                before++;
        }
    }
    EXPECT_GT(before, 0u) << "no variant keyed the publish first";
    EXPECT_GT(after, 0u) << "no variant keyed the tick first";
}

TEST(PollerElisionTest, KickDuringAChainExtendsTheDeadline)
{
    for (unsigned v = 0; v < kVariants; v++) {
        expectSameAsEager(v, [](auto &rig) {
            rig.script({{10, [&rig] { rig.notify(); }},
                        {60, [&rig] { rig.poller->kick(); }},
                        {97.5, [&rig] { rig.notify(); }},
                        {150, [&rig] { rig.poller->kick(); }},
                        {600, [&rig] { rig.notify(); }}});
        });
    }
}

TEST(PollerElisionTest, RearmRaceKeepsPolling)
{
    for (unsigned v = 0; v < kVariants; v++) {
        Trace t = expectSameAsEager(v, [](auto &rig) {
            rig.race_on_rearm = true;
            rig.script({{10, [&rig] { rig.notify(); }}});
        });
        // The race re-arms twice: once into the raced entry, once idle.
        EXPECT_EQ(t.rearms.size(), 2u);
    }
}

TEST(PollerElisionTest, RunUntilMidChainThenResume)
{
    for (unsigned v = 0; v < kVariants; v++) {
        for (double stop : {37.0, 40.0, 40.5}) {
            auto run = [stop](auto &rig) {
                rig.script({{10, [&rig] { rig.notify(); }},
                            {22.25, [&rig] { rig.publish(); }}});
                rig.runUntil(TimePoint(i64(stop * 1000)));
                // A root-context publish after the stop: the tick at
                // exactly the stop instant already ran.
                rig.publish();
            };
            expectSameAsEager(v, run);
        }
    }
}

TEST(PollerElisionTest, ShardWindowsCountTheTicksTheyWouldHaveRun)
{
    // Windows start at the next event a dispatching poller would have
    // queued, and each counts the ticks it would have run, so the
    // window sequence (and the load-imbalance figures built on it)
    // matches the eager cadence.
    for (unsigned v = 0; v < kVariants; v++) {
        Trace t = expectSameAsEager(
            v,
            [](auto &rig) {
                rig.script({{10, [&rig] { rig.notify(); }},
                            {22.25, [&rig] { rig.publish(); }},
                            {300, [&rig] { rig.notify(); }}});
                rig.runUntil(TimePoint(Duration::micros(40).ns()));
                rig.publish();
            },
            true);
        EXPECT_GT(t.window_events.size(), 200u) << "variant " << v;
        EXPECT_GT(t.elided, 0u) << "variant " << v;
    }
}

TEST(PollerPairingTest, BlkifOnAnotherShardIsRejectedAtConnect)
{
    // A blkif ring's two ends notify each other's pollers directly, so
    // they must share an engine; a frontend homed on another shard
    // than dom0's blkback is refused when it connects.
    core::Cloud::Config cfg;
    cfg.shards = 2;
    core::Cloud cloud(cfg);
    xen::VirtualDisk &disk = cloud.addDisk("ssd", 1u << 12);
    xen::Blkback &back = cloud.blkbackFor(disk);
    core::Guest &home =
        cloud.startUnikernel("home", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &away =
        cloud.startUnikernel("away", net::Ipv4Addr(10, 0, 0, 3));
    ASSERT_NE(&away.dom.engine(), &back.backendDomain().engine());
    try {
        drivers::Blkif blkif(away.boot, back);
        ADD_FAILURE() << "cross-shard blkif connected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "blkback: away runs on another shard than its "
                      "backend dom0"),
                  std::string::npos)
            << e.what();
    }
    // The same backend still serves a frontend on its own shard.
    drivers::Blkif blkif(home.boot, back);
    Cstruct page = blkif.allocPage().value();
    page.setU8(0, 0x5a);
    bool written = false;
    blkif.write(0, 8, page)->onComplete(
        [&written](rt::Promise &p) { written = p.resolvedOk(); });
    cloud.run();
    EXPECT_TRUE(written);
}

TEST(PollerElisionTest, TeardownMidChainCreditsOnlyTicksBeforeNow)
{
    for (unsigned v = 0; v < kVariants; v++) {
        expectSameAsEager(v, [](auto &rig) {
            rig.script({{10, [&rig] { rig.notify(); }},
                        {20.5, [&rig] { rig.publish(); }},
                        // At exactly a tick instant: the key decides
                        // whether that tick is credited.
                        {50, [&rig] { rig.teardown(); }}});
        });
    }
}

} // namespace
} // namespace mirage
